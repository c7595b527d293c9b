"""The benchmark trend history (``tools/perf_history.py``).

The committed ``benchmarks/perf_history.jsonl`` must pass its own gate
with every benchmark workload evaluated; one injected row of a new sha
with twice the like-host median ``wall_s`` must fail it, naming
workload and metric; the gate reads the median of the newest sha's
rows, so one noisy row among three passes and three slow rows fail;
``add`` must refuse a run whose ``correct`` is false; and a history
with too few like-host rows is a ``skip``, never a failure.
"""

import json
import os
import statistics
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "tools")
sys.path.insert(0, TOOLS)

import perf_history  # noqa: E402

HOST = {"cpu": "Test CPU", "nproc": 2, "python": "3.12.0",
        "numpy": "2.0.0"}


def run_stdout(workload="figure", seed=1, correct=True, wall_s=1.5):
    """What ``perfbench/run.py --trace 0`` prints, cut to the lines
    ``add`` reads."""
    metrics = {"setup_s": 0.4, "wall_s": wall_s, "sim_kips": 20.0,
               "ok_ratio": 1.0, "peak_rss_mb": 100.0}
    return "\n".join([
        f"workload={workload} seed={seed} passes=8 attempted=128 "
        f"failed=0",
        "raw pass seconds: 2.383 2.528",
        json.dumps({"correct": correct, "attempted": 128, "failed": 0,
                    "metrics": {name: {"value": value, "unit": "s"}
                                for name, value in metrics.items()}}),
    ]) + "\n"


def row(wall_s, workload="figure", sha="0" * 40, seed=1, **metrics):
    _, seed, values = perf_history.parse_run(
        run_stdout(workload, seed=seed, wall_s=wall_s),
        list(perf_history.benchmark_metrics()[1]))
    return {"sha": sha, "workload": workload, "seed": seed,
            "metrics": dict(values, **metrics), "host": HOST}


def write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_committed_history_passes_with_every_workload_checked():
    workloads, _ = perf_history.benchmark_metrics()
    report = perf_history.check()
    assert report["fail"] == []
    assert report["skip"] == []
    for workload in workloads:
        assert any(line.startswith(f"{workload} on ")
                   for line in report["ok"]), workload


def test_a_twice_slower_row_fails_naming_workload_and_metric(tmp_path):
    history = tmp_path / "perf_history.jsonl"
    committed = perf_history.load()
    workloads, _ = perf_history.benchmark_metrics()
    for workload in workloads:
        newest = [r for r in committed if r["workload"] == workload][-1]
        like_host = [r for r in committed if r["workload"] == workload
                     and r["host"] == newest["host"]]
        median = statistics.median(r["metrics"]["wall_s"]
                                   for r in like_host)
        slow = dict(newest, sha="f" * 40,
                    metrics=dict(newest["metrics"], wall_s=2 * median))
        write_rows(history, committed + [slow])
        report = perf_history.check(history)
        assert any(line.startswith(f"{workload} on ")
                   and ": wall_s " in line
                   for line in report["fail"]), report["fail"]


def test_one_noisy_row_among_a_shas_rows_passes(tmp_path):
    history = tmp_path / "perf_history.jsonl"
    parent = [row(1.5, sha="a" * 40, seed=seed) for seed in (1, 2, 3)]
    change = [row(1.5, sha="b" * 40, seed=1, setup_s=0.4 * 1.5),
              row(1.5, sha="b" * 40, seed=2),
              row(1.5, sha="b" * 40, seed=3)]
    write_rows(history, parent + change)
    report = perf_history.check(history)
    assert report["fail"] == []
    assert any(line.startswith("figure on ") and "3 row(s) of sha "
               in line for line in report["ok"]), report["ok"]
    # the same row as the only row of its sha is gated alone
    write_rows(history, parent + change[:1])
    assert any(": setup_s " in line
               for line in perf_history.check(history)["fail"])


def test_a_sha_whose_rows_are_all_slow_fails(tmp_path):
    history = tmp_path / "perf_history.jsonl"
    parent = [row(1.5, "sampled", sha="a" * 40, seed=seed)
              for seed in (1, 2, 3)]
    change = [row(3.0, "sampled", sha="b" * 40, seed=seed)
              for seed in (1, 2, 3)]
    write_rows(history, parent + change)
    (failure,) = perf_history.check(history)["fail"]
    assert failure.startswith("sampled on ") and ": wall_s " in failure
    assert "median of 3 row(s) of sha " + "b" * 12 in failure


def test_add_refuses_an_incorrect_run(tmp_path):
    history = tmp_path / "perf_history.jsonl"
    good = tmp_path / "good.txt"
    good.write_text(run_stdout("torture", seed=7))
    bad = tmp_path / "bad.txt"
    bad.write_text(run_stdout(correct=False))
    with pytest.raises(ValueError, match="not correct"):
        perf_history.add([good, bad], history)
    assert not history.exists()      # all or none
    traced = tmp_path / "traced.txt"
    traced.write_text(run_stdout().replace('"wall_s"', '"core.run_s"'))
    with pytest.raises(ValueError, match="not a --trace 0 run"):
        perf_history.add([traced], history)

    (added,) = perf_history.add([good], history)
    assert perf_history.load(history) == [added]
    assert (added["workload"], added["seed"]) == ("torture", 7)
    assert added["metrics"]["wall_s"] == 1.5
    assert set(added["host"]) == {"cpu", "nproc", "python", "numpy"}


def test_young_history_skips(tmp_path):
    history = tmp_path / "perf_history.jsonl"
    rows = [row(1.5) for _ in range(perf_history.MIN_PRIORS)]
    slow = row(3.0, sha="f" * 40)    # a later sha
    write_rows(history, rows + [slow])
    assert perf_history.check(history)["fail"]
    # one earlier row fewer, and the same slow row is only a skip
    write_rows(history, rows[1:] + [slow])
    report = perf_history.check(history)
    assert report["fail"] == [] and report["ok"] == []
    assert any(line.startswith("figure on ")
               for line in report["skip"])
    # like-host means like-host: another host's rows do not count
    other = [dict(r, host=dict(HOST, nproc=64)) for r in rows]
    write_rows(history, other + [slow])
    assert perf_history.check(history)["fail"] == []
