"""The bench driver (``tools/bench.py``), with stub checks.

No real timing runs here: each stub pair function hands the driver
fixed seconds and cell results. A check's ratio is the median of its
pairs' A-over-B ratios, for an odd and an even pair count; a median
below the threshold fails the check; an equivalence failure fails it
however fast it is; and every check CI runs has a row in the table.
"""

import itertools
import json
import os
import re
import shlex
import sys

import pytest

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir)
sys.path.insert(0, os.path.join(REPO, "tools"))

import bench  # noqa: E402


def stub(pairs, threshold=1.5, problems=None):
    """A check whose k-th pair takes ``pairs[k]`` = (a_s, b_s) and
    reports ``problems[k]`` (a cells dict) or a clean cell; each run
    of the check starts again at its first pair."""
    timings = itertools.cycle(pairs)
    reports = itertools.cycle(problems or [{"cell": None}] * len(pairs))

    def pair(**inputs):
        a_s, b_s = next(timings)
        return a_s, b_s, next(reports)

    return bench.Check(pair, threshold, len(pairs), "slow", "fast",
                       {"scale": 1.0})


def test_median_of_an_odd_pair_count():
    # ratios 2.0, 4.0, 1.6: the median pair, not the mean (2.53)
    result = bench.run_check("odd", stub([(2, 1), (4, 1), (1.6, 1)]))
    assert result["ratios"] == [2.0, 4.0, 1.6]
    assert result["ratio"] == 2.0
    assert result["pairs"] == 3
    assert result["failures"] == []


def test_median_of_an_even_pair_count():
    # ratios 1.0, 3.0, 2.0, 10.0: the mean of the middle two
    result = bench.run_check(
        "even", stub([(1, 1), (3, 1), (2, 1), (10, 1)]))
    assert result["ratio"] == 2.5
    assert result["statistic"] \
        == "median of 4 adjacent A/B pair ratios"


def test_median_below_threshold_fails():
    # one fast outlier pair cannot carry the check
    result = bench.run_check(
        "slow", stub([(1.4, 1), (9.0, 1), (1.45, 1)], threshold=1.5))
    assert result["ratio"] == 1.45
    assert len(result["failures"]) == 1
    assert "1.450x < required 1.5x" in result["failures"][0]
    assert all(result["equivalence"].values())


def test_equivalence_failure_fails_a_passing_ratio():
    problems = [{"lbm.diag": None, "mcf.diag": None},
                {"lbm.diag": None, "mcf.diag": "diverges"},
                {"lbm.diag": None, "mcf.diag": None}]
    result = bench.run_check(
        "wrong", stub([(3, 1)] * 3, problems=problems))
    assert result["ratio"] == 3.0
    assert result["equivalence"] == {"lbm.diag": True,
                                     "mcf.diag": False}
    assert result["failures"] == ["mcf.diag (pair 2): diverges"]


def test_schema_and_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "TABLE", {
        "good": stub([(2, 1)] * 3),
        "bad": stub([(1, 1)] * 3)})
    out = tmp_path / "bench.json"
    assert bench.main(["good", "-o", str(out)]) == 0
    assert bench.main(["good", "bad", "-o", str(out)]) == 1
    assert "FAIL: bad: median slow/fast ratio" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["bad", "good"]
    assert sorted(doc["good"]) == sorted(
        ["ratio", "ratios", "seconds", "threshold", "statistic",
         "pairs", "inputs", "a", "b", "equivalence", "failures"])


def test_unknown_check_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        bench.main(["nosuch"])
    assert exc.value.code == 2


def ci_invocations():
    """The argument lists of every ``tools/bench.py`` run in CI."""
    path = os.path.join(REPO, ".github", "workflows", "ci.yml")
    with open(path) as handle:
        text = handle.read()
    return [shlex.split(args) for args in
            re.findall(r"python3? tools/bench\.py([^\n]*)", text)]


def test_every_check_ci_runs_has_a_table_row():
    runs = ci_invocations()
    assert runs, "CI runs no bench check"
    named = set()
    for args in runs:
        assert "-o" in args
        index = args.index("-o")
        names = args[:index] + args[index + 2:]
        assert names, f"CI runs every check at once: {args}"
        named.update(names)
    # every name CI runs has a row, and every row runs in CI
    assert named == set(bench.TABLE)


def test_table_rows_are_fixed_and_sane():
    thresholds = {name: check.threshold
                  for name, check in bench.TABLE.items()}
    assert thresholds == {"engine": 1.5, "iss": 5.0, "parallel": 1.2,
                          "cache": 5.0, "sampling": 5.0}
    for check in bench.TABLE.values():
        assert check.pairs >= 3
    assert bench.TABLE["sampling"].inputs["scale"] == 4.0


def test_iss_pair_compares_architectural_state(monkeypatch):
    """A generated block that computes a wrong register value fails
    the ``iss`` check's equivalence even though both runs retire the
    same count and halt at ``ebreak``."""
    _, _, cells = bench.iss_pair(iters=40)
    assert cells == {"kernel": None}
    from repro.iss import superblock
    monkeypatch.setitem(superblock._INT_RR, "xor", "{a} | {b}")
    _, _, cells = bench.iss_pair(iters=40)
    assert cells["kernel"] is not None
    assert cells["kernel"].endswith("differ: x")


def test_iss_pair_compares_the_warm_lines(monkeypatch):
    """A region that drops its loads' touches leaves a different line
    trace from the legacy interpreter's, and the ``iss`` check says
    so."""
    from repro.iss import superblock
    load = superblock._Codegen.load

    def untouched_load(gen, instr):
        touch, gen.touch = gen.touch, gen.touch and not gen.entries
        load(gen, instr)
        gen.touch = touch

    monkeypatch.setattr(superblock._Codegen, "load", untouched_load)
    _, _, cells = bench.iss_pair(iters=40)
    assert cells["kernel"] is not None
    assert cells["kernel"].endswith("differ: warm lines")
