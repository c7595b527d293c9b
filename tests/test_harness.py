"""Experiment harness: runner caching, pool worker lifetime, table
experiments, rendering."""

import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.harness import (
    clear_cache,
    format_table,
    render_experiment,
    run_baseline,
    run_diag,
    run_table1,
    run_table2,
    run_table3,
)
from repro.harness.experiments import geomean


class TestRunner:
    def setup_method(self):
        clear_cache()

    def test_run_diag_record(self):
        record = run_diag("hotspot", config="F4C2", scale=0.25)
        assert record.machine == "diag"
        assert record.verified
        assert record.cycles > 0
        assert record.ipc > 0
        assert 0.99 <= sum(record.energy_breakdown.values()) <= 1.01

    def test_run_baseline_record(self):
        record = run_baseline("hotspot", scale=0.25)
        assert record.machine == "ooo"
        assert record.verified
        assert record.energy_j > 0

    def test_caching_returns_same_object(self):
        a = run_diag("hotspot", config="F4C2", scale=0.25)
        b = run_diag("hotspot", config="F4C2", scale=0.25)
        assert a is b
        clear_cache()
        c = run_diag("hotspot", config="F4C2", scale=0.25)
        assert c is not a

    def test_overrides_change_cache_key(self):
        a = run_diag("hotspot", config="F4C2", scale=0.25)
        b = run_diag("hotspot", config="F4C2", scale=0.25,
                     config_overrides={"enable_reuse": False})
        assert a is not b

    def test_simt_ignored_for_incapable(self):
        record = run_diag("bfs", config="F4C2", scale=0.2, simt=True)
        assert not record.simt

    def test_threads_clamped_for_sequential_workloads(self):
        record = run_baseline("mcf", scale=0.2, threads=12)
        assert record.threads == 1


    def test_effective_threads_share_a_cache_slot(self):
        # lud is not MT-capable: a raw threads=4 call is the threads=1
        # run, so a canonical spec's prewarm serves the raw caller
        a = run_diag("lud", config="F4C2", scale=0.25, threads=4,
                     simt=True)
        b = run_diag("lud", config="F4C2", scale=0.25)
        assert a is b
        clear_cache()


#: builds a pool (on the main thread or another one) and keeps it,
#: prints its worker pids, then SIGKILLs itself: no cleanup runs in
#: the owner
ORPHAN_SCRIPT = textwrap.dedent("""
    import os, signal, sys, threading
    from repro.harness.parallel import _pool

    pools = []

    def build():
        pools.append(_pool(2))
        pools[0].submit(os.getpid).result()
        print(*pools[0]._processes, flush=True)

    if sys.argv[1] == "thread":
        worker = threading.Thread(target=build)
        worker.start()
        worker.join()
    else:
        build()
    os.kill(os.getpid(), signal.SIGKILL)
""")


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in "ZX"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("where", ["main", "thread"])
def test_pool_workers_die_with_their_owner(where):
    """A SIGKILLed owner's workers exit instead of blocking on the call
    queue, whether the pool was forked on the main thread or on
    another one (the service's executor threads)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [os.path.abspath("src"), os.environ.get("PYTHONPATH")]
        if p))
    # the orphans would hold a captured stdout open: read one line
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT, where],
                            stdout=subprocess.PIPE, text=True, env=env)
    with proc:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        proc.wait(timeout=60)
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in pids if _running(pid)]
    for pid in alive:
        os.kill(pid, 9)
    assert not alive


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([4.0, 0.0]) == pytest.approx(4.0)


class TestTableExperiments:
    def test_table1_reuse_evidence(self):
        result = run_table1(scale=0.25)
        assert result["verified"]
        # with reuse, fetched lines per instruction collapse
        assert result["fetch_per_instr_with_reuse"] \
            < result["fetch_per_instr_without_reuse"]
        assert result["reuse_hits"] > 0
        assert len(result["rows"]) == 9

    def test_table2_matches_paper(self):
        rows = run_table2()["rows"]
        assert rows["F4C32"]["total_pes"] == 512
        assert rows["F4C16"]["total_pes"] == 256
        assert rows["F4C2"]["total_pes"] == 32
        assert rows["I4C2"]["isa"] == "RV32I"
        assert rows["F4C32"]["l2_mb"] == 4

    def test_table3_area(self):
        result = run_table3()
        assert result["top_mm2"] == pytest.approx(
            result["paper_top_mm2"], rel=0.01)
        assert result["peak_power_w"] == pytest.approx(
            result["paper_peak_power_w"], rel=0.01)


class TestRendering:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_render_table_experiments(self):
        assert "Fetch" in render_experiment("table1",
                                            run_table1(scale=0.25))
        assert "F4C32" in render_experiment("table2", run_table2())
        assert "REGLANE" in render_experiment("table3", run_table3())

    def test_render_unknown_falls_back(self):
        assert render_experiment("nope", {"x": 1}) == repr({"x": 1})
