"""Fault injection, hang watchdogs, and harness degradation."""

import pytest

from repro.asm import assemble
from repro.baseline import OoOConfig, OoOCore
from repro.core import F4C2, DiAGProcessor, SimulationHang
from repro.faults import (
    CampaignReport,
    FaultInjector,
    FaultSpec,
    plan_campaign,
    run_campaign,
)
from repro.harness import clear_cache, run_diag
from repro.harness.experiments import _single_thread_suite
from repro.harness.sweeps import sweep_lsu_depth
from repro.memory import MainMemory
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.registry import RODINIA_WORKLOADS

# Jumps into a region of zero words: zero never decodes, so the window
# head can never arm and the engines spin without retiring anything.
LIVELOCK_SRC = """
    j hole
    ebreak
    .data
    hole: .word 0, 0, 0, 0
"""

TRIVIAL_SRC = """
    li t0, 42
    ebreak
"""


class _FakeWorkload(Workload):
    SUITE = "rodinia"
    MT_CAPABLE = False
    SRC = TRIVIAL_SRC

    def build(self, scale=1.0, threads=1, simt=False, seed=1234):
        return WorkloadInstance(name=self.NAME,
                                program=assemble(self.SRC),
                                setup=lambda memory: None,
                                verify=self.check)

    @staticmethod
    def check(memory):
        return True


class _Livelock(_FakeWorkload):
    NAME = "_livelock"
    SRC = LIVELOCK_SRC


class _Broken(_FakeWorkload):
    NAME = "_broken"

    @staticmethod
    def check(memory):
        raise ValueError("reference outputs unavailable")


@pytest.fixture
def fake_workloads():
    RODINIA_WORKLOADS[_Livelock.NAME] = _Livelock
    RODINIA_WORKLOADS[_Broken.NAME] = _Broken
    clear_cache()
    yield
    RODINIA_WORKLOADS.pop(_Livelock.NAME, None)
    RODINIA_WORKLOADS.pop(_Broken.NAME, None)
    clear_cache()


# ===================================================================
# Watchdog
# ===================================================================

class TestWatchdog:
    def test_diag_livelock_raises_hang(self):
        program = assemble(LIVELOCK_SRC)
        cfg = F4C2.with_overrides(watchdog_window=500)
        proc = DiAGProcessor(cfg, program)
        with pytest.raises(SimulationHang) as exc_info:
            proc.run(max_cycles=1_000_000)
        exc = exc_info.value
        assert exc.machine == "diag"
        assert exc.window == 500
        # fires one quiet window after the last retirement, nowhere
        # near the cycle budget
        assert exc.cycle < 2000
        assert exc.cycle - exc.last_progress_cycle >= 500
        assert "retired" in exc.head_state
        assert "next_fetch_pc" in exc.head_state
        assert "no retirement" in str(exc)

    def test_ooo_livelock_raises_hang(self):
        program = assemble(LIVELOCK_SRC)
        cfg = OoOConfig(watchdog_window=500)
        core = OoOCore(cfg, program)
        with pytest.raises(SimulationHang) as exc_info:
            core.run(max_cycles=1_000_000)
        exc = exc_info.value
        assert exc.machine == "ooo"
        assert exc.cycle < 2000
        assert "fetch_pc" in exc.head_state

    def test_disabled_watchdog_runs_to_budget(self):
        program = assemble(LIVELOCK_SRC)
        cfg = F4C2.with_overrides(watchdog_window=0)
        proc = DiAGProcessor(cfg, program)
        result = proc.run(max_cycles=3000)
        assert not result.halted
        assert result.timed_out
        assert result.cycles >= 3000

    def test_clean_run_untouched_by_watchdog(self):
        program = assemble("""
        li t0, 0
        li t1, 40
        loop:
            addi t0, t0, 1
            blt t0, t1, loop
        ebreak
        """)
        cfg = F4C2.with_overrides(watchdog_window=500)
        proc = DiAGProcessor(cfg, program)
        result = proc.run()
        assert result.halted
        assert not result.timed_out


# ===================================================================
# Fast-forward gating
# ===================================================================

class TestFastForwardGating:
    """Per-cycle observers (fault hooks, event tracers) and a disabled
    watchdog must force event-driven cycle skipping off, so campaigns
    and traces see every stepped cycle (docs/PERFORMANCE.md)."""

    SRC = """
        li t0, 0
        li t1, 50
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        ebreak
    """

    def test_observers_force_skip_off(self):
        program = assemble(self.SRC)
        assert DiAGProcessor(F4C2, program).rings[0].ff_setup()

        hooked = DiAGProcessor(F4C2, program).rings[0]
        FaultInjector(spec=None).attach(hooked, hooked.hierarchy)
        assert not hooked.ff_setup()

        from repro.obs import EventTracer
        traced = DiAGProcessor(F4C2, program, tracer=EventTracer())
        assert not traced.rings[0].ff_setup()

        no_dog = F4C2.with_overrides(watchdog_window=0)
        assert not DiAGProcessor(no_dog, program).rings[0].ff_setup()

        off = F4C2.with_overrides(fast_forward=False)
        assert not DiAGProcessor(off, program).rings[0].ff_setup()

        core = OoOCore(OoOConfig(), program)
        assert core.ff_setup()
        FaultInjector(spec=None).attach(core, core.hierarchy)
        assert not core.ff_setup()

    def test_gated_run_takes_no_skips_and_matches(self):
        from repro.obs import EventTracer

        program = assemble(self.SRC)
        plain_proc = DiAGProcessor(F4C2, program)
        plain = plain_proc.run()
        traced_proc = DiAGProcessor(F4C2, program, tracer=EventTracer())
        traced = traced_proc.run()
        assert plain.halted and traced.halted
        assert sum(r.ff_skips for r in plain_proc.rings) > 0
        assert sum(r.ff_skips for r in traced_proc.rings) == 0
        assert traced.cycles == plain.cycles
        assert traced.instructions == plain.instructions


# ===================================================================
# Injector
# ===================================================================

class TestFaultInjector:
    def test_value_flips_exactly_once(self):
        injector = FaultInjector(FaultSpec("pe", 2, 4))
        values = [injector.value("pe", 100) for __ in range(5)]
        assert values == [100, 100, 100 ^ (1 << 4), 100, 100]
        assert injector.counts["pe"] == 5
        event = injector.event
        assert (event.site, event.index, event.bit) == ("pe", 2, 4)
        assert event.before == 100
        assert event.after == 100 ^ (1 << 4)

    def test_sites_count_independently(self):
        injector = FaultInjector(FaultSpec("lane", 1, 0))
        injector.value("pe", 7)
        injector.value("lane", 7)   # lane #0: not yet
        assert injector.event is None
        assert injector.value("lane", 7) == 6  # lane #1: bit 0 flips
        assert injector.counts == {"pe": 1, "lane": 2}

    def test_profiling_injector_never_flips(self):
        injector = FaultInjector(spec=None)
        assert injector.value("pe", 5) == 5
        injector.cache_access(0x100)
        assert injector.event is None
        assert injector.counts == {"pe": 1, "cache": 1}

    def test_cache_access_corrupts_backing_word(self):
        memory = MainMemory()
        memory.store(0x1000, 0xF0, 4)
        injector = FaultInjector(FaultSpec("cache", 1, 3), memory=memory)
        injector.cache_access(0x1000)          # access #0: no flip
        assert memory.read_word(0x1000) == 0xF0
        injector.cache_access(0x1002)          # access #1: word-aligned
        assert memory.read_word(0x1000) == 0xF0 ^ (1 << 3)
        assert injector.event.addr == 0x1000

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("alu", 0, 0)
        with pytest.raises(ValueError):
            FaultSpec("pe", 0, 32)


# ===================================================================
# Campaigns
# ===================================================================

class TestCampaign:
    def test_plan_is_deterministic_and_valid(self):
        population = {"pe": 40, "lane": 25, "cache": 10}
        a = plan_campaign(population, ("pe", "lane", "cache"), 12, seed=9)
        b = plan_campaign(population, ("pe", "lane", "cache"), 12, seed=9)
        assert a == b
        for spec in a:
            assert 0 <= spec.index < population[spec.site]
            assert 0 <= spec.bit < 32
        c = plan_campaign(population, ("pe", "lane", "cache"), 12, seed=10)
        assert a != c

    def test_same_seed_campaigns_bit_identical(self):
        kwargs = dict(machine="diag", config="F4C2", scale=0.2,
                      trials=6, seed=42)
        first = run_campaign("nn", **kwargs)
        second = run_campaign("nn", **kwargs)
        assert first.outcome_sequence() == second.outcome_sequence()
        assert [t.spec for t in first.trials] == \
            [t.spec for t in second.trials]
        assert first.counts == second.counts
        assert first.clean_cycles == second.clean_cycles

    def test_diag_report_shape(self):
        report = run_campaign("nn", machine="diag", config="F4C2",
                              scale=0.2, trials=5, seed=1)
        assert isinstance(report, CampaignReport)
        assert len(report.trials) == 5
        assert sum(report.counts.values()) == 5
        assert all(p >= 0 for p in report.site_population.values())
        assert report.clean_cycles > 0
        text = report.summary()
        for outcome in ("masked", "sdc", "detected", "hang", "timed_out"):
            assert outcome in text

    def test_ooo_campaign_runs(self):
        report = run_campaign("nn", machine="ooo", scale=0.2,
                              trials=5, seed=3)
        assert len(report.trials) == 5
        assert set(report.site_population) == {"rob", "regfile", "cache"}

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            run_campaign("nn", machine="vliw")


# ===================================================================
# Harness degradation
# ===================================================================

class TestHarnessDegradation:
    def test_hang_captured_as_status(self, fake_workloads):
        record = run_diag("_livelock", config="F4C2",
                          config_overrides={"watchdog_window": 500})
        assert record.status == "hang"
        assert record.failed
        assert "no retirement" in record.error
        assert 0 < record.cycles < 2000

    def test_raising_verifier_captured_as_error(self, fake_workloads):
        record = run_diag("_broken", config="F4C2")
        assert record.status == "error"
        assert "ValueError" in record.error
        assert not record.verified

    def test_failed_records_never_cached(self, fake_workloads):
        a = run_diag("_broken", config="F4C2")
        b = run_diag("_broken", config="F4C2")
        assert a is not b

    def test_raising_verifier_does_not_abort_suite(self, fake_workloads):
        result = _single_thread_suite(["_broken"], scale=0.2)
        row = result["benchmarks"]["_broken"]
        for config in ("F4C2", "F4C16", "F4C32"):
            assert row[config]["status"] == "error"
            assert row[config]["speedup"] == 0
        assert result["failures"]
        assert all(f["status"] == "error" for f in result["failures"])

    def test_sweep_reports_failures(self, fake_workloads):
        result = sweep_lsu_depth("_broken", scale=0.2, depths=(1, 2))
        assert set(result.failures()) == {1, 2}
        assert "error" in result.render()


# ===================================================================
# Cache hygiene
# ===================================================================

class TestRunCache:
    def setup_method(self):
        clear_cache()

    def test_truncated_run_not_cached(self):
        full = run_diag("nn", config="F4C2", scale=0.2)
        assert full.status == "ok"
        short = run_diag("nn", config="F4C2", scale=0.2, max_cycles=10)
        assert short.status == "timed_out"
        assert short is not full
        # a truncated attempt must not poison either budget's cache slot
        again_short = run_diag("nn", config="F4C2", scale=0.2,
                               max_cycles=10)
        assert again_short is not short
        again_full = run_diag("nn", config="F4C2", scale=0.2)
        assert again_full is full

    def test_cli_surfaces_timed_out(self, capsys):
        from repro.cli import main
        assert main(["run", "nn", "--scale", "0.2",
                     "--max-cycles", "10"]) == 1
        out = capsys.readouterr().out
        assert "status=timed_out" in out
        assert "speedup" not in out

    def test_lru_bound(self, monkeypatch):
        from repro.harness import diskcache
        monkeypatch.setattr(diskcache.memory, "max_entries", 2)
        a = run_diag("nn", config="F4C2", scale=0.2)
        run_diag("nn", config="F4C2", scale=0.21)
        run_diag("nn", config="F4C2", scale=0.22)
        assert len(diskcache.memory) == 2
        # the oldest entry was evicted, so this is a fresh run
        assert run_diag("nn", config="F4C2", scale=0.2) is not a


# ===================================================================
# CLI
# ===================================================================

class TestFaultsCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["faults"])
        assert args.workload == "nn"
        assert args.machine == "diag"
        assert args.trials == 20
        assert args.seed == 0

    def test_faults_command_deterministic(self, capsys):
        from repro.cli import main
        argv = ["faults", "nn", "--config", "F4C2", "--scale", "0.2",
                "--trials", "4", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "fault campaign" in first
        assert main(argv) == 0
        assert capsys.readouterr().out == first


# ===================================================================
# Pooled campaigns (docs/PARALLEL.md)
# ===================================================================

class TestPooledCampaign:
    ARGS = dict(workload="nn", machine="diag", config="F4C2",
                scale=0.2, trials=6, seed=42)

    def test_pooled_matches_serial(self):
        serial = run_campaign(jobs=1, **self.ARGS)
        pooled = run_campaign(jobs=2, **self.ARGS)
        assert pooled.outcome_sequence() == serial.outcome_sequence()
        assert pooled.counts == serial.counts
        assert [t.spec for t in pooled.trials] \
            == [t.spec for t in serial.trials]
        assert pooled.clean_cycles == serial.clean_cycles
        assert pooled.site_population == serial.site_population

    def test_pooled_ooo_matches_serial(self):
        args = dict(self.ARGS, machine="ooo", trials=4)
        serial = run_campaign(jobs=1, **args)
        pooled = run_campaign(jobs=2, **args)
        assert pooled.outcome_sequence() == serial.outcome_sequence()
        assert pooled.counts == serial.counts

    def test_faults_stay_isolated_in_workers(self):
        """An injected fault lives and dies inside its worker process:
        a fresh run after a pooled campaign is bit-identical to one
        taken before it."""
        from repro.harness import clear_cache, run_diag
        clear_cache()
        before = run_diag("nn", config="F4C2", scale=0.2)
        run_campaign(jobs=2, **self.ARGS)
        clear_cache()
        after = run_diag("nn", config="F4C2", scale=0.2)
        assert after.verified and after.status == "ok"
        assert after.cycles == before.cycles
        assert after.instructions == before.instructions

    def test_chunking_preserves_order(self):
        from repro.faults.campaign import _chunked
        for jobs in (1, 2, 3, 4, 7):
            for n in (1, 2, 5, 6, 7):
                items = list(range(n))
                chunks = _chunked(items, jobs)
                assert [x for c in chunks for x in c] == items
                assert len(chunks) <= jobs
                assert all(c for c in chunks)

    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        import warnings as warnings_mod
        from repro.harness import parallel

        def broken_pool(max_workers):
            raise OSError("no fork for you")

        monkeypatch.setattr(parallel, "_pool", broken_pool)
        serial = run_campaign(jobs=1, **self.ARGS)
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            degraded = run_campaign(jobs=2, **self.ARGS)
        assert any("running serially" in str(w.message) for w in caught)
        assert degraded.outcome_sequence() == serial.outcome_sequence()
