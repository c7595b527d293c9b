"""Fast-forward (event-driven cycle skipping) equivalence contract.

``fast_forward`` is a host-speed optimisation only: every simulated
outcome — final stats document, cycle count, energy, and even the
cycle at which the hang watchdog fires — must be byte-identical with
skipping on or off. See docs/PERFORMANCE.md for the invariant.
"""

import pytest

from repro.asm import assemble
from repro.baseline import OoOConfig, OoOCore
from repro.core import F4C2, DiAGProcessor, SimulationHang, group
from repro.harness import run_baseline, run_diag
from repro.obs import deterministic_view

WORKLOADS = ("nn", "bfs", "hotspot")

# Same shape as tests/test_faults.py: jumps into zero words, which
# never decode, so the machine spins without retiring anything.
LIVELOCK_SRC = """
    j hole
    ebreak
    .data
    hole: .word 0, 0, 0, 0
"""


def _assert_equivalent(on, off):
    assert on.status == off.status
    assert on.cycles == off.cycles
    assert on.instructions == off.instructions
    assert on.energy_j == off.energy_j
    assert deterministic_view(on.stats) == deterministic_view(off.stats)


@pytest.mark.parametrize("simt", (False, True), ids=("seq", "simt"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_diag_ff_matches_ticked(workload, simt):
    on = run_diag(workload, config="F4C2", scale=0.5, simt=simt)
    off = run_diag(workload, config="F4C2", scale=0.5, simt=simt,
                   config_overrides={"fast_forward": False})
    assert on.status == "ok" and on.verified
    _assert_equivalent(on, off)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ooo_ff_matches_ticked(workload):
    on = run_baseline(workload, scale=0.5)
    off = run_baseline(workload, scale=0.5,
                       config=OoOConfig(fast_forward=False))
    assert on.status == "ok" and on.verified
    _assert_equivalent(on, off)


class TestSkipsActuallyHappen:
    """Guard against the optimisation silently disabling itself."""

    SRC = """
        li t0, 0
        li t1, 200
    loop:
        lw t2, 0(s0)
        addi t0, t0, 1
        blt t0, t1, loop
        ebreak
        .data
        buf: .word 7
    """

    def test_diag_ring_skips(self):
        program = assemble("la s0, buf\n" + self.SRC)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        assert result.halted
        assert sum(r.ff_skipped_cycles for r in proc.rings) > 0

    def test_ooo_core_skips(self):
        program = assemble("la s0, buf\n" + self.SRC)
        core = OoOCore(OoOConfig(), program)
        result = core.run()
        assert result.halted
        assert core.ff_skipped_cycles > 0


class TestHangFiresAtIdenticalCycle:
    """The watchdog deadline caps every skip, so a genuine livelock is
    reported at the same simulated cycle with fast-forward on or off."""

    def _diag_hang(self, fast_forward):
        cfg = F4C2.with_overrides(watchdog_window=500,
                                  fast_forward=fast_forward)
        proc = DiAGProcessor(cfg, assemble(LIVELOCK_SRC))
        with pytest.raises(SimulationHang) as exc_info:
            proc.run(max_cycles=1_000_000)
        return exc_info.value

    def _ooo_hang(self, fast_forward):
        cfg = OoOConfig(watchdog_window=500, fast_forward=fast_forward)
        core = OoOCore(cfg, assemble(LIVELOCK_SRC))
        with pytest.raises(SimulationHang) as exc_info:
            core.run(max_cycles=1_000_000)
        return exc_info.value

    def test_diag(self):
        on, off = self._diag_hang(True), self._diag_hang(False)
        assert on.cycle == off.cycle
        assert on.last_progress_cycle == off.last_progress_cycle

    def test_ooo(self):
        on, off = self._ooo_hang(True), self._ooo_hang(False)
        assert on.cycle == off.cycle
        assert on.last_progress_cycle == off.last_progress_cycle


class TestDeadlineCap:
    """A skip stops at ``watchdog.deadline() - 1`` and, like every
    skip, is only taken when it still spans ``FF_MIN_SPAN`` cycles."""

    BUDGET = 1_000_000

    def _check(self, engine, step):
        for _ in range(400):
            step()
            if group.ff_target([engine], self.BUDGET) is not None:
                break
        else:
            pytest.fail("the livelock never became quiescent")
        now, span = engine.cycle, group.FF_MIN_SPAN
        assert group.ff_target([engine], self.BUDGET) > now + span
        watchdog = engine.watchdog
        marker = engine.stats.retired
        watchdog.feed(now + span + 1 - watchdog.window, marker)
        assert group.ff_target([engine], self.BUDGET) == now + span
        watchdog.feed(now + span - watchdog.window, marker)
        assert group.ff_target([engine], self.BUDGET) is None

    def test_diag(self):
        cfg = F4C2.with_overrides(watchdog_window=500)
        ring = DiAGProcessor(cfg, assemble(LIVELOCK_SRC)).rings[0]
        assert group.ff_setup(ring)

        def step():
            ring.step()
            ring.check_watchdog()
        self._check(ring, step)

    def test_ooo(self):
        core = OoOCore(OoOConfig(watchdog_window=500),
                       assemble(LIVELOCK_SRC))
        assert group.ff_setup(core)

        def step():
            core.step()
            core.check_watchdog()
        self._check(core, step)
