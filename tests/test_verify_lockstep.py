"""Lockstep co-simulation harness tests (repro.verify.lockstep)."""

import pickle

import pytest

from repro.asm import assemble
from repro.core import F4C2, DiAGProcessor, SimulationHang
from repro.baseline import OoOConfig, OoOCore
from repro.faults import FaultSpec
from repro.verify import Divergence, LockstepResult, run_lockstep

# A deterministic mix of ALU / M / memory / branch / FP work.
CLEAN_SRC = """
    la s2, data
    li t0, 0
    li t1, 10
loop:
    mul t2, t0, t0
    sw t2, 0(s2)
    lw t3, 0(s2)
    add t4, t3, t0
    addi s2, s2, 4
    addi t0, t0, 1
    blt t0, t1, loop
    la s4, const
    flw ft0, 0(s4)
    fadd.s ft1, ft0, ft0
    fsw ft1, 4(s4)
    ebreak
    .data
data: .space 64
const: .word 0x40490fdb
fpout: .space 4
"""

# The x0-operand slot bug: sub with rs1 = x0 must compute 0 - t1.
X0_SUB_SRC = """
    la s3, out
    li t1, 7
    sub t0, x0, t1
    sra t2, x0, t1
    sb t1, 0(s3)
    ebreak
    .data
out: .space 4
"""

# The store->load forwarding width bug: lbu of an in-flight sb must
# see only the stored byte, not the full source register.
FORWARD_SRC = """
    la s3, buf
    li t3, 0xffffffe3
    sb t3, 4(s3)
    lbu t1, 4(s3)
    sh t3, 8(s3)
    lhu t2, 8(s3)
    lw t4, 4(s3)
    ebreak
    .data
buf: .space 16
"""

SIMT_SRC = """
    la s2, data
    li s10, 0
    li s9, 1
    li s11, 8
    simt_s s10, s9, s11, 1
    slli t4, s10, 2
    add t4, t4, s2
    lw t5, 0(t4)
    addi t5, t5, 3
    sw t5, 0(t4)
    simt_e s10, s11
    add t6, x0, s11
    ebreak
    .data
data: .word 1, 2, 3, 4, 5, 6, 7, 8
"""

LIVELOCK_SRC = """
    li t0, 5
    j hole
    ebreak
    .data
    hole: .word 0, 0, 0, 0
"""


@pytest.mark.parametrize("machine", ("diag", "ooo"))
@pytest.mark.parametrize("ff", (True, False))
class TestCleanLockstep:
    def test_clean_run(self, machine, ff):
        result = run_lockstep(assemble(CLEAN_SRC), machine=machine,
                              fast_forward=ff)
        assert isinstance(result, LockstepResult)
        assert result.machine == machine
        assert result.halted
        assert result.retired > 60

    def test_retires_what_a_plain_run_retires(self, machine, ff):
        # the oracle observes commits; it must not add or drop one
        program = assemble(CLEAN_SRC)
        if machine == "diag":
            plain = DiAGProcessor(F4C2.with_overrides(fast_forward=ff),
                                  program).run()
        else:
            plain = OoOCore(OoOConfig(fast_forward=ff), program).run()
        locked = run_lockstep(program, machine=machine, fast_forward=ff)
        assert plain.halted and locked.halted
        assert locked.retired == plain.instructions

    def test_x0_operand_regression(self, machine, ff):
        result = run_lockstep(assemble(X0_SUB_SRC), machine=machine,
                              fast_forward=ff)
        assert result.halted

    def test_forwarding_width_regression(self, machine, ff):
        result = run_lockstep(assemble(FORWARD_SRC), machine=machine,
                              fast_forward=ff)
        assert result.halted


class TestSimtCatchUp:
    """The ring commits a pipelined SIMT region en bloc; the oracle
    must defer comparison and re-sync at the next commit."""

    @pytest.mark.parametrize("ff", (True, False))
    def test_pipelined_region_f4c16(self, ff):
        result = run_lockstep(assemble(SIMT_SRC), machine="diag",
                              config="F4C16", fast_forward=ff)
        assert result.halted

    def test_sequential_fallback_f4c2(self):
        # F4C2 executes the region sequentially: plain 1:1 lockstep.
        result = run_lockstep(assemble(SIMT_SRC), machine="diag",
                              config="F4C2")
        assert result.halted

    def test_ooo_runs_simt_sequentially(self):
        result = run_lockstep(assemble(SIMT_SRC), machine="ooo")
        assert result.halted


class TestFaultDivergence:
    """A single injected bit flip must surface as a structured
    Divergence with both register files and commit history attached."""

    @pytest.mark.parametrize("machine,site", (("diag", "lane"),
                                              ("ooo", "regfile")))
    def test_injected_fault_diverges(self, machine, site):
        with pytest.raises(Divergence) as exc_info:
            run_lockstep(assemble(CLEAN_SRC), machine=machine,
                         fault_spec=FaultSpec(site, 12, 5),
                         max_cycles=200_000)
        exc = exc_info.value
        assert exc.machine == machine
        assert exc.kind in ("pc", "reg", "mem", "count", "halt",
                            "iss-error")
        assert exc.history, "history must record recent commits"
        assert exc.engine_x is not None and len(exc.engine_x) == 32
        assert exc.iss_x is not None and len(exc.iss_x) == 32

    def test_reg_divergence_reports_mismatches(self):
        with pytest.raises(Divergence) as exc_info:
            run_lockstep(assemble(CLEAN_SRC), machine="diag",
                         fault_spec=FaultSpec("lane", 12, 5),
                         max_cycles=200_000)
        exc = exc_info.value
        if exc.kind == "reg":
            assert exc.mismatches()
            name, eng, iss = exc.mismatches()[0]
            assert name.startswith(("x", "f")) and eng != iss
        # describe() renders without raising and names the machine
        assert "[diag]" in exc.describe()

    def test_divergence_pickles(self):
        with pytest.raises(Divergence) as exc_info:
            run_lockstep(assemble(CLEAN_SRC), machine="diag",
                         fault_spec=FaultSpec("lane", 12, 5),
                         max_cycles=200_000)
        clone = pickle.loads(pickle.dumps(exc_info.value))
        assert clone.kind == exc_info.value.kind
        assert clone.history == exc_info.value.history
        assert clone.mismatches() == exc_info.value.mismatches()


class TestHangSnapshot:
    """SimulationHang diagnostics carry the architectural snapshot
    (ISSUE 5 satellite: arch_pc + last committed op)."""

    def test_diag_hang_has_arch_snapshot(self):
        cfg = F4C2.with_overrides(watchdog_window=500)
        proc = DiAGProcessor(cfg, assemble(LIVELOCK_SRC))
        with pytest.raises(SimulationHang) as exc_info:
            proc.run(max_cycles=100_000)
        state = exc_info.value.head_state
        assert state["arch_pc"] is not None
        assert state["arch_pc"].startswith("0x")
        # both li and the jump retired before the livelock
        assert state["last_commit"] is not None
        assert "@0x" in state["last_commit"]

    def test_ooo_hang_has_arch_snapshot(self):
        cfg = OoOConfig(watchdog_window=500)
        core = OoOCore(cfg, assemble(LIVELOCK_SRC))
        with pytest.raises(SimulationHang) as exc_info:
            core.run(max_cycles=100_000)
        state = exc_info.value.head_state
        assert state["arch_pc"] is not None
        assert state["last_commit"] is not None

    def test_fault_campaign_classifier_consumes_snapshot(self):
        """A hang trial's TrialResult carries arch_pc/last_commit from
        the watchdog's head-state dump."""
        from repro.faults.campaign import _classify
        from repro.workloads.base import WorkloadInstance

        inst = WorkloadInstance(name="_livelock",
                                program=assemble(LIVELOCK_SRC),
                                setup=lambda memory: None,
                                verify=lambda memory: True)
        cfg = F4C2.with_overrides(watchdog_window=500)
        # an index no site ever reaches: the hang is the program's own
        trial = _classify("diag", cfg, inst.program, inst,
                          FaultSpec("lane", 1 << 30, 0), 100_000,
                          [0] * 32, [0] * 32)
        assert trial.outcome == "hang"
        assert trial.arch_pc is not None
        assert trial.last_commit is not None
        assert trial.retired == 2

    def test_hang_passes_through_lockstep(self):
        with pytest.raises(SimulationHang):
            run_lockstep(
                assemble(LIVELOCK_SRC), machine="diag",
                config=F4C2.with_overrides(watchdog_window=500),
                max_cycles=100_000)


class TestErrorHandling:
    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            run_lockstep(assemble("ebreak\n"), machine="riscv")

    def test_setup_applied_to_both_memories(self):
        src = """
            la s2, inbuf
            lw t0, 0(s2)
            addi t0, t0, 1
            sw t0, 4(s2)
            ebreak
            .data
        inbuf: .space 8
        """
        program = assemble(src)
        addr = program.symbol("inbuf")

        def setup(memory):
            memory.store(addr, 41, 4)

        result = run_lockstep(program, machine="diag", setup=setup)
        assert result.halted
