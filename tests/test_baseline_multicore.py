"""Multicore baseline: SPMD partitioning, shared L2, power model."""

import pytest

from repro.asm import assemble
from repro.baseline import (
    BaselinePowerModel,
    MulticoreCPU,
    OoOConfig,
    OoOCore,
    run_multicore,
    run_ooo,
)
from repro.core import F4C2, DiAGProcessor
from repro.memory.cache import NullCache

SPMD = """
main:
    li   t0, 10
    mul  t0, t0, a0
    la   t1, out
    slli t2, a0, 2
    add  t1, t1, t2
    sw   t0, 0(t1)
    ebreak
.data
out: .space 64
"""


class TestMulticore:
    def test_spmd_results(self):
        result = run_multicore(assemble(SPMD), 4)
        out = result.cpu.memory.snapshot_words(
            result.cpu.program.symbol("out"), 4)
        assert out == [0, 10, 20, 30]

    def test_shared_l2_identity(self):
        cpu = MulticoreCPU(OoOConfig(), assemble(SPMD), 3)
        l2s = {id(core.hierarchy.l2) for core in cpu.cores}
        assert len(l2s) == 1
        l1ds = {id(core.hierarchy.l1d) for core in cpu.cores}
        assert len(l1ds) == 3

    def test_no_l2_config(self):
        # l2_size == 0 shares the first hierarchy's NullCache: a one-core
        # CPU matches a bare core, and every core sees the one L2
        cfg = OoOConfig(l2_size=0)
        program = assemble(SPMD)
        result = MulticoreCPU(cfg, program, 1).run()
        alone = OoOCore(cfg, program).run()
        assert result.halted
        assert (result.cycles, result.instructions) \
            == (alone.cycles, alone.instructions)
        cpu = MulticoreCPU(cfg, program, 3)
        assert cpu.run().halted
        l2s = {id(core.hierarchy.l2) for core in cpu.cores}
        assert len(l2s) == 1
        assert isinstance(cpu.cores[0].hierarchy.l2, NullCache)

    def test_zero_threads_rejected(self):
        # the parent built an empty group whose run "halted" in 0 cycles
        with pytest.raises(ValueError):
            MulticoreCPU(OoOConfig(), assemble(SPMD), 0)
        with pytest.raises(ValueError):
            DiAGProcessor(F4C2, assemble(SPMD), num_threads=0)

    def test_shared_memory(self):
        cpu = MulticoreCPU(OoOConfig(), assemble(SPMD), 2)
        mems = {id(core.hierarchy.memory) for core in cpu.cores}
        assert len(mems) == 1

    def test_cycles_is_max_core_cycles(self):
        program = assemble("""
        li t0, 0
        li t1, 10
        beqz a0, go
        li t1, 200
        go:
        loop: addi t0, t0, 1
        blt t0, t1, loop
        ebreak
        """)
        result = run_multicore(program, 2)
        assert result.cycles == max(s.cycles for s in result.thread_stats)
        assert result.thread_stats[1].cycles > result.thread_stats[0].cycles

    def test_stats_aggregate(self):
        result = run_multicore(assemble(SPMD), 4)
        assert result.stats.retired \
            == sum(s.retired for s in result.thread_stats)
        assert result.instructions == result.stats.retired

    def test_private_stacks(self):
        cpu = MulticoreCPU(OoOConfig(), assemble(SPMD), 3)
        stacks = {core.arch.x[2] for core in cpu.cores}
        assert len(stacks) == 3

    def test_thread_regs(self):
        program = assemble("""
        la t0, out
        sw a3, 0(t0)
        ebreak
        .data
        out: .word 0
        """)
        result = run_multicore(program, 1,
                               thread_regs=[{13: 99}])
        assert result.cpu.memory.read_word(
            program.symbol("out")) == 99


class TestPowerModel:
    def _report(self, threads=1):
        if threads == 1:
            result = run_ooo(assemble(SPMD))
            hierarchies = [result.core.hierarchy]
        else:
            result = run_multicore(assemble(SPMD), threads)
            hierarchies = [c.hierarchy for c in result.cpu.cores]
        model = BaselinePowerModel(OoOConfig(), num_cores=threads)
        return model.energy_report(result, hierarchies)

    def test_breakdown_sums_to_one(self):
        report = self._report()
        assert sum(report.breakdown().values()) == pytest.approx(1.0)

    def test_frontend_dominates_fus(self):
        # the paper's core claim: OoO control >> functional units
        report = self._report()
        assert report.frontend_j + report.window_j > 3 * report.fu_j

    def test_more_cores_more_static(self):
        single = self._report(1)
        quad = self._report(4)
        assert quad.static_j > single.static_j

    def test_shared_l2_counted_once(self):
        result = run_multicore(assemble(SPMD), 4)
        hierarchies = [c.hierarchy for c in result.cpu.cores]
        model = BaselinePowerModel(OoOConfig(), num_cores=4)
        report = model.energy_report(result, hierarchies)
        # counting the same L2 four times would inflate memory energy;
        # recompute with a single hierarchy and compare L2 share
        single = model.energy_report(result, hierarchies[:1])
        # l1 energy differs (4 L1s vs 1) but L2/DRAM part is shared, so
        # full-list memory energy is less than 4x the single-hierarchy
        assert report.memory_j < 4 * max(single.memory_j, 1e-18)

    def test_efficiency_positive(self):
        report = self._report()
        assert report.efficiency > 0
