"""DiAGProcessor: multi-ring SPMD execution and result aggregation."""

from repro.asm import assemble
from repro.core import DiAGProcessor, F4C16, F4C2, run_program
from repro.iss import ISS

SPMD = """
main:
    # out[tid] = tid * 100 + nthreads
    li   t0, 100
    mul  t0, t0, a0
    add  t0, t0, a1
    la   t1, out
    slli t2, a0, 2
    add  t1, t1, t2
    sw   t0, 0(t1)
    ebreak
.data
out: .space 64
"""


class TestMultiRing:
    def test_spmd_registers_seeded(self):
        program = assemble(SPMD)
        proc = DiAGProcessor(F4C2, program, num_threads=4)
        result = proc.run()
        assert result.halted
        out = program.symbol("out")
        assert proc.memory.snapshot_words(out, 4) \
            == [0 * 100 + 4, 104, 204, 304]

    def test_private_stacks(self):
        program = assemble(SPMD)
        proc = DiAGProcessor(F4C2, program, num_threads=3)
        stacks = [ring.arch.x[2] for ring in proc.rings]
        assert len(set(stacks)) == 3
        assert stacks[0] - stacks[1] \
            == DiAGProcessor.STACK_BYTES_PER_THREAD

    def test_thread_regs_override(self):
        program = assemble("""
        la t0, out
        sw a2, 0(t0)
        ebreak
        .data
        out: .word 0
        """)
        proc = DiAGProcessor(F4C2, program, num_threads=1,
                             thread_regs=[{12: 0xBEEF}])
        proc.run()
        assert proc.memory.read_word(program.symbol("out")) == 0xBEEF

    def test_stats_merged_across_rings(self):
        program = assemble(SPMD)
        proc = DiAGProcessor(F4C2, program, num_threads=4)
        result = proc.run()
        per_ring = sum(s.retired for s in result.thread_stats)
        assert result.stats.retired == per_ring
        assert result.cycles == max(r.cycle for r in proc.rings)

    def test_rings_share_memory_but_not_registers(self):
        program = assemble(SPMD)
        proc = DiAGProcessor(F4C2, program, num_threads=2)
        proc.run()
        assert proc.rings[0].arch is not proc.rings[1].arch
        assert proc.rings[0].hierarchy is proc.rings[1].hierarchy

    def test_run_program_helper(self):
        program = assemble(SPMD)
        result = run_program(program, F4C2, num_threads=2)
        assert result.halted
        assert result.processor.memory.read_word(
            program.symbol("out")) == 2

    def test_uneven_halting(self):
        # thread 1 runs a much longer loop than thread 0
        program = assemble("""
        li t0, 0
        li t1, 10
        beqz a0, short
        li t1, 300
        short:
        loop:
            addi t0, t0, 1
            blt t0, t1, loop
        ebreak
        """)
        proc = DiAGProcessor(F4C2, program, num_threads=2)
        result = proc.run()
        assert result.halted
        assert proc.rings[1].cycle >= proc.rings[0].cycle


class TestSimtWithNonzeroStart:
    """Regression: rc starting above zero (SPMD slices) must work in
    both the pipelined path and the sequential fallback."""

    SRC = """
    la   a2, out
    li   t2, 5          # rc starts at 5, not 0
    li   t3, 1
    li   t4, 13
    simt_s t2, t3, t4, 1
    slli t0, t2, 2
    add  t0, t0, a2
    sw   t2, 0(t0)
    simt_e t2, t4
    ebreak
    .data
    out: .space 64
    """

    def expected(self):
        out = [0] * 16
        for i in range(5, 13):
            out[i] = i
        return out

    def test_pipelined(self):
        program = assemble(self.SRC)
        proc = DiAGProcessor(F4C16, program)
        assert proc.run().halted
        assert proc.memory.snapshot_words(program.symbol("out"), 16) \
            == self.expected()

    def test_sequential_fallback(self):
        program = assemble(self.SRC)
        cfg = F4C16.with_overrides(enable_simt=False)
        proc = DiAGProcessor(cfg, program)
        assert proc.run().halted
        assert proc.memory.snapshot_words(program.symbol("out"), 16) \
            == self.expected()

    def test_iss_agrees(self):
        program = assemble(self.SRC)
        iss = ISS(program)
        iss.run()
        assert iss.memory.snapshot_words(program.symbol("out"), 16) \
            == self.expected()
