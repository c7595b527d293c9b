"""Last-mile integration: CLI sweep, multi-ring energy, pipeview on
multi-ring runs, and the run_program convenience wrapper."""

import pytest

from repro.asm import assemble
from repro.cli import main
from repro.core import DiAGProcessor, EnergyModel, F4C2, run_program
from repro.harness.pipeview import PipeTracer

SPMD = """
main:
    li   t0, 50
    mul  t0, t0, a0
    li   t1, 0
loop:
    addi t1, t1, 1
    blt  t1, t0, loop
    la   t2, out
    slli t3, a0, 2
    add  t2, t2, t3
    sw   t1, 0(t2)
    ebreak
.data
out: .space 32
"""


class TestCLISweep:
    def test_sweep_clusters(self, capsys):
        code = main(["sweep", "clusters", "hotspot", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep over clusters" in out
        assert "uJ" in out

    def test_sweep_bad_knob(self):
        with pytest.raises(SystemExit):
            main(["sweep", "frequency", "hotspot"])


class TestMultiRingEnergy:
    def test_energy_accounts_all_rings(self):
        program = assemble(SPMD)
        single = DiAGProcessor(F4C2, program, num_threads=1)
        r1 = single.run()
        e1 = EnergyModel(F4C2).energy_report(r1, single.hierarchy)

        quad = DiAGProcessor(F4C2, program, num_threads=4)
        r4 = quad.run()
        e4 = EnergyModel(F4C2).energy_report(r4, quad.hierarchy)
        # four rings burn more lane/control energy than one
        assert e4.lanes_j > e1.lanes_j
        assert e4.control_j > e1.control_j
        assert e4.total_j > e1.total_j

    def test_resident_cluster_cycles_merge(self):
        program = assemble(SPMD)
        proc = DiAGProcessor(F4C2, program, num_threads=3)
        result = proc.run()
        per_ring = sum(s.resident_cluster_cycles
                       for s in result.thread_stats)
        assert result.stats.resident_cluster_cycles == per_ring


class TestPipeviewMultiRing:
    def test_trace_one_ring_of_many(self):
        program = assemble(SPMD)
        proc = DiAGProcessor(F4C2, program, num_threads=2)
        tracer = PipeTracer.attach(proc.rings[1])
        assert proc.run().halted
        assert tracer.lives
        chart = tracer.render(limit=10)
        assert "cycles" in chart


class TestRunProgram:
    def test_result_carries_processor(self):
        program = assemble(SPMD)
        result = run_program(program, F4C2, num_threads=2)
        assert result.halted
        assert result.processor.memory.read_word(
            program.symbol("out") + 4) == 50

    def test_max_cycles_respected(self):
        program = assemble("spin: j spin\n")
        result = run_program(program, F4C2, max_cycles=500)
        assert not result.halted
        assert result.cycles <= 501
