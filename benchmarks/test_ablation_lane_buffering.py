"""Ablation — register-lane buffering interval (paper Section 6.1.2).

"Timing is met at 1.0 GHz for a processing cluster with register lanes
buffered every 8 PEs ... we insert a full register buffer on all lanes
between PE 8 and 9." The buffer spacing is a latency/frequency
trade-off: more buffers mean more pipeline cycles for a value to cross
the cluster (but would allow a faster clock, which the cycle model
holds fixed). This bench sweeps the spacing on a dependence-chain
kernel to expose the propagation cost.
"""

from conftest import run_once
from repro.asm import assemble
from repro.core import DiAGProcessor, F4C16
from repro.core.lanes import LaneGeometry

# a long serial dependence chain spanning many PEs per iteration
CHAIN = """
li s0, 0
li s1, 128
loop:
""" + "\n".join("    addi t0, t0, 1" for __ in range(14)) + """
    addi s0, s0, 1
    blt s0, s1, loop
ebreak
"""


def _run_sweep():
    program = assemble(CHAIN)
    results = {}
    for spacing in (4, 8, 16):
        cfg = F4C16.with_overrides(lane_buffer_every=spacing)
        result = DiAGProcessor(cfg, program).run()
        assert result.halted
        results[spacing] = result.cycles
    return results


def test_ablation_lane_buffering(benchmark):
    results = run_once(benchmark, _run_sweep)
    print()
    print("lane buffer every N PEs -> cycles: "
          + "  ".join(f"{k}:{v}" for k, v in results.items()))
    # denser buffering costs cycles on cross-segment dependences
    assert results[4] >= results[8] >= results[16]
    assert results[4] > results[16]

    # the unit-level delay model shows the same ordering
    for spacing_a, spacing_b in ((4, 8), (8, 16)):
        delay_a = LaneGeometry(16, spacing_a, 1).delay(0, 0, 0, 15)
        delay_b = LaneGeometry(16, spacing_b, 1).delay(0, 0, 0, 15)
        assert delay_a >= delay_b
