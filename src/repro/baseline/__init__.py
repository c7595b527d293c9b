"""Out-of-order CPU baseline (the paper's gem5 ARM-core substitute).

The paper compares DiAG against a 12-core, 8-issue out-of-order ARM CPU
modelled in gem5 SE mode, "aggressively configured to issue, dispatch,
and retire up to 8 instructions with a 2 cycle latency for each of
these stages", with 64 KB L1 caches and a 4-8 MB unified L2
(Section 7.1). This package provides an equivalent RISC-V machine:
same ISA as DiAG (removing the cross-ISA confound), same instruction
latencies, same memory-timing substrate, and a McPAT-style event-energy
model for the efficiency comparisons.
"""

from repro.baseline.ooo import OoOConfig, OoOCore, run_ooo
from repro.baseline.multicore import MulticoreCPU, run_multicore
from repro.baseline.power import BaselinePowerModel
from repro.baseline.predictor import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GSharePredictor,
)

__all__ = [
    "AlwaysTakenPredictor",
    "BaselinePowerModel",
    "BimodalPredictor",
    "GSharePredictor",
    "MulticoreCPU",
    "OoOConfig",
    "OoOCore",
    "run_multicore",
    "run_ooo",
]
