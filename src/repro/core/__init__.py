"""The DiAG dataflow core — the paper's primary contribution.

Public entry points:

* :class:`DiAGConfig` with the paper's Table 2 presets (I4C2, F4C2,
  F4C16, F4C32)
* :class:`DiAGProcessor` — run a program on one or more dataflow rings
* :func:`run_program` — one-call convenience wrapper
* :class:`EnergyModel` — Table-3-seeded area/power accounting
"""

from repro.core.config import (
    CONFIG_PRESETS,
    DiAGConfig,
    F4C2,
    F4C16,
    F4C32,
    I4C2,
)
from repro.core.energy import AreaReport, EnergyModel, EnergyReport
from repro.core.group import RunResult
from repro.core.processor import DiAGProcessor, run_program
from repro.core.stats import RingStats, StallReason
from repro.core.watchdog import ProgressWatchdog, SimulationHang

__all__ = [
    "AreaReport",
    "CONFIG_PRESETS",
    "DiAGConfig",
    "DiAGProcessor",
    "EnergyModel",
    "EnergyReport",
    "F4C16",
    "F4C2",
    "F4C32",
    "I4C2",
    "ProgressWatchdog",
    "RingStats",
    "RunResult",
    "SimulationHang",
    "StallReason",
    "run_program",
]
