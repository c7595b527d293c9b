"""Functional instruction-set simulator and shared execution semantics.

:mod:`repro.iss.semantics` holds the single pure implementation of
RV32IMF instruction behaviour. The ISS, the out-of-order baseline, and
the DiAG core all execute through it, so the three machines can never
disagree architecturally — which is what makes DiAG-vs-ISS
co-simulation a meaningful correctness check (the paper's FPGA
proof-of-concept role, Section 6.2).
"""

from repro.iss.semantics import ExecResult, compute, finish_load
from repro.iss.simulator import HaltReason, ISS, SimError

__all__ = ["ExecResult", "HaltReason", "ISS", "SimError", "compute",
           "finish_load"]
