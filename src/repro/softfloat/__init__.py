"""IEEE-754 binary32 arithmetic with RISC-V RV32F semantics.

All operations take and return 32-bit integer bit patterns, which is how
floating-point register values are carried through every simulator (and
through DiAG's register lanes). NaN results are canonicalized to the
RISC-V canonical quiet NaN (0x7FC00000) exactly as the F extension
specifies.

Rounding: +, -, *, / and sqrt are computed on Python floats (binary64)
and the result is rounded once to binary32, round-to-nearest-even, by
``struct``'s ``"<f"`` packing (a result past the largest finite value
becomes ±inf). That is exact, not an approximation: every binary32
operand is exact in binary64, and since 53 >= 2*24 + 2 rounding the
binary64 result of any of these five operations once more to binary32
gives the correctly rounded binary32 result (Figueroa's innocuous
double-rounding bound). ``fcvt.s.w``/``fcvt.s.wu`` likewise go through
the exact binary64 value of the integer. The package needs only the
standard library; tests/test_softfloat.py checks it against an
independent binary32 oracle.

Fused multiply-add is computed in binary64 (the product is exact there)
and rounded once to binary32 at the end; this matches a hardware FMA in
all but astronomically rare double-rounding cases, which is at least as
accurate as the paper's RTL testbench that models FP with simulator
``real`` variables (paper Section 7.1). ``fcvt.w.s``/``fcvt.wu.s`` use
round-toward-zero, matching the C cast semantics every workload kernel
assumes.
"""

from repro.softfloat.ops import (
    CANONICAL_NAN,
    bits_to_float,
    fadd,
    fclass,
    fcvt_s_w,
    fcvt_s_wu,
    fcvt_w_s,
    fcvt_wu_s,
    fdiv,
    feq,
    fle,
    float_to_bits,
    flt,
    fmadd,
    fmax,
    fmin,
    fmsub,
    fmul,
    fnmadd,
    fnmsub,
    fsgnj,
    fsgnjn,
    fsgnjx,
    fsqrt,
    fsub,
    is_nan,
)

__all__ = [
    "CANONICAL_NAN",
    "bits_to_float",
    "fadd",
    "fclass",
    "fcvt_s_w",
    "fcvt_s_wu",
    "fcvt_w_s",
    "fcvt_wu_s",
    "fdiv",
    "feq",
    "fle",
    "float_to_bits",
    "flt",
    "fmadd",
    "fmax",
    "fmin",
    "fmsub",
    "fmul",
    "fnmadd",
    "fnmsub",
    "fsgnj",
    "fsgnjn",
    "fsgnjx",
    "fsqrt",
    "fsub",
    "is_nan",
]
