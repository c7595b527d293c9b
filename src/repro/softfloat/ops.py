"""Bit-pattern-level binary32 operations (see package docstring)."""

import math
import struct

MASK32 = 0xFFFFFFFF
SIGN_BIT = 0x80000000
EXP_MASK = 0x7F800000
FRAC_MASK = 0x007FFFFF
QUIET_BIT = 0x00400000

#: RISC-V canonical quiet NaN.
CANONICAL_NAN = 0x7FC00000

_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1
_UINT32_MAX = (1 << 32) - 1


_U32 = struct.Struct("<I")
_F32 = struct.Struct("<f")
_unpack_u32, _pack_u32 = _U32.unpack, _U32.pack
_unpack_f32, _pack_f32 = _F32.unpack, _F32.pack
# two operands in one pack/unpack: the binary ops' hot path
_pack_u32x2 = struct.Struct("<II").pack
_unpack_f32x2 = struct.Struct("<ff").unpack


def bits_to_float(b):
    """Reinterpret a 32-bit pattern as a Python float (exact for binary32)."""
    return _unpack_f32(_pack_u32(b & MASK32))[0]


def float_to_bits(x):
    """Round a Python float to binary32 and return the bit pattern."""
    try:
        return _unpack_u32(_pack_f32(x))[0]
    except OverflowError:
        return 0xFF800000 if x < 0 else 0x7F800000


def is_nan(b):
    """True if the bit pattern encodes a NaN."""
    b &= MASK32
    return (b & EXP_MASK) == EXP_MASK and (b & FRAC_MASK) != 0


def _is_inf(b):
    b &= MASK32
    return (b & EXP_MASK) == EXP_MASK and (b & FRAC_MASK) == 0


# The ops below compute in binary64 and round once to binary32 (see
# the package docstring for why that is exact). A NaN operand makes a
# NaN binary64 result, which _round canonicalizes, so only fdiv's
# x/0 branch tests for NaN operands itself.

def _round(x):
    """:func:`float_to_bits` of the binary64 result ``x``, with a NaN
    result canonicalized."""
    return CANONICAL_NAN if x != x else float_to_bits(x)


def fadd(a, b):
    """binary32 addition, round-to-nearest-even."""
    x, y = _unpack_f32x2(_pack_u32x2(a & MASK32, b & MASK32))
    return _round(x + y)


def fsub(a, b):
    """binary32 subtraction."""
    x, y = _unpack_f32x2(_pack_u32x2(a & MASK32, b & MASK32))
    return _round(x - y)


def fmul(a, b):
    """binary32 multiplication."""
    x, y = _unpack_f32x2(_pack_u32x2(a & MASK32, b & MASK32))
    return _round(x * y)


def fdiv(a, b):
    """binary32 division; x/±0 is ±inf with the sign of a^b, 0/0 NaN."""
    x, y = _unpack_f32x2(_pack_u32x2(a & MASK32, b & MASK32))
    if y == 0.0:
        if x == 0.0 or x != x:
            return CANONICAL_NAN
        return 0x7F800000 | ((a ^ b) & SIGN_BIT)
    return _round(x / y)


def fsqrt(a):
    """binary32 square root; NaN for negative non-zero inputs."""
    x = bits_to_float(a)
    if x < 0.0:
        return CANONICAL_NAN
    return _round(math.sqrt(x))


def _fma_core(a, b, c):
    """Fused multiply-add a*b + c with one final rounding to binary32."""
    if is_nan(a) or is_nan(b) or is_nan(c):
        return CANONICAL_NAN
    fa, fb, fc = bits_to_float(a), bits_to_float(b), bits_to_float(c)
    # inf * 0 is invalid regardless of the addend.
    if (_is_inf(a) and fb == 0.0) or (_is_inf(b) and fa == 0.0):
        return CANONICAL_NAN
    try:
        result = math.fma(fa, fb, fc)  # Python >= 3.13
    except AttributeError:  # pragma: no cover - version dependent
        result = fa * fb + fc  # product exact in binary64
    except ValueError:  # math.fma(inf, x, -inf) style invalid ops
        return CANONICAL_NAN
    if math.isnan(result):
        return CANONICAL_NAN
    return float_to_bits(result)


def fmadd(a, b, c):
    """rd = a*b + c (fused)."""
    return _fma_core(a, b, c)


def fmsub(a, b, c):
    """rd = a*b - c (fused)."""
    return _fma_core(a, b, c ^ SIGN_BIT)


def fnmsub(a, b, c):
    """rd = -(a*b) + c (fused)."""
    return _fma_core(a ^ SIGN_BIT, b, c)


def fnmadd(a, b, c):
    """rd = -(a*b) - c (fused)."""
    return _fma_core(a ^ SIGN_BIT, b, c ^ SIGN_BIT)


def fsgnj(a, b):
    """Copy b's sign onto a's magnitude."""
    return (a & ~SIGN_BIT) | (b & SIGN_BIT)


def fsgnjn(a, b):
    """Copy the negation of b's sign onto a's magnitude."""
    return (a & ~SIGN_BIT) | ((b ^ SIGN_BIT) & SIGN_BIT)


def fsgnjx(a, b):
    """XOR the signs of a and b."""
    return a ^ (b & SIGN_BIT)


def fmin(a, b):
    """RISC-V fmin: NaNs lose; -0.0 is smaller than +0.0."""
    a_nan, b_nan = is_nan(a), is_nan(b)
    if a_nan and b_nan:
        return CANONICAL_NAN
    if a_nan:
        return b & MASK32
    if b_nan:
        return a & MASK32
    fa, fb = bits_to_float(a), bits_to_float(b)
    if fa == fb == 0.0:
        return a if (a & SIGN_BIT) else b  # prefer -0.0
    return a if fa < fb else b


def fmax(a, b):
    """RISC-V fmax: NaNs lose; +0.0 is larger than -0.0."""
    a_nan, b_nan = is_nan(a), is_nan(b)
    if a_nan and b_nan:
        return CANONICAL_NAN
    if a_nan:
        return b & MASK32
    if b_nan:
        return a & MASK32
    fa, fb = bits_to_float(a), bits_to_float(b)
    if fa == fb == 0.0:
        return b if (a & SIGN_BIT) else a  # prefer +0.0
    return a if fa > fb else b


def feq(a, b):
    """Quiet equality: 1/0; NaN compares unequal."""
    if is_nan(a) or is_nan(b):
        return 0
    return int(bits_to_float(a) == bits_to_float(b))


def flt(a, b):
    """Signaling less-than: 1/0; NaN yields 0."""
    if is_nan(a) or is_nan(b):
        return 0
    return int(bits_to_float(a) < bits_to_float(b))


def fle(a, b):
    """Signaling less-or-equal: 1/0; NaN yields 0."""
    if is_nan(a) or is_nan(b):
        return 0
    return int(bits_to_float(a) <= bits_to_float(b))


def fcvt_w_s(a):
    """float -> int32, round toward zero, saturating (RISC-V semantics)."""
    if is_nan(a):
        return _INT32_MAX & MASK32
    x = bits_to_float(a)
    if x >= 2147483648.0:
        return _INT32_MAX & MASK32
    if x < -2147483648.0:
        return _INT32_MIN & MASK32
    return int(math.trunc(x)) & MASK32


def fcvt_wu_s(a):
    """float -> uint32, round toward zero, saturating."""
    if is_nan(a):
        return _UINT32_MAX
    x = bits_to_float(a)
    if x >= 4294967296.0:
        return _UINT32_MAX
    if x <= -1.0:
        return 0
    truncated = math.trunc(x)
    return 0 if truncated < 0 else int(truncated) & MASK32


def fcvt_s_w(v):
    """int32 (as 32-bit pattern) -> binary32, RNE."""
    signed = v - 0x100000000 if v & SIGN_BIT else v
    return float_to_bits(float(signed))


def fcvt_s_wu(v):
    """uint32 -> binary32, RNE."""
    return float_to_bits(float(v & MASK32))


# fclass.s result bit positions (RISC-V spec Table 11.5).
_CLASS_NEG_INF = 1 << 0
_CLASS_NEG_NORMAL = 1 << 1
_CLASS_NEG_SUBNORMAL = 1 << 2
_CLASS_NEG_ZERO = 1 << 3
_CLASS_POS_ZERO = 1 << 4
_CLASS_POS_SUBNORMAL = 1 << 5
_CLASS_POS_NORMAL = 1 << 6
_CLASS_POS_INF = 1 << 7
_CLASS_SNAN = 1 << 8
_CLASS_QNAN = 1 << 9


def fclass(a):
    """RISC-V fclass.s: a 10-bit one-hot classification mask."""
    a &= MASK32
    sign = bool(a & SIGN_BIT)
    exp = (a & EXP_MASK) >> 23
    frac = a & FRAC_MASK
    if exp == 0xFF:
        if frac == 0:
            return _CLASS_NEG_INF if sign else _CLASS_POS_INF
        return _CLASS_QNAN if frac & QUIET_BIT else _CLASS_SNAN
    if exp == 0:
        if frac == 0:
            return _CLASS_NEG_ZERO if sign else _CLASS_POS_ZERO
        return _CLASS_NEG_SUBNORMAL if sign else _CLASS_POS_SUBNORMAL
    return _CLASS_NEG_NORMAL if sign else _CLASS_POS_NORMAL
