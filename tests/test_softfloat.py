"""IEEE-754 binary32 operations with RISC-V semantics."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import softfloat as sf

bits32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def fbits(x):
    return struct.unpack("<I", struct.pack("<f", x))[0]


def tofloat(b):
    return struct.unpack("<f", struct.pack("<I", b))[0]


PLUS_ZERO = 0x00000000
MINUS_ZERO = 0x80000000
PLUS_INF = 0x7F800000
MINUS_INF = 0xFF800000
QNAN = 0x7FC00000
SNAN = 0x7F800001


class TestBasicArithmetic:
    @pytest.mark.parametrize("a,b,op,expected", [
        (1.5, 2.25, sf.fadd, 3.75),
        (1.5, 2.25, sf.fsub, -0.75),
        (1.5, 2.0, sf.fmul, 3.0),
        (7.0, 2.0, sf.fdiv, 3.5),
    ])
    def test_exact_cases(self, a, b, op, expected):
        assert tofloat(op(fbits(a), fbits(b))) == expected

    def test_sqrt(self):
        assert tofloat(sf.fsqrt(fbits(9.0))) == 3.0
        assert tofloat(sf.fsqrt(fbits(2.0))) == np.float32(np.sqrt(
            np.float32(2.0)))

    def test_sqrt_negative_is_nan(self):
        assert sf.fsqrt(fbits(-1.0)) == sf.CANONICAL_NAN

    def test_sqrt_negative_zero(self):
        # IEEE: sqrt(-0.0) = -0.0
        assert sf.fsqrt(MINUS_ZERO) == MINUS_ZERO

    def test_div_by_zero_is_inf(self):
        assert sf.fdiv(fbits(1.0), PLUS_ZERO) == PLUS_INF
        assert sf.fdiv(fbits(-1.0), PLUS_ZERO) == MINUS_INF

    def test_zero_div_zero_is_nan(self):
        assert sf.fdiv(PLUS_ZERO, PLUS_ZERO) == sf.CANONICAL_NAN

    def test_overflow_to_inf(self):
        big = fbits(3.0e38)
        assert sf.fadd(big, big) == PLUS_INF

    def test_inf_minus_inf_is_nan(self):
        assert sf.fsub(PLUS_INF, PLUS_INF) == sf.CANONICAL_NAN


class TestNaNHandling:
    @pytest.mark.parametrize("op", [sf.fadd, sf.fsub, sf.fmul, sf.fdiv])
    def test_nan_propagates_canonically(self, op):
        assert op(QNAN, fbits(1.0)) == sf.CANONICAL_NAN
        assert op(fbits(1.0), SNAN) == sf.CANONICAL_NAN

    def test_is_nan(self):
        assert sf.is_nan(QNAN)
        assert sf.is_nan(SNAN)
        assert not sf.is_nan(PLUS_INF)
        assert not sf.is_nan(fbits(1.0))


class TestFMA:
    def test_fmadd(self):
        assert tofloat(sf.fmadd(fbits(2.0), fbits(3.0), fbits(1.0))) == 7.0

    def test_fmsub(self):
        assert tofloat(sf.fmsub(fbits(2.0), fbits(3.0), fbits(1.0))) == 5.0

    def test_fnmsub(self):
        assert tofloat(sf.fnmsub(fbits(2.0), fbits(3.0),
                                 fbits(1.0))) == -5.0

    def test_fnmadd(self):
        assert tofloat(sf.fnmadd(fbits(2.0), fbits(3.0),
                                 fbits(1.0))) == -7.0

    def test_inf_times_zero_invalid(self):
        assert sf.fmadd(PLUS_INF, PLUS_ZERO, fbits(5.0)) \
            == sf.CANONICAL_NAN

    def test_nan_operand(self):
        assert sf.fmadd(QNAN, fbits(1.0), fbits(1.0)) == sf.CANONICAL_NAN


class TestSignInjection:
    def test_fsgnj(self):
        assert sf.fsgnj(fbits(1.5), fbits(-2.0)) == fbits(-1.5)
        assert sf.fsgnj(fbits(-1.5), fbits(2.0)) == fbits(1.5)

    def test_fsgnjn(self):
        assert sf.fsgnjn(fbits(1.5), fbits(2.0)) == fbits(-1.5)

    def test_fsgnjx(self):
        assert sf.fsgnjx(fbits(-1.5), fbits(-2.0)) == fbits(1.5)

    def test_fabs_idiom(self):
        # fabs rd, rs == fsgnjx rs, rs
        assert sf.fsgnjx(fbits(-3.0), fbits(-3.0)) == fbits(3.0)


class TestMinMax:
    def test_plain(self):
        assert sf.fmin(fbits(1.0), fbits(2.0)) == fbits(1.0)
        assert sf.fmax(fbits(1.0), fbits(2.0)) == fbits(2.0)

    def test_nan_loses(self):
        assert sf.fmin(QNAN, fbits(2.0)) == fbits(2.0)
        assert sf.fmax(fbits(2.0), QNAN) == fbits(2.0)

    def test_both_nan(self):
        assert sf.fmin(QNAN, SNAN) == sf.CANONICAL_NAN

    def test_signed_zeros(self):
        assert sf.fmin(PLUS_ZERO, MINUS_ZERO) == MINUS_ZERO
        assert sf.fmin(MINUS_ZERO, PLUS_ZERO) == MINUS_ZERO
        assert sf.fmax(PLUS_ZERO, MINUS_ZERO) == PLUS_ZERO


class TestCompare:
    def test_feq(self):
        assert sf.feq(fbits(1.0), fbits(1.0)) == 1
        assert sf.feq(PLUS_ZERO, MINUS_ZERO) == 1
        assert sf.feq(QNAN, QNAN) == 0

    def test_flt_fle(self):
        assert sf.flt(fbits(1.0), fbits(2.0)) == 1
        assert sf.flt(fbits(2.0), fbits(1.0)) == 0
        assert sf.fle(fbits(2.0), fbits(2.0)) == 1
        assert sf.flt(QNAN, fbits(1.0)) == 0


class TestConversions:
    def test_fcvt_w_s_truncates(self):
        assert sf.fcvt_w_s(fbits(2.9)) == 2
        assert sf.fcvt_w_s(fbits(-2.9)) == (-2) & 0xFFFFFFFF

    def test_fcvt_w_s_saturates(self):
        assert sf.fcvt_w_s(fbits(3.0e9)) == 0x7FFFFFFF
        assert sf.fcvt_w_s(fbits(-3.0e9)) == 0x80000000
        assert sf.fcvt_w_s(QNAN) == 0x7FFFFFFF

    def test_fcvt_wu_s(self):
        assert sf.fcvt_wu_s(fbits(3.5)) == 3
        assert sf.fcvt_wu_s(fbits(-0.5)) == 0
        assert sf.fcvt_wu_s(fbits(-1.5)) == 0
        assert sf.fcvt_wu_s(fbits(5.0e9)) == 0xFFFFFFFF

    def test_fcvt_s_w(self):
        assert tofloat(sf.fcvt_s_w(7)) == 7.0
        assert tofloat(sf.fcvt_s_w((-7) & 0xFFFFFFFF)) == -7.0

    def test_fcvt_s_wu(self):
        assert tofloat(sf.fcvt_s_wu(0xFFFFFFFF)) == np.float32(4294967295)

    @given(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
    def test_int_float_int_roundtrip_small(self, value):
        # Exact for |value| < 2^24
        if abs(value) < (1 << 24):
            assert sf.fcvt_w_s(sf.fcvt_s_w(value & 0xFFFFFFFF)) \
                == value & 0xFFFFFFFF


class TestFClass:
    @pytest.mark.parametrize("pattern,expected_bit", [
        (MINUS_INF, 0), (fbits(-1.5), 1), (0x80000001, 2),
        (MINUS_ZERO, 3), (PLUS_ZERO, 4), (0x00000001, 5),
        (fbits(1.5), 6), (PLUS_INF, 7), (SNAN, 8), (QNAN, 9),
    ])
    def test_one_hot(self, pattern, expected_bit):
        assert sf.fclass(pattern) == 1 << expected_bit


class TestPropertyVsNumpy:
    """Our ops must agree with numpy float32 on non-NaN inputs."""

    @given(a=bits32, b=bits32)
    def test_add_matches_numpy(self, a, b):
        result = sf.fadd(a, b)
        if sf.is_nan(a) or sf.is_nan(b):
            assert result == sf.CANONICAL_NAN
            return
        with np.errstate(all="ignore"):
            expected = np.uint32(a).view(np.float32) \
                + np.uint32(b).view(np.float32)
        if np.isnan(expected):
            assert result == sf.CANONICAL_NAN
        else:
            assert result == int(np.float32(expected).view(np.uint32))

    @given(a=bits32, b=bits32)
    def test_mul_matches_numpy(self, a, b):
        result = sf.fmul(a, b)
        if sf.is_nan(a) or sf.is_nan(b):
            assert result == sf.CANONICAL_NAN
            return
        with np.errstate(all="ignore"):
            expected = np.uint32(a).view(np.float32) \
                * np.uint32(b).view(np.float32)
        if np.isnan(expected):
            assert result == sf.CANONICAL_NAN
        else:
            assert result == int(np.float32(expected).view(np.uint32))

    @given(a=bits32)
    def test_result_is_32bit(self, a):
        for op in (sf.fsqrt, sf.fclass, sf.fcvt_w_s, sf.fcvt_wu_s):
            assert 0 <= op(a) <= 0xFFFFFFFF

    @given(a=bits32, b=bits32)
    def test_min_max_pick_an_operand_or_nan(self, a, b):
        result = sf.fmin(a, b)
        assert result in (a & 0xFFFFFFFF, b & 0xFFFFFFFF,
                          sf.CANONICAL_NAN)

    @given(a=bits32, b=bits32)
    def test_compare_total_on_non_nan(self, a, b):
        if sf.is_nan(a) or sf.is_nan(b):
            assert sf.flt(a, b) == 0 and sf.fle(a, b) == 0
        else:
            lt, le_, eq = sf.flt(a, b), sf.fle(a, b), sf.feq(a, b)
            assert le_ == (lt or eq)


class TestBinary32Oracle:
    """The binary64-then-round kernels against numpy's binary32
    arithmetic, which is correctly rounded and serves only as the
    oracle here: a seeded draw of 200k operand pairs weighted to the
    edges (signed zeros, infinities, quiet and signalling NaNs,
    subnormals, the overflow-rounding edge, near-cancelling pairs)."""

    PAIRS = 200_000
    SPECIALS = np.array([
        PLUS_ZERO, MINUS_ZERO, PLUS_INF, MINUS_INF, QNAN, 0xFFC00000,
        SNAN, 0xFFBFFFFF, 0x00000001, 0x80000001,      # smallest subnormal
        0x007FFFFF, 0x807FFFFF,                        # largest subnormal
        0x00800000, 0x80800000, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F7FFFFE,
        0x73000000, 0x72FFFFFF, 0x3F800000, 0xBF800000, 0x3F800001,
        0x3F7FFFFF, 0x5F800000, 0x5F7FFFFF, 0x1F800000, 0x20000000,
    ], dtype=np.uint32)

    @classmethod
    def operands(cls):
        rng = np.random.default_rng(20)
        n = cls.PAIRS
        a = rng.integers(0, 1 << 32, n, dtype=np.uint32)
        b = rng.integers(0, 1 << 32, n, dtype=np.uint32)
        sign = rng.integers(0, 2, n, dtype=np.uint32) << 31
        frac = rng.integers(0, 1 << 23, n, dtype=np.uint32)
        # subnormal and tiny operands, and operands near the top binade
        tiny = sign | (rng.integers(0, 8, n, dtype=np.uint32) << 23) | frac
        huge = sign | (rng.integers(0xF0, 0xFF, n, dtype=np.uint32) << 23) \
            | frac
        special = rng.choice(cls.SPECIALS, n) \
            + rng.integers(-2, 3, n).astype(np.uint32)
        pick = rng.integers(0, 6, n)
        a = np.select([pick == 0, pick == 1, pick == 2], [tiny, huge, special],
                      a)
        pick = rng.integers(0, 6, n)
        b = np.select([pick == 0, pick == 1, pick == 2], [tiny, huge, special],
                      b)
        # near-cancelling pairs: b within a few ulps of -a or of a
        near = rng.integers(0, 5, n) == 0
        nudge = rng.integers(-3, 4, n).astype(np.uint32)
        flip = np.where(rng.integers(0, 2, n) == 0, np.uint32(1 << 31),
                        np.uint32(0))
        b = np.where(near, (a ^ flip) + nudge, b)
        # the overflow-rounding edge: ~1 times ~FLT_MAX, FLT_MAX + ~ulp/2
        edge = np.arange(-8, 8, dtype=np.int64)
        grid_a = (0x3F800000 + edge)[:, None].repeat(16, 1).ravel()
        grid_b = (0x7F7FFFFF - np.abs(edge))[None, :].repeat(16, 0).ravel()
        half = 0x73000000 + edge
        a = np.concatenate([a, grid_a.astype(np.uint32),
                            np.full(16, 0x7F7FFFFF, np.uint32)])
        b = np.concatenate([b, grid_b.astype(np.uint32),
                            half.astype(np.uint32)])
        return a, b

    @staticmethod
    def expected(values):
        bits = values.astype(np.float32).view(np.uint32)
        return np.where(np.isnan(values), np.uint32(sf.CANONICAL_NAN),
                        bits).tolist()

    def check(self, op, operands, expected):
        got = [op(*args) for args in zip(*operands)]
        bad = [(args, hex(g), hex(e))
               for args, g, e in zip(zip(*operands), got, expected)
               if g != e]
        assert not bad, (op.__name__, len(bad), bad[:5])

    def test_arithmetic_matches_binary32(self):
        a, b = self.operands()
        x, y = a.view(np.float32), b.view(np.float32)
        args = (a.tolist(), b.tolist())
        with np.errstate(all="ignore"):
            self.check(sf.fadd, args, self.expected(x + y))
            self.check(sf.fsub, args, self.expected(x - y))
            self.check(sf.fmul, args, self.expected(x * y))
            self.check(sf.fdiv, args, self.expected(x / y))
            self.check(sf.fsqrt, args[:1], self.expected(np.sqrt(x)))

    def test_int_conversions_match_binary32(self):
        a, _ = self.operands()
        self.check(sf.fcvt_s_w, (a.tolist(),),
                   self.expected(a.view(np.int32)))
        self.check(sf.fcvt_s_wu, (a.tolist(),), self.expected(a))

    def test_pinned_cases(self):
        one, two = fbits(1.0), fbits(2.0)
        assert sf.fdiv(one, MINUS_ZERO) == MINUS_INF
        assert sf.fdiv(fbits(-1.0), MINUS_ZERO) == PLUS_INF
        assert sf.fdiv(PLUS_INF, MINUS_ZERO) == MINUS_INF
        assert sf.fdiv(MINUS_ZERO, PLUS_ZERO) == sf.CANONICAL_NAN
        assert sf.fdiv(QNAN, PLUS_ZERO) == sf.CANONICAL_NAN
        assert sf.fdiv(SNAN, MINUS_ZERO) == sf.CANONICAL_NAN
        assert sf.fadd(MINUS_ZERO, MINUS_ZERO) == MINUS_ZERO
        assert sf.fadd(PLUS_ZERO, MINUS_ZERO) == PLUS_ZERO
        for x in (one, fbits(-3.25), 0x00000001, 0x7F7FFFFF):
            assert sf.fsub(x, x) == PLUS_ZERO
        assert sf.fadd(0x7F7FFFFF, 0x73000000) == PLUS_INF   # tie: even
        assert sf.fadd(0x7F7FFFFF, 0x72FFFFFF) == 0x7F7FFFFF
        assert sf.fmul(0x7F7FFFFF, two) == PLUS_INF
        assert sf.fmul(fbits(-2.0), 0x7F7FFFFF) == MINUS_INF
        assert sf.fmul(0x00000001, fbits(0.5)) == PLUS_ZERO  # tie: even
        assert sf.fsqrt(SNAN) == sf.CANONICAL_NAN
