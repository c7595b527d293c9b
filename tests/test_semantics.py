"""Pure instruction semantics (repro.iss.semantics.compute)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iss.semantics import (VALUE_HANDLERS, ExecResult, compute,
                                 finish_load)
from repro.isa.instructions import Instruction

bits32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
U32 = 0xFFFFFFFF


def s32(v):
    return v - (1 << 32) if v & 0x80000000 else v


def run(mnem, rs1=0, rs2=0, imm=0, pc=0x1000, rs3=0):
    instr = Instruction(mnem, rd=1, rs1=2, rs2=3, rs3=4, imm=imm)
    return compute(instr, pc, rs1, rs2, rs3)


class TestIntegerALU:
    def test_add_wraps(self):
        assert run("add", U32, 1).value == 0

    def test_sub_borrows(self):
        assert run("sub", 0, 1).value == U32

    def test_logic(self):
        assert run("xor", 0xF0F0, 0x0FF0).value == 0xFF00
        assert run("or", 0xF000, 0x000F).value == 0xF00F
        assert run("and", 0xFF00, 0x0FF0).value == 0x0F00

    def test_shifts(self):
        assert run("sll", 1, 31).value == 0x80000000
        assert run("sll", 1, 32).value == 1          # shamt masked to 5 bits
        assert run("srl", 0x80000000, 31).value == 1
        assert run("sra", 0x80000000, 31).value == U32

    def test_slt(self):
        assert run("slt", (-1) & U32, 1).value == 1
        assert run("sltu", (-1) & U32, 1).value == 0

    def test_immediates(self):
        assert run("addi", 10, imm=-3).value == 7
        assert run("sltiu", 0, imm=-1).value == 1  # compares vs 0xFFFFFFFF
        assert run("andi", 0xFF, imm=0x0F).value == 0x0F

    def test_lui_auipc(self):
        assert run("lui", imm=0x12345000).value == 0x12345000
        assert run("auipc", imm=0x1000, pc=0x2000).value == 0x3000


class TestMulDiv:
    def test_mul(self):
        assert run("mul", 7, 6).value == 42
        assert run("mul", U32, 2).value == (-2) & U32

    def test_mulh_variants(self):
        a = 0x80000000  # -2^31
        assert s32(run("mulh", a, a).value) == (1 << 62) >> 32
        assert run("mulhu", U32, U32).value == 0xFFFFFFFE
        assert run("mulhsu", (-1) & U32, U32).value == U32

    def test_div(self):
        assert run("div", (-7) & U32, 2).value == (-3) & U32
        assert run("divu", 7, 2).value == 3

    def test_div_by_zero(self):
        assert run("div", 42, 0).value == U32
        assert run("divu", 42, 0).value == U32
        assert run("rem", 42, 0).value == 42
        assert run("remu", 42, 0).value == 42

    def test_div_overflow(self):
        assert run("div", 0x80000000, U32).value == 0x80000000
        assert run("rem", 0x80000000, U32).value == 0

    def test_rem_sign_follows_dividend(self):
        assert run("rem", (-7) & U32, 2).value == (-1) & U32
        assert run("rem", 7, (-2) & U32).value == 1

    @given(a=bits32, b=bits32)
    def test_divmod_identity(self, a, b):
        if b == 0:
            return
        q = s32(run("div", a, b).value)
        r = s32(run("rem", a, b).value)
        if not (s32(a) == -(1 << 31) and s32(b) == -1):
            assert q * s32(b) + r == s32(a)

    @given(a=bits32, b=bits32)
    def test_unsigned_divmod_identity(self, a, b):
        if b == 0:
            return
        q = run("divu", a, b).value
        r = run("remu", a, b).value
        assert q * b + r == a


class TestControl:
    def test_branches(self):
        assert run("beq", 5, 5, imm=16).taken
        assert not run("bne", 5, 5, imm=16).taken
        assert run("blt", (-1) & U32, 0, imm=8).taken
        assert not run("bltu", (-1) & U32, 0, imm=8).taken
        assert run("bgeu", (-1) & U32, 0, imm=8).taken

    def test_branch_target(self):
        result = run("beq", 1, 1, imm=-8, pc=0x100)
        assert result.target == 0xF8

    def test_jal(self):
        result = run("jal", imm=0x20, pc=0x1000)
        assert result.taken and result.target == 0x1020
        assert result.value == 0x1004

    def test_jalr_clears_bit0(self):
        result = run("jalr", rs1=0x2001, imm=0, pc=0x1000)
        assert result.target == 0x2000
        assert result.value == 0x1004


class TestMemoryOps:
    def test_load_effective_address(self):
        result = run("lw", rs1=0x100, imm=-4)
        assert result.mem_addr == 0xFC
        assert result.mem_size == 4

    def test_store_carries_value(self):
        result = run("sw", rs1=0x100, rs2=0xAB, imm=8)
        assert result.mem_addr == 0x108
        assert result.store_value == 0xAB

    def test_finish_load_sign_extension(self):
        lb = Instruction("lb", rd=1, rs1=2)
        assert finish_load(lb, 0x80) == 0xFFFFFF80
        lbu = Instruction("lbu", rd=1, rs1=2)
        assert finish_load(lbu, 0x80) == 0x80
        lh = Instruction("lh", rd=1, rs1=2)
        assert finish_load(lh, 0x8000) == 0xFFFF8000
        lw = Instruction("lw", rd=1, rs1=2)
        assert finish_load(lw, 0xDEADBEEF) == 0xDEADBEEF


class TestMisc:
    def test_fence_nop_like(self):
        result = run("fence")
        assert result.value is None and not result.taken

    def test_csr_reports_number(self):
        instr = Instruction("csrrs", rd=1, rs1=0, csr=0xC00)
        assert compute(instr, 0).csr == 0xC00

    def test_unknown_raises(self):
        with pytest.raises(NotImplementedError):
            compute(Instruction("bogus"), 0)

    @given(a=bits32, b=bits32)
    def test_alu_results_are_32bit(self, a, b):
        for mnem in ("add", "sub", "xor", "sll", "srl", "sra", "mul",
                     "mulh", "slt", "sltu"):
            value = run(mnem, a, b).value
            assert 0 <= value <= U32, mnem


class TestValueHandlers:
    """``VALUE_HANDLERS`` is ``compute`` for the ops whose whole
    outcome is their register value."""

    @pytest.mark.parametrize("mnem", sorted(VALUE_HANDLERS))
    @settings(max_examples=20, deadline=None)
    @given(rs1=bits32, rs2=bits32, rs3=bits32,
           imm=st.integers(min_value=-2048, max_value=2047))
    def test_matches_compute(self, mnem, rs1, rs2, rs3, imm):
        instr = Instruction(mnem, rd=1, rs1=2, rs2=3, rs3=4, imm=imm)
        result = compute(instr, 0x1000, rs1, rs2, rs3)
        assert result == ExecResult(value=result.value)
        assert VALUE_HANDLERS[mnem](instr, 0x1000, rs1, rs2, rs3) \
            == result.value
