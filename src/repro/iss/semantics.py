"""Pure RV32IMF instruction semantics shared by all three simulators.

:func:`compute` evaluates one instruction given its operand values and
PC, with no machine state of its own. Memory instructions return the
effective address and leave the access to the caller (each machine has
its own memory path); :func:`finish_load` converts loaded raw bytes to
the destination register value.
"""

from dataclasses import dataclass

from repro import softfloat as sf
from repro.isa.encoding import to_signed32, to_unsigned32

MASK32 = 0xFFFFFFFF
LOAD_SIZES = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "flw": 4}
LOAD_SIGNED = frozenset({"lb", "lh"})
STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4, "fsw": 4}
# Backwards-compatible aliases used inside this module.
_LOAD_SIZES = LOAD_SIZES
_LOAD_SIGNED = LOAD_SIGNED
_STORE_SIZES = STORE_SIZES


@dataclass
class ExecResult:
    """Outcome of evaluating one instruction.

    ``value``  — destination register value (32-bit pattern) or None.
    ``taken``/``target`` — control transfer outcome.
    ``mem_addr``/``mem_size``/``mem_signed`` — load/store effective access.
    ``store_value`` — value a store writes.
    ``csr`` — CSR number touched (CSR ops only; caller resolves).
    """

    value: int = None
    taken: bool = False
    target: int = None
    mem_addr: int = None
    mem_size: int = 0
    mem_signed: bool = False
    store_value: int = None
    csr: int = None


def _mul_signed(a, b):
    return (to_signed32(a) * to_signed32(b)) & MASK32


def _mulh(a, b):
    return ((to_signed32(a) * to_signed32(b)) >> 32) & MASK32


def _mulhsu(a, b):
    return ((to_signed32(a) * to_unsigned32(b)) >> 32) & MASK32


def _mulhu(a, b):
    return ((to_unsigned32(a) * to_unsigned32(b)) >> 32) & MASK32


def _div(a, b):
    sa, sb = to_signed32(a), to_signed32(b)
    if sb == 0:
        return MASK32  # RISC-V: division by zero yields all ones
    if sa == -(1 << 31) and sb == -1:
        return 0x80000000  # overflow case
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & MASK32


def _divu(a, b):
    return MASK32 if b == 0 else (a // b) & MASK32


def _rem(a, b):
    sa, sb = to_signed32(a), to_signed32(b)
    if sb == 0:
        return a & MASK32
    if sa == -(1 << 31) and sb == -1:
        return 0
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return remainder & MASK32


def _remu(a, b):
    return a & MASK32 if b == 0 else (a % b) & MASK32


_ALU_OPS = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "sll": lambda a, b: (a << (b & 31)) & MASK32,
    "slt": lambda a, b: int(to_signed32(a) < to_signed32(b)),
    "sltu": lambda a, b: int((a & MASK32) < (b & MASK32)),
    "xor": lambda a, b: (a ^ b) & MASK32,
    "srl": lambda a, b: (a & MASK32) >> (b & 31),
    "sra": lambda a, b: to_unsigned32(to_signed32(a) >> (b & 31)),
    "or": lambda a, b: (a | b) & MASK32,
    "and": lambda a, b: a & b & MASK32,
    "mul": _mul_signed,
    "mulh": _mulh,
    "mulhsu": _mulhsu,
    "mulhu": _mulhu,
    "div": _div,
    "divu": _divu,
    "rem": _rem,
    "remu": _remu,
}

_ALU_IMM = {
    "addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor",
    "ori": "or", "andi": "and", "slli": "sll", "srli": "srl",
    "srai": "sra",
}

_BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed32(a) < to_signed32(b),
    "bge": lambda a, b: to_signed32(a) >= to_signed32(b),
    "bltu": lambda a, b: (a & MASK32) < (b & MASK32),
    "bgeu": lambda a, b: (a & MASK32) >= (b & MASK32),
}

_FP_BINARY = {
    "fadd.s": sf.fadd, "fsub.s": sf.fsub, "fmul.s": sf.fmul,
    "fdiv.s": sf.fdiv, "fsgnj.s": sf.fsgnj, "fsgnjn.s": sf.fsgnjn,
    "fsgnjx.s": sf.fsgnjx, "fmin.s": sf.fmin, "fmax.s": sf.fmax,
    "feq.s": sf.feq, "flt.s": sf.flt, "fle.s": sf.fle,
}

_FP_FMA = {
    "fmadd.s": sf.fmadd, "fmsub.s": sf.fmsub,
    "fnmsub.s": sf.fnmsub, "fnmadd.s": sf.fnmadd,
}

_FP_UNARY = {
    "fsqrt.s": sf.fsqrt, "fcvt.w.s": sf.fcvt_w_s, "fcvt.wu.s": sf.fcvt_wu_s,
    "fcvt.s.w": sf.fcvt_s_w, "fcvt.s.wu": sf.fcvt_s_wu,
    "fclass.s": sf.fclass, "fmv.x.w": lambda v: v & MASK32,
    "fmv.w.x": lambda v: v & MASK32,
}


# ---------------------------------------------------------------------
# Per-mnemonic execute thunks. compute() used to probe ~10 dicts in
# sequence per call; the table below is built once so dispatch is a
# single lookup, and the decoder binds the thunk onto each Instruction
# (``_handler``) so hot paths skip even that lookup.

def _h_alu(op):
    def handler(instr, pc, rs1, rs2, rs3):
        return ExecResult(value=op(rs1, rs2))
    return handler


def _h_alu_imm(op):
    # Each ALU lambda masks its operands, so the sign-extended
    # immediate can be passed directly (sltiu then compares the
    # masked pattern unsigned, per spec).
    def handler(instr, pc, rs1, rs2, rs3):
        return ExecResult(value=op(rs1, instr.imm))
    return handler


def _h_branch(op):
    def handler(instr, pc, rs1, rs2, rs3):
        return ExecResult(taken=op(rs1 & MASK32, rs2 & MASK32),
                          target=(pc + instr.imm) & MASK32)
    return handler


def _h_load(size, signed):
    def handler(instr, pc, rs1, rs2, rs3):
        return ExecResult(mem_addr=(rs1 + instr.imm) & MASK32,
                          mem_size=size, mem_signed=signed)
    return handler


def _h_store(size):
    def handler(instr, pc, rs1, rs2, rs3):
        return ExecResult(mem_addr=(rs1 + instr.imm) & MASK32,
                          mem_size=size, store_value=rs2 & MASK32)
    return handler


def _h_fp_binary(fp):
    def handler(instr, pc, rs1, rs2, rs3):
        return ExecResult(value=fp(rs1, rs2))
    return handler


def _h_fp_fma(fp):
    def handler(instr, pc, rs1, rs2, rs3):
        return ExecResult(value=fp(rs1, rs2, rs3))
    return handler


def _h_fp_unary(fp):
    def handler(instr, pc, rs1, rs2, rs3):
        return ExecResult(value=fp(rs1))
    return handler


def _h_lui(instr, pc, rs1, rs2, rs3):
    return ExecResult(value=instr.imm & MASK32)


def _h_auipc(instr, pc, rs1, rs2, rs3):
    return ExecResult(value=(pc + instr.imm) & MASK32)


def _h_jal(instr, pc, rs1, rs2, rs3):
    return ExecResult(value=(pc + 4) & MASK32, taken=True,
                      target=(pc + instr.imm) & MASK32)


def _h_jalr(instr, pc, rs1, rs2, rs3):
    return ExecResult(value=(pc + 4) & MASK32, taken=True,
                      target=(rs1 + instr.imm) & MASK32 & ~1)


def _h_csr(instr, pc, rs1, rs2, rs3):
    return ExecResult(csr=instr.csr)


def _h_nop(instr, pc, rs1, rs2, rs3):
    return ExecResult()


_HANDLERS = {}
for _mnem, _op in _ALU_OPS.items():
    _HANDLERS[_mnem] = _h_alu(_op)
for _mnem, _base in _ALU_IMM.items():
    _HANDLERS[_mnem] = _h_alu_imm(_ALU_OPS[_base])
for _mnem, _op in _BRANCH_OPS.items():
    _HANDLERS[_mnem] = _h_branch(_op)
for _mnem, _size in _LOAD_SIZES.items():
    _HANDLERS[_mnem] = _h_load(_size, _mnem in _LOAD_SIGNED)
for _mnem, _size in _STORE_SIZES.items():
    _HANDLERS[_mnem] = _h_store(_size)
for _mnem, _fp in _FP_BINARY.items():
    _HANDLERS[_mnem] = _h_fp_binary(_fp)
for _mnem, _fp in _FP_FMA.items():
    _HANDLERS[_mnem] = _h_fp_fma(_fp)
for _mnem, _fp in _FP_UNARY.items():
    _HANDLERS[_mnem] = _h_fp_unary(_fp)
_HANDLERS["lui"] = _h_lui
_HANDLERS["auipc"] = _h_auipc
_HANDLERS["jal"] = _h_jal
_HANDLERS["jalr"] = _h_jalr
for _mnem in ("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"):
    _HANDLERS[_mnem] = _h_csr
for _mnem in ("fence", "ecall", "ebreak", "simt_s", "simt_e"):
    _HANDLERS[_mnem] = _h_nop
del _mnem, _op, _base, _size, _fp


def _v_binary(op):
    def value(instr, pc, rs1, rs2, rs3):
        return op(rs1, rs2)
    return value


def _v_imm(op):
    def value(instr, pc, rs1, rs2, rs3):
        return op(rs1, instr.imm)
    return value


def _v_fma(fp):
    def value(instr, pc, rs1, rs2, rs3):
        return fp(rs1, rs2, rs3)
    return value


def _v_unary(fp):
    def value(instr, pc, rs1, rs2, rs3):
        return fp(rs1)
    return value


#: mnemonic -> value(instr, pc, rs1, rs2, rs3) for every op whose whole
#: outcome is its register value (integer, M and F arithmetic, lui,
#: auipc): the value :func:`compute` would wrap in an ExecResult, for
#: callers that need nothing else
VALUE_HANDLERS = {}
for _mnem, _op in _ALU_OPS.items():
    VALUE_HANDLERS[_mnem] = _v_binary(_op)
for _mnem, _base in _ALU_IMM.items():
    VALUE_HANDLERS[_mnem] = _v_imm(_ALU_OPS[_base])
for _mnem, _fp in _FP_BINARY.items():
    VALUE_HANDLERS[_mnem] = _v_binary(_fp)
for _mnem, _fp in _FP_FMA.items():
    VALUE_HANDLERS[_mnem] = _v_fma(_fp)
for _mnem, _fp in _FP_UNARY.items():
    VALUE_HANDLERS[_mnem] = _v_unary(_fp)
VALUE_HANDLERS["lui"] = lambda instr, pc, rs1, rs2, rs3: instr.imm & MASK32
VALUE_HANDLERS["auipc"] = \
    lambda instr, pc, rs1, rs2, rs3: (pc + instr.imm) & MASK32
del _mnem, _op, _base, _fp


def handler_for(mnemonic):
    """The execute thunk for ``mnemonic`` (used by the decoder to bind
    handlers at decode time), or None for unknown mnemonics."""
    return _HANDLERS.get(mnemonic)


def compute(instr, pc, rs1=0, rs2=0, rs3=0):
    """Evaluate ``instr`` with operand values ``rs1``/``rs2``/``rs3``.

    Operand values are 32-bit unsigned patterns (FP registers carry
    their raw bit pattern). Returns an :class:`ExecResult`.
    """
    try:
        handler = instr._handler
    except AttributeError:
        handler = _HANDLERS.get(instr.mnemonic)
        if handler is None:
            raise NotImplementedError(
                f"no semantics for '{instr.mnemonic}'") from None
        # Bind for next time: assembled Instructions (no decode step)
        # pay the dict lookup once, decoded ones come pre-bound.
        instr._handler = handler
    return handler(instr, pc, rs1, rs2, rs3)


def finish_load(instr, raw):
    """Convert raw loaded bytes (as unsigned int) to the register value.

    ``raw`` may be wider than the access (store→load forwarding hands
    over the full store register, not the memory image), so it is
    truncated to the load size before extension."""
    size = _LOAD_SIZES[instr.mnemonic]
    raw &= (1 << (size * 8)) - 1
    if instr.mnemonic in _LOAD_SIGNED:
        sign = 1 << (size * 8 - 1)
        raw = ((raw & (sign - 1)) - (raw & sign)) & MASK32
    return raw & MASK32
