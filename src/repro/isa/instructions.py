"""Instruction representation and the RV32IMF(+DiAG) mnemonic table.

Every simulator in the project operates on :class:`Instruction` objects.
The :data:`MNEMONICS` table is the single source of truth for encodings,
operand roles, functional-unit classes, and nominal execute latencies
(paper Section 7.1 models floating-point operations as fixed delays; the
latency column reproduces that style of modelling).
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class InstrFormat(enum.Enum):
    """RISC-V encoding formats, plus the DiAG custom formats."""

    R = "R"
    I = "I"  # noqa: E741 - canonical RISC-V format name
    S = "S"
    B = "B"
    U = "U"
    J = "J"
    R4 = "R4"
    CSR = "CSR"
    CSRI = "CSRI"
    FENCE = "FENCE"
    SYS = "SYS"
    SIMT_S = "SIMT_S"
    SIMT_E = "SIMT_E"


class FUClass(enum.Enum):
    """Functional-unit class an instruction occupies while executing."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_FMA = "fp_fma"
    FP_DIV = "fp_div"
    FP_SQRT = "fp_sqrt"
    FP_MISC = "fp_misc"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    CSR = "csr"
    SYSTEM = "system"
    SIMT = "simt"


# Functional-unit classes that engage the floating-point unit (used for
# clock-gating accounting in the energy model, paper Section 6.1.3).
FP_CLASSES = frozenset({
    FUClass.FP_ADD,
    FUClass.FP_MUL,
    FUClass.FP_FMA,
    FUClass.FP_DIV,
    FUClass.FP_SQRT,
    FUClass.FP_MISC,
})


@dataclass(frozen=True)
class MnemonicInfo:
    """Static properties of one mnemonic.

    ``src_files`` / ``dst_file`` name the register file ('x' or 'f') for
    each operand position; ``None`` means the position is unused.
    """

    mnemonic: str
    fmt: InstrFormat
    opcode: int
    funct3: int = None
    funct7: int = None
    funct2: int = None
    fixed_rs2: int = None
    fu_class: FUClass = FUClass.ALU
    latency: int = 1
    rs1_file: str = "x"
    rs2_file: str = None
    rs3_file: str = None
    rd_file: str = "x"
    ext: str = "I"

    @property
    def is_fp(self):
        return self.fu_class in FP_CLASSES


def _r(mnem, funct3, funct7, fu=FUClass.ALU, lat=1, ext="I"):
    return MnemonicInfo(mnem, InstrFormat.R, 0b0110011, funct3, funct7,
                        fu_class=fu, latency=lat, rs2_file="x", ext=ext)


def _i_alu(mnem, funct3):
    return MnemonicInfo(mnem, InstrFormat.I, 0b0010011, funct3)


def _i_shift(mnem, funct3, funct7):
    return MnemonicInfo(mnem, InstrFormat.I, 0b0010011, funct3, funct7)


def _load(mnem, funct3):
    return MnemonicInfo(mnem, InstrFormat.I, 0b0000011, funct3,
                        fu_class=FUClass.LOAD, latency=2)


def _store(mnem, funct3):
    return MnemonicInfo(mnem, InstrFormat.S, 0b0100011, funct3,
                        fu_class=FUClass.STORE, latency=1, rs2_file="x",
                        rd_file=None)


def _branch(mnem, funct3):
    return MnemonicInfo(mnem, InstrFormat.B, 0b1100011, funct3,
                        fu_class=FUClass.BRANCH, latency=1, rs2_file="x",
                        rd_file=None)


def _fp_op(mnem, funct7, funct3=None, fixed_rs2=None, fu=FUClass.FP_MISC,
           lat=2, rs1_file="f", rs2_file="f", rd_file="f"):
    return MnemonicInfo(mnem, InstrFormat.R, 0b1010011, funct3, funct7,
                        fixed_rs2=fixed_rs2, fu_class=fu, latency=lat,
                        rs1_file=rs1_file, rs2_file=rs2_file,
                        rd_file=rd_file, ext="F")


def _fma(mnem, opcode):
    return MnemonicInfo(mnem, InstrFormat.R4, opcode, funct2=0b00,
                        fu_class=FUClass.FP_FMA, latency=5, rs1_file="f",
                        rs2_file="f", rs3_file="f", rd_file="f", ext="F")


def _mext(mnem, funct3, fu, lat):
    return _r(mnem, funct3, 0b0000001, fu=fu, lat=lat, ext="M")


def _csr(mnem, funct3, imm_form=False):
    fmt = InstrFormat.CSRI if imm_form else InstrFormat.CSR
    rs1_file = None if imm_form else "x"
    return MnemonicInfo(mnem, fmt, 0b1110011, funct3, fu_class=FUClass.CSR,
                        rs1_file=rs1_file, ext="Zicsr")


_TABLE = [
    # --- RV32I ---
    MnemonicInfo("lui", InstrFormat.U, 0b0110111, rs1_file=None),
    MnemonicInfo("auipc", InstrFormat.U, 0b0010111, rs1_file=None),
    MnemonicInfo("jal", InstrFormat.J, 0b1101111, fu_class=FUClass.JUMP,
                 rs1_file=None),
    MnemonicInfo("jalr", InstrFormat.I, 0b1100111, 0b000,
                 fu_class=FUClass.JUMP),
    _branch("beq", 0b000), _branch("bne", 0b001),
    _branch("blt", 0b100), _branch("bge", 0b101),
    _branch("bltu", 0b110), _branch("bgeu", 0b111),
    _load("lb", 0b000), _load("lh", 0b001), _load("lw", 0b010),
    _load("lbu", 0b100), _load("lhu", 0b101),
    _store("sb", 0b000), _store("sh", 0b001), _store("sw", 0b010),
    _i_alu("addi", 0b000), _i_alu("slti", 0b010), _i_alu("sltiu", 0b011),
    _i_alu("xori", 0b100), _i_alu("ori", 0b110), _i_alu("andi", 0b111),
    _i_shift("slli", 0b001, 0b0000000),
    _i_shift("srli", 0b101, 0b0000000),
    _i_shift("srai", 0b101, 0b0100000),
    _r("add", 0b000, 0b0000000), _r("sub", 0b000, 0b0100000),
    _r("sll", 0b001, 0b0000000), _r("slt", 0b010, 0b0000000),
    _r("sltu", 0b011, 0b0000000), _r("xor", 0b100, 0b0000000),
    _r("srl", 0b101, 0b0000000), _r("sra", 0b101, 0b0100000),
    _r("or", 0b110, 0b0000000), _r("and", 0b111, 0b0000000),
    MnemonicInfo("fence", InstrFormat.FENCE, 0b0001111, 0b000,
                 fu_class=FUClass.SYSTEM, rs1_file=None, rd_file=None),
    MnemonicInfo("ecall", InstrFormat.SYS, 0b1110011, 0b000,
                 fu_class=FUClass.SYSTEM, rs1_file=None, rd_file=None),
    MnemonicInfo("ebreak", InstrFormat.SYS, 0b1110011, 0b000,
                 fu_class=FUClass.SYSTEM, rs1_file=None, rd_file=None),
    # --- Zicsr ---
    _csr("csrrw", 0b001), _csr("csrrs", 0b010), _csr("csrrc", 0b011),
    _csr("csrrwi", 0b101, True), _csr("csrrsi", 0b110, True),
    _csr("csrrci", 0b111, True),
    # --- RV32M ---
    _mext("mul", 0b000, FUClass.MUL, 3),
    _mext("mulh", 0b001, FUClass.MUL, 3),
    _mext("mulhsu", 0b010, FUClass.MUL, 3),
    _mext("mulhu", 0b011, FUClass.MUL, 3),
    _mext("div", 0b100, FUClass.DIV, 12),
    _mext("divu", 0b101, FUClass.DIV, 12),
    _mext("rem", 0b110, FUClass.DIV, 12),
    _mext("remu", 0b111, FUClass.DIV, 12),
    # --- RV32F ---
    MnemonicInfo("flw", InstrFormat.I, 0b0000111, 0b010,
                 fu_class=FUClass.LOAD, latency=2, rd_file="f", ext="F"),
    MnemonicInfo("fsw", InstrFormat.S, 0b0100111, 0b010,
                 fu_class=FUClass.STORE, latency=1, rs2_file="f",
                 rd_file=None, ext="F"),
    _fma("fmadd.s", 0b1000011), _fma("fmsub.s", 0b1000111),
    _fma("fnmsub.s", 0b1001011), _fma("fnmadd.s", 0b1001111),
    _fp_op("fadd.s", 0b0000000, fu=FUClass.FP_ADD, lat=3),
    _fp_op("fsub.s", 0b0000100, fu=FUClass.FP_ADD, lat=3),
    _fp_op("fmul.s", 0b0001000, fu=FUClass.FP_MUL, lat=4),
    _fp_op("fdiv.s", 0b0001100, fu=FUClass.FP_DIV, lat=12),
    _fp_op("fsqrt.s", 0b0101100, fixed_rs2=0b00000, fu=FUClass.FP_SQRT,
           lat=16, rs2_file=None),
    _fp_op("fsgnj.s", 0b0010000, funct3=0b000),
    _fp_op("fsgnjn.s", 0b0010000, funct3=0b001),
    _fp_op("fsgnjx.s", 0b0010000, funct3=0b010),
    _fp_op("fmin.s", 0b0010100, funct3=0b000),
    _fp_op("fmax.s", 0b0010100, funct3=0b001),
    _fp_op("fcvt.w.s", 0b1100000, fixed_rs2=0b00000, rs2_file=None,
           rd_file="x"),
    _fp_op("fcvt.wu.s", 0b1100000, fixed_rs2=0b00001, rs2_file=None,
           rd_file="x"),
    _fp_op("fmv.x.w", 0b1110000, funct3=0b000, fixed_rs2=0b00000,
           rs2_file=None, rd_file="x"),
    _fp_op("feq.s", 0b1010000, funct3=0b010, rd_file="x"),
    _fp_op("flt.s", 0b1010000, funct3=0b001, rd_file="x"),
    _fp_op("fle.s", 0b1010000, funct3=0b000, rd_file="x"),
    _fp_op("fclass.s", 0b1110000, funct3=0b001, fixed_rs2=0b00000,
           rs2_file=None, rd_file="x"),
    _fp_op("fcvt.s.w", 0b1101000, fixed_rs2=0b00000, rs1_file="x",
           rs2_file=None),
    _fp_op("fcvt.s.wu", 0b1101000, fixed_rs2=0b00001, rs1_file="x",
           rs2_file=None),
    _fp_op("fmv.w.x", 0b1111000, funct3=0b000, fixed_rs2=0b00000,
           rs1_file="x", rs2_file=None),
    # --- DiAG extensions (paper Section 5.4), custom-0 opcode space ---
    # simt_s rc, r_step, r_end, interval: start of a thread-pipelined
    # region. rd=rc, rs1=r_step, rs2=r_end, interval packed in rs3+funct2.
    # rd names the control register but simt_s does not WRITE it (the
    # loop stepping happens at simt_e), hence rd_file=None.
    MnemonicInfo("simt_s", InstrFormat.SIMT_S, 0b0001011, 0b000,
                 fu_class=FUClass.SIMT, rs2_file="x", rd_file=None,
                 ext="Xdiag"),
    # simt_e rc, r_end: end of the region. rs1=rc, rs2=r_end. The paper's
    # l_offset operand is resolved by the control unit pairing simt_e with
    # the innermost active simt_s (see DESIGN.md fidelity notes).
    MnemonicInfo("simt_e", InstrFormat.SIMT_E, 0b0001011, 0b001,
                 fu_class=FUClass.SIMT, rs2_file="x", rd_file=None,
                 ext="Xdiag"),
]

MNEMONICS = {info.mnemonic: info for info in _TABLE}

assert len(MNEMONICS) == len(_TABLE), "duplicate mnemonic in table"


def mnemonic_info(mnemonic):
    """Look up :class:`MnemonicInfo` for ``mnemonic`` (case-insensitive)."""
    return MNEMONICS[mnemonic.lower()]


class Facts(NamedTuple):
    """The static, timing-relevant facts of one decoded instruction.

    The cycle engines read these on every activation, so an
    :class:`Instruction` binds them once (:attr:`Instruction.facts`).
    Every field is immutable: one ``Facts`` may be shared by any number
    of PE/ROB entries, decode clones and instructions with equal
    operands."""

    fu_class: FUClass
    latency: int
    is_load: bool
    is_store: bool
    is_mem: bool
    is_control: bool
    is_branch: bool
    #: decides the next fetch PC: a branch or jump, a halt (ebreak,
    #: ecall), or a SIMT region marker (simt_s, simt_e)
    steers: bool
    is_fp: bool
    #: registers read, (regfile, index) pairs with x0 reads elided
    sources: tuple
    #: the (rs1, rs2, rs3) slots: a (regfile, index) pair or None
    source_slots: tuple
    #: register written, (regfile, index), or None
    dest: tuple
    #: register lane committed: ``dest``, or ``("x", rs1)`` for simt_e
    lane: tuple


#: (mnemonic, rd, rs1, rs2, rs3) -> Facts. The facts depend on nothing
#: else, so instructions with equal operands share one object: decode
#: clones and repeated operand tuples cost no copy. Every workload in
#: the registry together has ~450 distinct keys; random torture
#: programs churn through many more, so the table is bounded and
#: cleared when full, like the decoder's word cache.
_FACTS = {}
_FACTS_MAX = 1 << 12


#: mnemonics outside the branch/jump classes that still steer fetch: a
#: halt stops it, and a SIMT region may take it over or loop back
_STEERING = frozenset(("ebreak", "ecall", "simt_s", "simt_e"))


def _derive_facts(instr):
    info = MNEMONICS[instr.mnemonic]
    fu = info.fu_class
    slots = tuple(
        None if regfile is None or (regfile == "x" and index == 0)
        else (regfile, index)
        for regfile, index in ((info.rs1_file, instr.rs1),
                               (info.rs2_file, instr.rs2),
                               (info.rs3_file, instr.rs3)))
    if info.rd_file is None or (info.rd_file == "x" and instr.rd == 0):
        dest = None
    else:
        dest = (info.rd_file, instr.rd)
    return Facts(
        fu_class=fu, latency=info.latency,
        is_load=fu is FUClass.LOAD, is_store=fu is FUClass.STORE,
        is_mem=fu is FUClass.LOAD or fu is FUClass.STORE,
        is_control=fu is FUClass.BRANCH or fu is FUClass.JUMP,
        is_branch=fu is FUClass.BRANCH,
        steers=(fu is FUClass.BRANCH or fu is FUClass.JUMP
                or instr.mnemonic in _STEERING),
        is_fp=info.is_fp,
        sources=tuple(slot for slot in slots if slot is not None),
        source_slots=slots, dest=dest,
        lane=("x", instr.rs1) if instr.mnemonic == "simt_e" else dest)


@dataclass
class Instruction:
    """A decoded (or assembled) instruction.

    ``imm`` is always the sign-extended immediate; for branches and jumps
    it is the byte offset relative to the instruction's own address.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    rs3: int = 0
    imm: int = 0
    csr: int = 0
    addr: int = None
    raw: int = None
    label: str = field(default=None, compare=False)

    def __post_init__(self):
        # Reserve the facts binding among the construction-time
        # attributes: CPython keeps an instance's attributes inline only
        # while at most one more is added after __init__, and compute()
        # adds ``_handler``. A second late attribute would cost every
        # instruction a full dict (~830 bytes).
        self._facts = None

    @property
    def info(self):
        return MNEMONICS[self.mnemonic]

    @property
    def facts(self):
        """This instruction's :class:`Facts`, looked up on first use and
        bound as ``_facts`` (stripped on pickle, like ``_handler``).
        Instructions are fully built before any engine reads them; a
        field changed after that would leave the binding stale."""
        facts = self._facts
        if facts is None:
            key = (self.mnemonic, self.rd, self.rs1, self.rs2, self.rs3)
            facts = _FACTS.get(key)
            if facts is None:
                if len(_FACTS) >= _FACTS_MAX:
                    _FACTS.clear()
                facts = _FACTS[key] = _derive_facts(self)
            self._facts = facts
        return facts

    @property
    def fu_class(self):
        return self.facts.fu_class

    @property
    def latency(self):
        return self.facts.latency

    @property
    def sources(self):
        """Registers read, as (regfile, index) pairs. x0 reads are elided."""
        return list(self.facts.sources)

    @property
    def source_slots(self):
        """The (rs1, rs2, rs3) operand slots, positionally aligned.

        Each element is a (regfile, index) pair, or None when the slot
        is unused or reads the hard-wired zero register.  The non-None
        elements appear in exactly the order :attr:`sources` lists
        them, so an engine that wired its dependencies from ``sources``
        (which elides x0) can zip resolved values back into slot
        positions, substituting zero for the elided slots — reading
        ``sources`` positionally as rs1/rs2/rs3 misassigns operands
        whenever rs1 or rs2 is x0 (e.g. ``sub rd, x0, rs``)."""
        return list(self.facts.source_slots)

    @property
    def dest(self):
        """Register written, as a (regfile, index) pair, or None."""
        return self.facts.dest

    @property
    def lane(self):
        """Register lane this instruction's value is committed to, or
        None: :attr:`dest`, except that ``simt_e`` steps its control
        register ``rs1``."""
        return self.facts.lane

    @property
    def is_load(self):
        return self.facts.is_load

    @property
    def is_store(self):
        return self.facts.is_store

    @property
    def is_mem(self):
        return self.facts.is_mem

    @property
    def is_branch(self):
        return self.facts.is_branch

    @property
    def is_jump(self):
        return self.facts.fu_class is FUClass.JUMP

    @property
    def is_control(self):
        return self.facts.is_control

    @property
    def is_fp(self):
        return self.facts.is_fp

    @property
    def is_simt(self):
        return self.facts.fu_class is FUClass.SIMT

    @property
    def is_system(self):
        return self.facts.fu_class is FUClass.SYSTEM

    def __getstate__(self):
        # The decoder / compute() bind an execute thunk as ``_handler``;
        # closures don't pickle, so strip private keys and rebind lazily
        # on first compute() after unpickling.
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def __setstate__(self, state):
        self._facts = None
        self.__dict__.update(state)

    def __str__(self):
        from repro.asm.disassembler import format_instruction

        return format_instruction(self)
