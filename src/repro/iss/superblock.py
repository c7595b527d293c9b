"""Superblock compiler for the ISS hot path.

:func:`compile_block` turns the maximal straight-line run of decoded
instructions starting at a pc into a :class:`Block` whose ``run``
callable executes the whole run — every instruction, the per-block
stat deltas, and the terminal control transfer — in **one generated
Python function**. All decode-time work is burned into the source at
compile time: operand register-file selection, the x0 write guard,
immediates and shift amounts as literals, branch targets and
``lui``/``auipc`` constants folded, per-mnemonic operations inlined
(integer ALU) or bound as closure-scope helpers (M-extension,
softfloat). The hot loop in
:meth:`repro.iss.simulator.ISS._run_blocks` then dispatches once per
block instead of once per instruction.

Compile on heat: a ``compile()`` + ``exec`` costs far more than
stepping a short line a few times, and most blocks of a fresh program
(a torture cell, a fault trial's golden run) are entered only once.
So a block is compiled on its :data:`HOT`-th entry; before that
:func:`compile_block` returns None ("cold") and the run loop steps the
line scalar (:meth:`repro.iss.simulator.ISS._step_line`).

Generated factories are cached *per Program* keyed by (pc, warm mode)
— the source depends only on the instruction bytes and on what the
attached warming recorder is fed (:func:`repro.iss.simulator.
warm_mode`: nothing, data accesses, or data accesses and control
instructions; a mode's blocks call only what it needs) — while each ISS
instance binds its own register files/memory/stats through the
factory call, so fault campaigns and torture cells re-running one
program never recompile. Until its factory is built, a key's entry in
that cache is the block's entry count (an int). The cache is a private
attribute, which ``Program.__getstate__`` strips from pickles and
checkpoints.

Exactness rules (enforced by tests/test_iss_superblock.py):

* Generated code computes the same 32-bit patterns as the scalar
  :meth:`ISS.step` path — same masking, same signed-immediate
  handling, same ``jalr`` target-before-link ordering, loads still
  performed when the destination is x0.
* Generated loads and stores call ``memory.load``/``memory.store``,
  so every write goes through ``MainMemory.store`` and reaches its
  ``write_log`` (the lockstep oracle's write stream).
* ``simt_s``/``simt_e``, CSR ops (they read the live instruction
  counter) and unknown mnemonics never enter a block: the run loop
  falls back to scalar stepping for them (``Block.run is None``).
"""

from repro.iss.semantics import (LOAD_SIGNED, LOAD_SIZES, STORE_SIZES,
                                 _ALU_IMM, _ALU_OPS, _BRANCH_OPS,
                                 _FP_BINARY, _FP_FMA, _FP_UNARY)
from repro.iss.simulator import (MASK32, MN_SLOTS, WARM_FRONT_END,
                                 WARM_LINES, HaltReason, warm_mode)

#: straight-line run length cap: bounds compile latency and the
#: scalar-stepped tail when a block would overrun a step budget
MAX_BLOCK = 256

#: block entries (per Program and warm mode) before a block is
#: compiled; colder entries step the line scalar. 8 is the knee of
#: the prescreen sweep in docs/PERFORMANCE.md §6.
HOT = 8

#: control/system terminals a block may end with (inclusive)
_TERMINALS = frozenset(_BRANCH_OPS) | {"jal", "jalr", "ebreak", "ecall"}

#: integer ops whose results need no re-mask when inlined on
#: already-masked operands (bitwise/compare/shift-right)
_INT_RR = {
    "add": "(x[{a}] + x[{b}]) & 4294967295",
    "sub": "(x[{a}] - x[{b}]) & 4294967295",
    "sll": "(x[{a}] << (x[{b}] & 31)) & 4294967295",
    "srl": "x[{a}] >> (x[{b}] & 31)",
    "sra": "((x[{a}] - ((x[{a}] & 2147483648) << 1)) "
           ">> (x[{b}] & 31)) & 4294967295",
    "slt": "1 if (x[{a}] - ((x[{a}] & 2147483648) << 1)) "
           "< (x[{b}] - ((x[{b}] & 2147483648) << 1)) else 0",
    "sltu": "1 if x[{a}] < x[{b}] else 0",
    "xor": "x[{a}] ^ x[{b}]",
    "or": "x[{a}] | x[{b}]",
    "and": "x[{a}] & x[{b}]",
}

#: branch condition expressions (operands are masked patterns)
_BRANCH_EXPR = {
    "beq": "x[{a}] == x[{b}]",
    "bne": "x[{a}] != x[{b}]",
    "bltu": "x[{a}] < x[{b}]",
    "bgeu": "x[{a}] >= x[{b}]",
    "blt": "(x[{a}] - ((x[{a}] & 2147483648) << 1)) "
           "< (x[{b}] - ((x[{b}] & 2147483648) << 1))",
    "bge": "(x[{a}] - ((x[{a}] & 2147483648) << 1)) "
           ">= (x[{b}] - ((x[{b}] & 2147483648) << 1))",
}

#: integer ops dispatched through a helper function (64-bit
#: intermediates / division corner cases stay in one place)
_INT_HELPERS = {m: _ALU_OPS[m] for m in
                ("mul", "mulh", "mulhsu", "mulhu",
                 "div", "divu", "rem", "remu")}

_STRAIGHT = (set(_ALU_OPS) | set(_ALU_IMM) | set(_FP_UNARY)
             | set(_FP_FMA) | set(_FP_BINARY) | set(LOAD_SIZES)
             | set(STORE_SIZES) | {"fence", "lui", "auipc"})


class Block:
    """One bound superblock (or the scalar-fallback sentinel).

    ``run is None`` marks a pc the run loop must step scalar;
    otherwise ``run()`` executes the whole block — stat deltas
    included — and returns the next pc."""

    __slots__ = ("run", "length")

    def __init__(self, run, length):
        self.run = run
        self.length = length


#: shared sentinel for pcs that must execute through step()
SCALAR = Block(None, 0)


def _signed_literal(value):
    """imm as a source literal, parenthesized when negative."""
    return f"({value})" if value < 0 else f"{value}"


def _int_ri_expr(mnem, a, imm):
    """RHS for a reg-imm integer op (imm folded as a literal)."""
    base = _ALU_IMM[mnem]
    if base == "add":
        return f"(x[{a}] + {_signed_literal(imm)}) & 4294967295"
    if base in ("xor", "or", "and"):
        op = {"xor": "^", "or": "|", "and": "&"}[base]
        return f"x[{a}] {op} {imm & MASK32}"
    if base == "slt":
        return (f"1 if (x[{a}] - ((x[{a}] & 2147483648) << 1)) "
                f"< {_signed_literal(imm)} else 0")
    if base == "sltu":
        return f"1 if x[{a}] < {imm & MASK32} else 0"
    sh = imm & 31
    if base == "sll":
        return f"(x[{a}] << {sh}) & 4294967295"
    if base == "srl":
        return f"x[{a}] >> {sh}"
    # srai
    return (f"((x[{a}] - ((x[{a}] & 2147483648) << 1)) >> {sh}) "
            f"& 4294967295")


class _Codegen:
    """Accumulates source lines + closure-scope helpers for one block."""

    def __init__(self, mode):
        self.lines = []
        self.helpers = {}
        self.touch = mode >= WARM_LINES
        self.branch = mode == WARM_FRONT_END

    def helper(self, value):
        name = f"_h{len(self.helpers)}"
        self.helpers[name] = value
        return name

    def emit(self, *lines):
        self.lines.extend(lines)

    # ------------------------------------------------- straight-line

    def straight(self, instr, pc):
        mnem = instr.mnemonic
        info = instr.info
        rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
        imm = instr.imm
        if mnem in _ALU_IMM:
            if rd:
                self.emit(f"x[{rd}] = {_int_ri_expr(mnem, rs1, imm)}")
            return
        if mnem in _INT_RR:
            if rd:
                expr = _INT_RR[mnem].format(a=rs1, b=rs2)
                self.emit(f"x[{rd}] = {expr}")
            return
        if mnem in _INT_HELPERS:
            if rd:
                h = self.helper(_INT_HELPERS[mnem])
                self.emit(f"x[{rd}] = {h}(x[{rs1}], x[{rs2}])")
            return
        if mnem in LOAD_SIZES:
            self.load(instr)
            return
        if mnem in STORE_SIZES:
            self.store(instr)
            return
        if mnem == "lui":
            if rd:
                self.emit(f"x[{rd}] = {imm & MASK32}")
            return
        if mnem == "auipc":
            if rd:
                self.emit(f"x[{rd}] = {(pc + imm) & MASK32}")
            return
        if mnem in _FP_BINARY:
            dst = "f" if info.rd_file == "f" else "x"
            if dst == "x" and rd == 0:
                return
            h = self.helper(_FP_BINARY[mnem])
            ap = "f" if info.rs1_file == "f" else "x"
            bp = "f" if info.rs2_file == "f" else "x"
            self.emit(f"{dst}[{rd}] = {h}({ap}[{rs1}], {bp}[{rs2}]) "
                      f"& 4294967295")
            return
        if mnem in _FP_UNARY:
            dst = "f" if info.rd_file == "f" else "x"
            if dst == "x" and rd == 0:
                return
            h = self.helper(_FP_UNARY[mnem])
            ap = "f" if info.rs1_file == "f" else "x"
            self.emit(f"{dst}[{rd}] = {h}({ap}[{rs1}]) & 4294967295")
            return
        if mnem in _FP_FMA:
            h = self.helper(_FP_FMA[mnem])
            self.emit(f"f[{rd}] = {h}(f[{rs1}], f[{rs2}], "
                      f"f[{instr.rs3}]) & 4294967295")
            return
        # fence: architectural no-op (still counted)

    def load(self, instr):
        mnem = instr.mnemonic
        size = LOAD_SIZES[mnem]
        to_f = instr.info.rd_file == "f"
        self.emit(f"_a = (x[{instr.rs1}] + "
                  f"{_signed_literal(instr.imm)}) & 4294967295")
        if self.touch:
            self.emit("touch(_a)")
        self.emit(f"_v = mem.load(_a, {size})")
        if mnem in LOAD_SIGNED:
            sign = 1 << (size * 8 - 1)
            self.emit(f"if _v & {sign}:",
                      f"    _v = (_v - {sign << 1}) & 4294967295")
        if to_f:
            self.emit(f"f[{instr.rd}] = _v")
        elif instr.rd:
            self.emit(f"x[{instr.rd}] = _v")

    def store(self, instr):
        src = "f" if instr.info.rs2_file == "f" else "x"
        self.emit(f"_a = (x[{instr.rs1}] + "
                  f"{_signed_literal(instr.imm)}) & 4294967295")
        if self.touch:
            self.emit("touch(_a)")
        self.emit(f"mem.store(_a, {src}[{instr.rs2}], "
                  f"{STORE_SIZES[instr.mnemonic]})")

    # ----------------------------------------------------- terminals

    def terminal(self, instr, pc):
        mnem = instr.mnemonic
        if mnem in _BRANCH_EXPR:
            cond = _BRANCH_EXPR[mnem].format(a=instr.rs1, b=instr.rs2)
            target = (pc + instr.imm) & MASK32
            fall = pc + 4
            if self.branch:
                iname = self.helper(instr)
                self.emit(f"_t = {cond}",
                          f"branch({pc}, {iname}, _t, {target})",
                          "if _t:",
                          "    stats.taken_branches += 1",
                          f"    return {target}",
                          f"return {fall}")
            else:
                self.emit(f"if {cond}:",
                          "    stats.taken_branches += 1",
                          f"    return {target}",
                          f"return {fall}")
            return
        if mnem == "jal":
            target = (pc + instr.imm) & MASK32
            if instr.rd:
                self.emit(f"x[{instr.rd}] = {(pc + 4) & MASK32}")
            if self.branch:
                iname = self.helper(instr)
                self.emit(f"branch({pc}, {iname}, True, {target})")
            self.emit(f"return {target}")
            return
        if mnem == "jalr":
            # target resolves before the link write: rd may alias rs1
            self.emit(f"_t = (x[{instr.rs1}] + "
                      f"{_signed_literal(instr.imm)}) & 4294967294")
            if instr.rd:
                self.emit(f"x[{instr.rd}] = {(pc + 4) & MASK32}")
            if self.branch:
                iname = self.helper(instr)
                self.emit(f"branch({pc}, {iname}, True, _t)")
            self.emit("return _t")
            return
        # ebreak / ecall: final halt, pc stays on the instruction
        reason = HaltReason.EBREAK if mnem == "ebreak" \
            else HaltReason.ECALL
        self.emit(f"iss.halt_reason = {self.helper(reason)}",
                  f"return {pc}")

    # -------------------------------------------------------- output

    def source(self, name, counts):
        """Assemble the factory source; stat deltas are the prologue
        (the scalar path also counts before executing)."""
        prologue = [f"stats.instructions += {counts['length']}"]
        for field in ("loads", "stores", "branches", "fp_ops"):
            if counts[field]:
                prologue.append(f"stats.{field} += {counts[field]}")
        for slot, tally in sorted(counts["mn"].items()):
            prologue.append(f"mn[{slot}] += {tally}")
        body = "\n".join(f"        {line}"
                         for line in prologue + self.lines)
        params = "".join(f", {h}" for h in self.helpers)
        return (f"def _make(x, f, mem, stats, mn, touch, branch, iss"
                f"{params}):\n"
                f"    def {name}():\n{body}\n"
                f"    return {name}\n")


def _build_factory(program, start_pc, mode):
    """Compile the superblock source at ``start_pc`` for warm ``mode``;
    returns (factory, helper values, length) or None for scalar
    territory."""
    gen = _Codegen(mode)
    mn = {}
    counts = {"length": 0, "loads": 0, "stores": 0, "branches": 0,
              "fp_ops": 0, "mn": mn}
    pc = start_pc
    terminated = False
    while True:
        instr = program.instruction_at(pc)
        if instr is None:
            break
        mnem = instr.mnemonic
        terminal = mnem in _TERMINALS
        if not terminal and mnem not in _STRAIGHT:
            break  # SIMT / CSR / unknown: scalar territory
        counts["length"] += 1
        slot = MN_SLOTS[mnem]
        mn[slot] = mn.get(slot, 0) + 1
        if instr.is_load:
            counts["loads"] += 1
        elif instr.is_store:
            counts["stores"] += 1
        elif instr.is_branch:
            counts["branches"] += 1
        if instr.is_fp:
            counts["fp_ops"] += 1
        if terminal:
            gen.terminal(instr, pc)
            terminated = True
            break
        gen.straight(instr, pc)
        pc += 4
        if counts["length"] >= MAX_BLOCK:
            break
    if counts["length"] == 0:
        return None
    if not terminated:
        gen.emit(f"return {pc}")  # fall through to the next block
    name = f"_sb_{start_pc:x}"
    source = gen.source(name, counts)
    namespace = {}
    exec(compile(source, f"<superblock@{start_pc:#x}>", "exec"),
         {"__builtins__": {}}, namespace)
    return (namespace["_make"], tuple(gen.helpers.values()),
            counts["length"], source)


def block_source(program, pc, mode=0):
    """The generated source of the block at ``pc`` for warm ``mode``
    (debug/tests)."""
    entry = _factories(program).get((pc, mode))
    if entry is None or entry.__class__ is int:
        entry = _build_factory(program, pc, mode)
    return entry[3] if entry else None


def _factories(program):
    try:
        return program._sb_factories
    except AttributeError:
        cache = program._sb_factories = {}
        return cache


def compile_block(iss, start_pc, warm):
    """The bound superblock starting at ``start_pc`` for ``iss``, or
    None while the block is cold.

    Each call is one block entry. An entry with no cached factory
    bumps the block's count in the Program's factory cache and returns
    None until the :data:`HOT`-th entry, which builds the factory in
    the count's place. Returns :data:`SCALAR` when the first
    instruction must run through the scalar path (SIMT/CSR/unknown
    mnemonic, or no instruction at the pc — step() then raises the
    canonical SimError). Factories are cached on the Program; only
    the cheap binding call is per-ISS, and it binds the recorder's
    ``touch``/``branch`` methods so a block calls them directly."""
    program = iss.program
    factories = _factories(program)
    mode = warm_mode(warm)
    key = (start_pc, mode)
    entry = factories.get(key, 0)
    if entry.__class__ is int:
        if entry + 1 < HOT:
            factories[key] = entry + 1
            return None
        entry = factories[key] = _build_factory(program, start_pc, mode)
    if entry is None:
        return SCALAR
    factory, helpers, length, _ = entry
    touch = warm.touch if mode else None
    branch = warm.branch if mode == WARM_FRONT_END else None
    run = factory(iss.x, iss.f, iss.memory, iss.stats,
                  iss.stats.mn_counts, touch, branch, iss, *helpers)
    return Block(run, length)
