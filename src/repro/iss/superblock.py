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
* Every generated store calls ``memory.store``, so every write goes
  through ``MainMemory.store`` and reaches its ``write_log`` (the
  lockstep oracle's write stream). A block's loads call
  ``memory.load``; a region's read the page ``bytearray`` straight
  from the memory's page dict (bound with the region) and call
  ``memory.load`` only for a page never written or an access that
  crosses into the next page.
* ``simt_s``/``simt_e``, CSR ops (they read the live instruction
  counter), the halting ``ebreak``/``ecall`` and unknown mnemonics
  never enter a block: the run loop falls back to scalar stepping for
  them (``Block.run is None``), and a block that reaches one ends
  before it. A halt runs once per run, so stepping it costs nothing,
  and no generated code needs the ISS itself: it binds only the
  ISS's register files, memory and stats, so no block closes an
  ISS -> block cache -> block -> ISS reference cycle.

Loop regions: a block whose terminal ``b*``/``jal`` jumps back to a
head at or before its own start is a loop latch. When a latch gets hot
(its factory is built), :func:`_build_region` compiles the loop's
*region* — every straight-line block reachable from the head without
leaving the span from the head to the latch — into one more generated
function that loops internally, dispatching block to block on a local
``pc`` (an ``if pc == ...`` chain in address order, so an iteration
that only moves forward walks the chain once). Each block keeps its
recorder calls, in the block's order, and is preceded by the run
loop's "does the whole block fit the budget" check against ``room``,
the caller's remaining step budget; so ``run(N)``, ``run_to_boundary``
and checkpoint splits stop on exactly the same instruction as
block-at-a-time dispatch. Registers and stat counts live in locals: a
region loads every register it names at entry and counts each
block's entries (and its taken branches); one ``finally`` stores the
written registers back and folds the counts into the stats as
constant multiples of each block's deltas, so a return or a raise
leaves the registers and stats that block-at-a-time dispatch leaves
(a block's deltas count at its entry, as its prologue does). The
``finally`` also writes the start pc of the block it stopped in to the
caller's one-item list ``at``, which the run loop makes ``ISS.pc``
after a raise, as block dispatch leaves it; the region never holds
the ISS itself, which would make ISS -> block cache -> region -> ISS
a reference cycle. A region holds no ``ebreak``/``ecall``, ``simt_*``,
CSR or unknown instruction (no block does), so nothing in it halts or
changes the SIMT stack. Every transfer that leaves the region — a
target outside it, any ``jalr``, an exhausted budget — returns the
next pc.
The head's :class:`Block` carries the bound region as ``loop``;
:meth:`repro.iss.simulator.ISS._run_blocks` calls it in place of
``run`` (``run_until_pc`` keeps per-block dispatch). Region factories
share the Program's factory cache under (head, warm mode,
:data:`LOOP`); a region larger than :data:`MAX_REGION` instructions is
not built (its cache entry is None).
"""

import struct
from typing import NamedTuple

from repro.iss.semantics import (LOAD_SIGNED, LOAD_SIZES, STORE_SIZES,
                                 _ALU_IMM, _ALU_OPS, _BRANCH_OPS,
                                 _FP_BINARY, _FP_FMA, _FP_UNARY)
from repro.iss.simulator import (MASK32, MN_SLOTS, WARM_FRONT_END,
                                 WARM_LINES, warm_mode)
from repro.memory.main_memory import _PAGE_BITS, _PAGE_MASK

#: straight-line run length cap: bounds compile latency and the
#: scalar-stepped tail when a block would overrun a step budget
MAX_BLOCK = 256

#: block entries (per Program and warm mode) before a block is
#: compiled; colder entries step the line scalar. 8 is the knee of
#: the prescreen sweep in docs/PERFORMANCE.md §6.
HOT = 8

#: a loop region's size cap, in instructions summed over its blocks
#: (blocks may overlap): bounds region compile latency and source size
MAX_REGION = 256

#: third key field of a loop region's factory-cache entry
LOOP = "loop"

#: control transfers a block may end with (inclusive)
_TERMINALS = frozenset(_BRANCH_OPS) | {"jal", "jalr"}

#: integer ops whose results need no re-mask when inlined on
#: already-masked operands (bitwise/compare/shift-right); ``{a}`` and
#: ``{b}`` are the operands' register expressions (:meth:`_Codegen.reg`)
_INT_RR = {
    "add": "({a} + {b}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "sll": "({a} << ({b} & 31)) & 4294967295",
    "srl": "{a} >> ({b} & 31)",
    "sra": "(({a} - (({a} & 2147483648) << 1)) "
           ">> ({b} & 31)) & 4294967295",
    "slt": "1 if ({a} ^ 2147483648) < ({b} ^ 2147483648) else 0",
    "sltu": "1 if {a} < {b} else 0",
    "xor": "{a} ^ {b}",
    "or": "{a} | {b}",
    "and": "{a} & {b}",
}

#: branch condition expressions (operands are masked patterns; a
#: signed comparison flips both sign bits and compares unsigned)
_BRANCH_EXPR = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
    "blt": "({a} ^ 2147483648) < ({b} ^ 2147483648)",
    "bge": "({a} ^ 2147483648) >= ({b} ^ 2147483648)",
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
    included — and returns the next pc. ``loop``, when set, is the
    bound region of the loop this block heads: ``loop(room, at)`` runs
    blocks of the loop while each fits ``room`` more instructions and
    returns the pc it stopped at (also written to ``at[0]``, which
    holds the raising block's pc after a raise)."""

    __slots__ = ("run", "length", "loop")

    def __init__(self, run, length):
        self.run = run
        self.length = length
        self.loop = None


class _Factory(NamedTuple):
    """A compiled block or region, cached on the Program."""

    make: object      # _make(x, f, mem, pages, stats, mn, touch, branch,
                      #       ...)
    helpers: tuple    # closure-scope helper values, in parameter order
    length: int       # instructions (a region: summed over its blocks)
    source: str
    #: the loop head a latch block's terminal jumps back to; None for
    #: any other block and for a region
    head: object


#: shared sentinel for pcs that must execute through step()
SCALAR = Block(None, 0)


def _signed_literal(value):
    """imm as a source literal, parenthesized when negative."""
    return f"({value})" if value < 0 else f"{value}"


def _int_ri_expr(mnem, a, imm):
    """RHS for a reg-imm integer op on register expression ``a`` (imm
    folded as a literal)."""
    base = _ALU_IMM[mnem]
    if base == "add":
        if not imm:
            return a  # mv: the source is already masked
        return f"({a} + {_signed_literal(imm)}) & 4294967295"
    if base in ("xor", "or", "and"):
        op = {"xor": "^", "or": "|", "and": "&"}[base]
        return f"{a} {op} {imm & MASK32}"
    if base == "slt":
        return (f"1 if ({a} ^ 2147483648) "
                f"< {(imm & MASK32) ^ 2147483648} else 0")
    if base == "sltu":
        return f"1 if {a} < {imm & MASK32} else 0"
    sh = imm & 31
    if base == "sll":
        return f"({a} << {sh}) & 4294967295"
    if base == "srl":
        return f"{a} >> {sh}"
    # srai
    return f"(({a} - (({a} & 2147483648) << 1)) >> {sh}) & 4294967295"


#: a region's inline multi-byte page reads, by access size
_UNPACK = {2: struct.Struct("<H").unpack_from,
           4: struct.Struct("<I").unpack_from}


class _Codegen:
    """Accumulates source lines + closure-scope helpers for one block,
    or for the blocks of one loop region (``entries``: the region's
    block start pcs; ``start``: the block being emitted)."""

    def __init__(self, mode, entries=()):
        self.lines = []
        self.helpers = {}
        self.touch = mode >= WARM_LINES
        self.branch = mode == WARM_FRONT_END
        self.entries = entries
        self.start = None
        #: a region's register locals: (file, index) -> local name,
        #: and the ones it writes
        self.named = {}
        self.written = set()
        self.unpackers = {}

    def reg(self, file, index, write=False):
        """The source naming register ``index`` of register file
        ``file`` ("x" or "f"): the list item in a block, a local in a
        region (:func:`_build_region` loads every named register at
        entry and stores every ``write`` one back on exit)."""
        if not self.entries:
            return f"{file}[{index}]"
        if write:
            self.written.add((file, index))
        return self.named.setdefault((file, index), f"_{file}{index}")

    def jump(self, target):
        """Lines that pass control to the literal pc ``target``: the
        next block of the region's chain (``continue`` back to the
        chain's top for a target at or before this block), or a
        return (a region leaves its loop to return ``pc`` after its
        ``finally``)."""
        if target not in self.entries:
            if self.entries:
                return [f"pc = {target}", "break"]
            return [f"return {target}"]
        if target <= self.start:
            return [f"pc = {target}", "continue"]
        return [f"pc = {target}"]

    def taken(self):
        """The line counting a taken conditional branch."""
        if self.entries:
            return "_tk += 1"
        return "stats.taken_branches += 1"

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
        reg = self.reg
        if mnem in _ALU_IMM:
            if rd:
                expr = _int_ri_expr(mnem, reg("x", rs1), imm)
                self.emit(f"{reg('x', rd, True)} = {expr}")
            return
        if mnem in _INT_RR:
            if rd:
                expr = _INT_RR[mnem].format(a=reg("x", rs1),
                                            b=reg("x", rs2))
                self.emit(f"{reg('x', rd, True)} = {expr}")
            return
        if mnem in _INT_HELPERS:
            if rd:
                h = self.helper(_INT_HELPERS[mnem])
                self.emit(f"{reg('x', rd, True)} = "
                          f"{h}({reg('x', rs1)}, {reg('x', rs2)})")
            return
        if mnem in LOAD_SIZES:
            self.load(instr)
            return
        if mnem in STORE_SIZES:
            self.store(instr)
            return
        if mnem == "lui":
            if rd:
                self.emit(f"{reg('x', rd, True)} = {imm & MASK32}")
            return
        if mnem == "auipc":
            if rd:
                self.emit(f"{reg('x', rd, True)} = {(pc + imm) & MASK32}")
            return
        if mnem in _FP_BINARY:
            dst = "f" if info.rd_file == "f" else "x"
            if dst == "x" and rd == 0:
                return
            h = self.helper(_FP_BINARY[mnem])
            a = reg("f" if info.rs1_file == "f" else "x", rs1)
            b = reg("f" if info.rs2_file == "f" else "x", rs2)
            self.emit(f"{reg(dst, rd, True)} = {h}({a}, {b}) "
                      f"& 4294967295")
            return
        if mnem in _FP_UNARY:
            dst = "f" if info.rd_file == "f" else "x"
            if dst == "x" and rd == 0:
                return
            h = self.helper(_FP_UNARY[mnem])
            a = reg("f" if info.rs1_file == "f" else "x", rs1)
            self.emit(f"{reg(dst, rd, True)} = {h}({a}) & 4294967295")
            return
        if mnem in _FP_FMA:
            h = self.helper(_FP_FMA[mnem])
            self.emit(f"{reg('f', rd, True)} = {h}({reg('f', rs1)}, "
                      f"{reg('f', rs2)}, {reg('f', instr.rs3)}) "
                      f"& 4294967295")
            return
        # fence: architectural no-op (still counted)

    def address(self, instr):
        """The line computing a load/store's effective address ``_a``."""
        base = self.reg("x", instr.rs1)
        if not instr.imm:
            return f"_a = {base}"
        return (f"_a = ({base} + {_signed_literal(instr.imm)}) "
                f"& 4294967295")

    def load(self, instr):
        mnem = instr.mnemonic
        size = LOAD_SIZES[mnem]
        self.emit(self.address(instr))
        if self.touch:
            self.emit("touch(_a)")
        if self.entries:
            self.emit(*self.page_read(size))
        else:
            self.emit(f"_v = mem.load(_a, {size})")
        if mnem in LOAD_SIGNED:
            sign = 1 << (size * 8 - 1)
            self.emit(f"if _v & {sign}:",
                      f"    _v = (_v - {sign << 1}) & 4294967295")
        if instr.info.rd_file == "f":
            self.emit(f"{self.reg('f', instr.rd, True)} = _v")
        elif instr.rd:
            self.emit(f"{self.reg('x', instr.rd, True)} = _v")

    def page_read(self, size):
        """A region's load of ``size`` bytes at ``_a`` into ``_v``: read
        straight from the page ``bytearray`` (``page`` is the bound
        memory's ``pages.get``), or through ``mem.load`` for a page
        never written or an access that crosses into the next page."""
        lines = [f"_p = page(_a >> {_PAGE_BITS})"]
        if size == 1:
            return lines + [f"_v = mem.load(_a, 1) if _p is None "
                            f"else _p[_a & {_PAGE_MASK}]"]
        unpack = self.unpackers.get(size)
        if unpack is None:
            unpack = self.unpackers[size] = self.helper(_UNPACK[size])
        return lines + [f"_o = _a & {_PAGE_MASK}",
                        f"_v = {unpack}(_p, _o)[0] if _p is not None "
                        f"and _o <= {_PAGE_MASK + 1 - size} "
                        f"else mem.load(_a, {size})"]

    def store(self, instr):
        src = self.reg("f" if instr.info.rs2_file == "f" else "x",
                       instr.rs2)
        self.emit(self.address(instr))
        if self.touch:
            self.emit("touch(_a)")
        self.emit(f"mem.store(_a, {src}, "
                  f"{STORE_SIZES[instr.mnemonic]})")

    # ----------------------------------------------------- terminals

    def terminal(self, instr, pc):
        mnem = instr.mnemonic
        reg = self.reg
        if mnem in _BRANCH_EXPR:
            cond = _BRANCH_EXPR[mnem].format(a=reg("x", instr.rs1),
                                             b=reg("x", instr.rs2))
            target = _target(pc, instr)
            fall = pc + 4
            if self.branch:
                iname = self.helper(instr)
                self.emit(f"_t = {cond}",
                          f"branch({pc}, {iname}, _t, {target})",
                          "if _t:")
            else:
                self.emit(f"if {cond}:")
            taken = self.jump(target)
            self.emit(f"    {self.taken()}",
                      *(f"    {line}" for line in taken))
            if taken[-1].startswith("pc ="):  # on down the chain
                self.emit("else:",
                          *(f"    {line}" for line in self.jump(fall)))
            else:
                self.emit(*self.jump(fall))
            return
        if mnem == "jal":
            target = _target(pc, instr)
            if instr.rd:
                self.emit(f"{reg('x', instr.rd, True)} = "
                          f"{(pc + 4) & MASK32}")
            if self.branch:
                iname = self.helper(instr)
                self.emit(f"branch({pc}, {iname}, True, {target})")
            self.emit(*self.jump(target))
            return
        if mnem == "jalr":
            # target resolves before the link write: rd may alias rs1
            self.emit(f"_t = ({reg('x', instr.rs1)} + "
                      f"{_signed_literal(instr.imm)}) & 4294967294")
            if instr.rd:
                self.emit(f"{reg('x', instr.rd, True)} = "
                          f"{(pc + 4) & MASK32}")
            if self.branch:
                iname = self.helper(instr)
                self.emit(f"branch({pc}, {iname}, True, _t)")
            self.emit("return _t")

    # -------------------------------------------------------- output

    def source(self, name, params, body):
        """The factory source: ``_make`` binds the per-ISS state and
        the helpers, and returns function ``name``."""
        helpers = "".join(f", {h}" for h in self.helpers)
        text = "\n".join(f"        {line}" for line in body)
        return (f"def _make(x, f, mem, pages, stats, mn, touch, "
                f"branch{helpers}):\n"
                f"    def {name}({params}):\n{text}\n"
                f"    return {name}\n")


def _line(program, start_pc):
    """The instructions of the block at ``start_pc``, as (pc, instr)
    pairs: the straight-line run up to and including its first
    terminal, cut before a SIMT/CSR/unknown mnemonic or a pc with no
    instruction, and at :data:`MAX_BLOCK`."""
    line = []
    pc = start_pc
    while len(line) < MAX_BLOCK:
        instr = program.instruction_at(pc)
        if instr is None:
            break
        mnem = instr.mnemonic
        if mnem in _TERMINALS:
            line.append((pc, instr))
            break
        if mnem not in _STRAIGHT:
            break  # SIMT / CSR / unknown: scalar territory
        line.append((pc, instr))
        pc += 4
    return line


#: the ``ISSStats`` counters a block bumps by a per-block constant
#: (``taken_branches`` is counted where a branch is taken)
_BLOCK_STATS = ("instructions", "loads", "stores", "branches", "fp_ops")


def _emit_block(gen, line):
    """Emit ``line`` (a non-empty :func:`_line`) into ``gen``; returns
    its stat deltas as ``{field: count}`` (every :data:`_BLOCK_STATS`
    field, in order) and ``{mnemonic slot: count}``."""
    counts = dict.fromkeys(_BLOCK_STATS, 0)
    counts["instructions"] = len(line)
    mn = {}
    for pc, instr in line:
        slot = MN_SLOTS[instr.mnemonic]
        mn[slot] = mn.get(slot, 0) + 1
        facts = instr.facts
        if facts.is_load:
            counts["loads"] += 1
        elif facts.is_store:
            counts["stores"] += 1
        elif facts.is_branch:
            counts["branches"] += 1
        if facts.is_fp:
            counts["fp_ops"] += 1
        if instr.mnemonic in _TERMINALS:
            gen.terminal(instr, pc)
        else:
            gen.straight(instr, pc)
    last_pc, last = line[-1]
    if last.mnemonic not in _TERMINALS:
        gen.emit(*gen.jump(last_pc + 4))  # fall through to the next block
    return counts, mn


def _target(pc, instr):
    """The literal target of a ``b*``/``jal`` at ``pc``."""
    return (pc + instr.imm) & MASK32


def _finish(gen, name, params, body, length, head, label):
    """Compile ``gen``'s factory for function ``name`` into a
    :class:`_Factory`."""
    source = gen.source(name, params, body)
    namespace = {}
    exec(compile(source, label, "exec"), {"__builtins__": {}}, namespace)
    return _Factory(namespace["_make"], tuple(gen.helpers.values()),
                    length, source, head)


def _build_factory(program, start_pc, mode):
    """Compile the superblock source at ``start_pc`` for warm ``mode``;
    returns a :class:`_Factory`, or None for scalar territory."""
    line = _line(program, start_pc)
    if not line:
        return None
    gen = _Codegen(mode)
    # stat deltas are the prologue: the scalar path also counts
    # before executing
    counts, mn = _emit_block(gen, line)
    prologue = [f"stats.{name} += {count}"
                for name, count in counts.items() if count]
    prologue += [f"mn[{slot}] += {tally}"
                 for slot, tally in sorted(mn.items())]
    last_pc, last = line[-1]
    head = None
    if last.mnemonic == "jal" or last.mnemonic in _BRANCH_EXPR:
        target = _target(last_pc, last)
        if target <= start_pc:
            head = target  # a loop latch
    return _finish(gen, f"_sb_{start_pc:x}", "", prologue + gen.lines,
                   len(line), head, f"<superblock@{start_pc:#x}>")


def _region_lines(program, head, latch_pc):
    """{start pc: line} of the loop region: the blocks reachable from
    ``head`` without leaving [head, latch_pc]. A pc on scalar territory
    is an exit, not a member. None when the head is not a member or the
    region exceeds :data:`MAX_REGION` instructions."""
    lines = {}
    size = 0
    todo = [head]
    while todo:
        pc = todo.pop()
        if pc in lines or not head <= pc <= latch_pc:
            continue
        line = _line(program, pc)
        if not line:
            continue
        size += len(line)
        if size > MAX_REGION:
            return None
        lines[pc] = line
        last_pc, last = line[-1]
        mnem = last.mnemonic
        if mnem in _BRANCH_EXPR:
            todo += [_target(last_pc, last), last_pc + 4]
        elif mnem == "jal":
            todo.append(_target(last_pc, last))
        elif mnem != "jalr":
            todo.append(last_pc + 4)
    return lines if head in lines else None


def _build_region(program, head, latch_pc, mode):
    """Compile the loop region headed by ``head`` whose latch ends at
    ``latch_pc`` for warm ``mode``; returns a :class:`_Factory`, or
    None when there is no region (:func:`_region_lines`).

    The region keeps its registers and its stat counts in locals: it
    loads every register it names at entry, counts each block's entries
    in ``_c<n>`` and taken branches in ``_tk``, and its ``finally``
    stores the registers it writes back, folds the counts into
    ``stats``/``mn`` and writes its ``pc`` to ``at[0]`` -- on a return
    and on a raise alike, so it leaves the registers, stats and pc
    block-at-a-time dispatch leaves."""
    lines = _region_lines(program, head, latch_pc)
    if lines is None:
        return None
    gen = _Codegen(mode, frozenset(lines))
    loop = []
    # each stats field's and mnemonic slot's per-block fold terms
    fields = {name: [] for name in _BLOCK_STATS}
    slots = {}
    for index, start in enumerate(sorted(lines)):
        line = lines[start]
        gen.lines = []
        gen.start = start
        entered = f"_c{index}"
        counts, mn = _emit_block(gen, line)
        for name, count in counts.items():
            if count:
                fields[name].append(_times(entered, count))
        for slot, tally in mn.items():
            slots.setdefault(slot, []).append(_times(entered, tally))
        loop += [f"    if pc == {start}:",
                 f"        if room < {len(line)}:",
                 "            break",
                 f"        room -= {len(line)}",
                 f"        {entered} += 1"]
        loop += [f"        {text}" for text in gen.lines]
    if fields["branches"]:
        fields["taken_branches"] = ["_tk"]
    named = sorted(gen.named.items())
    body = [f"{name} = {file}[{index}]" for (file, index), name in named]
    body.append(" = ".join([f"_c{index}" for index in range(len(lines))]
                           + ["_tk", "0"]))
    if fields["loads"]:
        body.append("page = pages.get")
    body += [f"pc = {head}", "try:", "    while True:"]
    body += [f"    {text}" for text in loop]
    body += ["finally:", "    at[0] = pc"]
    body += [f"    {file}[{index}] = {name}"
             for (file, index), name in named
             if (file, index) in gen.written]
    body += [f"    stats.{name} += {' + '.join(terms)}"
             for name, terms in fields.items() if terms]
    body += [f"    mn[{slot}] += {' + '.join(slots[slot])}"
             for slot in sorted(slots)]
    body.append("return pc")
    return _finish(gen, f"_rg_{head:x}", "room, at", body,
                   sum(map(len, lines.values())), None,
                   f"<region@{head:#x}>")


def _times(counter, delta):
    """A fold term: ``delta`` per count of local ``counter``."""
    return counter if delta == 1 else f"{counter} * {delta}"


def block_source(program, pc, mode=0):
    """The generated source of the block at ``pc`` for warm ``mode``
    (debug/tests)."""
    entry = _factories(program).get((pc, mode))
    if entry is None or entry.__class__ is int:
        entry = _build_factory(program, pc, mode)
    return entry.source if entry else None


def region_source(program, head, mode=0):
    """The generated source of the loop region headed by ``head`` for
    warm ``mode``, or None while no hot latch has built it
    (debug/tests)."""
    entry = _factories(program).get((head, mode, LOOP))
    return entry.source if entry else None


def _factories(program):
    try:
        return program._sb_factories
    except AttributeError:
        cache = program._sb_factories = {}
        return cache


def _bind(entry, iss, warm, mode):
    """Bind ``entry``'s factory to ``iss`` (its register files, memory
    and the memory's page dict, stats) and the recorder's
    ``touch``/``branch`` methods, so generated code calls them
    directly."""
    touch = warm.touch if mode else None
    branch = warm.branch if mode == WARM_FRONT_END else None
    memory = iss.memory
    return entry.make(iss.x, iss.f, memory, memory._pages, iss.stats,
                      iss.stats.mn_counts, touch, branch, *entry.helpers)


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
    the cheap binding call is per-ISS.

    A latch's factory build also builds its loop's region (the loop is
    as hot as its latch) and binds it to the head's block if ``iss``
    has one; a head's block binds its region when it is compiled."""
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
        if entry is not None and entry.head is not None:
            _add_region(iss, factories, entry.head,
                        start_pc + 4 * (entry.length - 1), warm, mode)
    if entry is None:
        return SCALAR
    block = Block(_bind(entry, iss, warm, mode), entry.length)
    region = factories.get((start_pc, mode, LOOP))
    if region is not None:
        block.loop = _bind(region, iss, warm, mode)
    return block


def _add_region(iss, factories, head, latch_pc, warm, mode):
    """Build the region of the loop a hot latch closes (the first
    latch of a head to get hot sets the region's span) and bind it to
    the head's block in ``iss``, if that block is compiled."""
    key = (head, mode, LOOP)
    if key not in factories:
        factories[key] = _build_region(iss.program, head, latch_pc, mode)
    region = factories[key]
    block = iss._sb_cache.get(head)
    if region is not None and block is not None and block.loop is None:
        block.loop = _bind(region, iss, warm, mode)
