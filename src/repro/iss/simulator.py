"""In-order functional RV32IMF simulator (golden reference).

Runs a :class:`repro.asm.Program` to completion, executing the DiAG
``simt_s``/``simt_e`` extensions with their sequential (non-pipelined)
semantics so the same binary produces identical architectural results
on the ISS, the OoO baseline, and the DiAG core.

Two execution paths share one set of semantics (docs/PERFORMANCE.md
§"ISS fast path"):

* :meth:`ISS.step` — one instruction at a time, dispatched through a
  computed table bound onto each ``Instruction`` at first execution
  (no mnemonic ``if``-chain). The lockstep oracle drives this path,
  one step per engine retirement.
* :meth:`ISS.run` / :meth:`ISS.run_to_boundary` — superblock
  execution: straight-line runs of the program that are entered
  often enough (:data:`repro.iss.superblock.HOT`) are compiled once
  into blocks of pre-resolved execute thunks
  (:mod:`repro.iss.superblock`) and the hot loop dispatches once per
  block, or once per stay in a hot loop whose blocks compiled into
  one looping region; colder lines are stepped scalar. A region keeps
  registers and stat counts in locals, flushed whenever it returns or
  raises, and reads single-page loads straight from the memory's
  pages. Both paths are bit-exact for architectural state, stats, the
  ``warm_trace`` stream and the ``write_log`` store stream; blocks
  that would overrun a step budget fall back to scalar stepping so
  pause boundaries land exactly.
"""

import enum
from dataclasses import dataclass, field

from repro.isa.instructions import MNEMONICS
from repro.iss.semantics import compute, finish_load
from repro.memory.main_memory import MainMemory

MASK32 = 0xFFFFFFFF

#: decode-indexed mnemonic slots: the mnemonic table is fixed at import
#: time, so per-ISS mnemonic tallies live in a flat list indexed by
#: slot instead of a per-step dict (``ISSStats.mnemonic_counts`` folds
#: the array back into a dict lazily).
SLOT_MNEMONICS = tuple(sorted(MNEMONICS))
MN_SLOTS = {mnemonic: slot for slot, mnemonic in enumerate(SLOT_MNEMONICS)}

#: a loop region's step budget inside an open SIMT region, where
#: ``run_to_boundary`` waives the budget (a region returns early only
#: at a block entry, which the run loop resumes exactly)
_WAIVED = 1 << 62

#: what the ISS feeds a functional-warming recorder (:func:`warm_mode`)
WARM_OFF, WARM_LINES, WARM_FRONT_END = 0, 1, 2


def warm_mode(recorder):
    """What the ISS feeds ``recorder``: nothing (None), every data
    access (``touch``), or also every control instruction when the
    recorder has a ``branch`` method — one that trains a front end."""
    if recorder is None:
        return WARM_OFF
    return WARM_FRONT_END if hasattr(recorder, "branch") else WARM_LINES


class SimError(Exception):
    """Fatal simulation error (bad PC, undecodable instruction, ...)."""


class HaltReason(enum.Enum):
    EBREAK = "ebreak"
    ECALL = "ecall"
    MAX_STEPS = "max_steps"


@dataclass
class _SimtRegion:
    """An active simt_s..simt_e region (sequential execution state)."""

    start_pc: int
    rc: int
    step: int       # latched value of r_step at simt_s
    end: int        # latched value of r_end at simt_s
    interval: int


@dataclass
class ISSStats:
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    fp_ops: int = 0
    simt_iterations: int = 0
    #: per-mnemonic tallies, indexed by :data:`MN_SLOTS`
    mn_counts: list = field(
        default_factory=lambda: [0] * len(SLOT_MNEMONICS))

    @property
    def mnemonic_counts(self):
        """The slot array folded into {mnemonic: count} (non-zero only)."""
        return {SLOT_MNEMONICS[slot]: count
                for slot, count in enumerate(self.mn_counts) if count}


class ISS:
    """Functional simulator. Construct, then :meth:`run`."""

    STACK_TOP = 0x7FFFF0

    def __init__(self, program, memory=None, trace=None, load_image=True):
        self.program = program
        self.memory = memory if memory is not None else MainMemory()
        if load_image:
            program.load_into(self.memory)
        self.pc = program.entry
        self.x = [0] * 32
        self.f = [0] * 32
        self.x[2] = self.STACK_TOP  # sp
        self.x[11] = 1  # a1: SPMD thread count (a0 = thread id = 0)
        self.csrs = {0x001: 0, 0x002: 0, 0x003: 0}
        self.stats = ISSStats()
        self.halt_reason = None
        self.trace = trace
        self._simt_stack = []
        self._pending_interrupt = None
        #: optional functional-warming recorder (the machine table's
        #: ``recorder``, e.g. :class:`repro.sampling.LineTrace`):
        #: ``touch(addr)`` is called at every data access and, when
        #: the recorder has one, ``branch(pc, instr, taken, target)``
        #: at every control instruction (:func:`warm_mode`), so
        #: sampled simulation can reconstruct cache recency and branch
        #: predictor state at a window boundary. Plain picklable
        #: data: checkpoints carry it (unlike the hook attributes).
        self.warm_trace = None
        #: superblock cache: pc -> compiled block for the *current*
        #: hook configuration. Closures capture the hooks, so the
        #: cache is invalidated whenever a hook identity changes and
        #: is never pickled (rebuilt lazily after restore).
        self._sb_cache = {}
        self._sb_warm = None

    # ----------------------------------------------------------- pickling

    def __getstate__(self):
        # Superblock thunks are closures over live objects (memory,
        # register files, hooks) — strip them; the cache rebuilds
        # lazily on the next run() and execution is bit-exact either
        # way, so checkpoints stay deterministic.
        state = self.__dict__.copy()
        state.pop("_sb_cache", None)
        state.pop("_sb_warm", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._sb_cache = {}
        self._sb_warm = None

    # ---------------------------------------------------------- registers

    def write_x(self, index, value):
        if index != 0:
            self.x[index] = value & MASK32

    # ----------------------------------------------------------- running

    def run(self, max_steps=5_000_000):
        """Run until ebreak/ecall or ``max_steps``; returns halt reason.

        ``max_steps`` is an *absolute* instruction count and a
        MAX_STEPS halt is a resumable pause, so run(N) → run(N+M)
        (possibly across a checkpoint) equals one run(N+M) exactly;
        ebreak/ecall halts are final."""
        if self.halt_reason is HaltReason.MAX_STEPS:
            self.halt_reason = None
        if self.trace is not None:
            return self._run_scalar(max_steps, boundary=False)
        return self._run_blocks(max_steps, boundary=False)

    def run_to_boundary(self, target_steps):
        """Run to the first window boundary at/after ``target_steps``.

        Like ``run(max_steps=target_steps)`` but the resumable
        MAX_STEPS pause is deferred until the SIMT region stack is
        empty: a timing engine warm-started mid-region would see a
        ``simt_e`` with no live ``simt_s`` and diverge, so sampling
        windows (``repro.sampling``) may only open at a SIMT boundary.
        ``target_steps`` is absolute, matching :meth:`run`. A final
        ebreak/ecall halt is always re-checked before the step-count
        comparison: a program halting exactly on the boundary step
        reports its real halt reason, never MAX_STEPS."""
        if self.halt_reason is HaltReason.MAX_STEPS:
            self.halt_reason = None
        if self.trace is not None:
            return self._run_scalar(target_steps, boundary=True)
        return self._run_blocks(target_steps, boundary=True)

    def _run_scalar(self, max_steps, boundary):
        """Instruction-at-a-time loop (trace hook attached, or

        reference semantics for the superblock equivalence tests).
        Hook presence is resolved once here, not per step."""
        step = self.step
        stats = self.stats
        simt_stack = self._simt_stack
        while self.halt_reason is None:
            if stats.instructions >= max_steps \
                    and not (boundary and simt_stack):
                self.halt_reason = HaltReason.MAX_STEPS
                break
            step()
        return self.halt_reason

    def _run_blocks(self, max_steps, boundary):
        """Superblock hot loop: dispatch once per straight-line block,
        or once per stay in a hot loop (a block that heads a compiled
        loop region runs the region, ``Block.loop``).

        Exactness contract: a block executes only when it fits the
        remaining step budget entirely (inside an open SIMT region the
        boundary pause is deferred, so the budget check is waived);
        otherwise execution falls back to scalar :meth:`step` so the
        MAX_STEPS pause lands on exactly the same instruction as the
        scalar loop. A region makes the same check before each of its
        blocks against the ``room`` it is passed, and holds no
        instruction that halts or opens or closes a SIMT region. A
        raise inside a region leaves ``pc`` at the start of the
        raising block (the region's ``at`` cell), as a raise inside a
        block does.
        ``halt_reason`` is re-checked at the loop head — before the
        step-count comparison — so a halt on the boundary step is
        reported as the halt, not the pause (see
        :meth:`run_to_boundary`)."""
        stats = self.stats
        simt_stack = self._simt_stack
        step = self.step
        cache = self._blocks()
        cache_get = cache.get
        at = [None]
        while self.halt_reason is None:
            if stats.instructions >= max_steps \
                    and not (boundary and simt_stack):
                self.halt_reason = HaltReason.MAX_STEPS
                break
            if self._pending_interrupt is not None:
                step()
                continue
            block = cache_get(self.pc)
            if block is None:
                block = self._compile(self.pc)
                if block is None:  # cold block: step its line
                    self._step_line(max_steps, boundary)
                    continue
            run = block.run
            if run is None:  # scalar-only instruction (simt/csr/...)
                step()
                continue
            room = _WAIVED if boundary and simt_stack \
                else max_steps - stats.instructions
            if block.length > room:
                step()  # partial block: finish the budget scalar-exact
                continue
            loop = block.loop
            if loop is None:
                self.pc = run()
                continue
            try:
                self.pc = loop(room, at)
            except BaseException:
                self.pc = at[0]
                raise
        return self.halt_reason

    def run_until_pc(self, target_pc, max_steps):
        """Execute until ``pc == target_pc``, a halt, or ``max_steps``
        further instructions — the lockstep oracle's SIMT catch-up
        fast path. Unlike :meth:`run` this never sets a MAX_STEPS
        pause: the caller inspects ``pc``/``halt_reason`` afterwards.
        A block runs only when the target pc cannot fall inside it, so
        the stop lands on exactly the same instruction as stepping."""
        stats = self.stats
        step = self.step
        limit = stats.instructions + max_steps
        if self.trace is not None:
            while self.halt_reason is None and self.pc != target_pc \
                    and stats.instructions < limit:
                step()
            return
        cache = self._blocks()
        cache_get = cache.get
        while self.halt_reason is None and stats.instructions < limit:
            pc = self.pc
            if pc == target_pc:
                return
            if self._pending_interrupt is not None:
                step()
                continue
            block = cache_get(pc)
            if block is None:
                block = self._compile(pc)
                if block is None:  # cold block: step its line
                    self._step_line(limit, False, target_pc)
                    continue
            if block.run is None \
                    or block.length > limit - stats.instructions \
                    or pc < target_pc <= pc + 4 * (block.length - 1):
                step()
                continue
            self.pc = block.run()

    # ------------------------------------------------------- superblocks

    def _blocks(self):
        """The superblock cache for the current hook configuration."""
        if self._sb_warm is not self.warm_trace:
            self._sb_cache = {}
            self._sb_warm = self.warm_trace
        return self._sb_cache

    def _compile(self, pc):
        """The block at ``pc``, cached for this ISS; None (uncached,
        so the next entry counts again) while the block is cold."""
        from repro.iss.superblock import compile_block
        block = compile_block(self, pc, self.warm_trace)
        if block is not None:
            self._sb_cache[pc] = block
        return block

    def _step_line(self, limit, boundary, target_pc=None):
        """Scalar-step the straight line at ``pc`` (a cold block).

        Stops after the instruction that halts or leaves the line (pc
        not sequential), or as soon as the run loop that called it
        would stop stepping: ``limit`` instructions reached (waived
        inside a SIMT region when ``boundary``) or ``pc ==
        target_pc``. The caller's loop head then makes that stop, so
        pauses land on exactly the scalar loop's instruction."""
        step = self.step
        stats = self.stats
        simt_stack = self._simt_stack
        while True:
            pc = self.pc
            step()
            if self.halt_reason is not None or self.pc != pc + 4 \
                    or self.pc == target_pc:
                return
            if stats.instructions >= limit \
                    and not (boundary and simt_stack):
                return

    # ----------------------------------------------------- checkpointing

    def save_state(self, meta=None):
        """Snapshot the full ISS (pc, x/f files, CSRs, memory image,
        stats, SIMT stack) into a :class:`repro.checkpoint.Checkpoint`.
        ``run(max_steps)`` compares against the absolute instruction
        count, so a restored ISS continues exactly where it stopped;
        the ``trace`` hook detaches and restores as None."""
        from repro import checkpoint
        return checkpoint.save_state(self, meta=meta)

    @classmethod
    def restore_state(cls, ckpt):
        from repro import checkpoint
        return checkpoint.restore_state(ckpt, expect=cls.__name__)

    def post_interrupt(self, vector):
        """Request an asynchronous interrupt (paper Section 5.1.4).

        Taken at the next instruction boundary: the interrupted PC is
        saved in mepc (0x341) and execution redirects to ``vector``.
        Because the ISS is sequential, every interrupt is trivially
        precise; the DiAG core and the OoO baseline implement the same
        architectural contract and are tested against it.
        """
        self._pending_interrupt = vector

    def step(self):
        """Execute exactly one instruction."""
        if self._pending_interrupt is not None:
            self.csrs[0x341] = self.pc & MASK32  # mepc
            self.pc = self._pending_interrupt
            self._pending_interrupt = None
        instr = self.program.instruction_at(self.pc)
        if instr is None:
            raise SimError(f"no instruction at pc={self.pc:#010x}")
        if self.trace is not None:
            self.trace(self.pc, instr)
        facts = instr.facts
        self._count(instr, facts)
        # Computed dispatch: system/SIMT/CSR instructions bind their
        # handler method onto the Instruction once; everything else
        # takes the dataflow path below.
        try:
            special = instr._iss_special
        except AttributeError:
            special = _SPECIAL_OPS.get(instr.mnemonic)
            instr._iss_special = special
        if special is not None:
            special(self, instr)
            return

        info = instr.info
        rs1 = (self.f[instr.rs1] if info.rs1_file == "f"
               else self.x[instr.rs1]) if info.rs1_file else 0
        rs2 = (self.f[instr.rs2] if info.rs2_file == "f"
               else self.x[instr.rs2]) if info.rs2_file else 0
        rs3 = self.f[instr.rs3] if info.rs3_file == "f" else 0
        result = compute(instr, self.pc, rs1, rs2, rs3)

        if result.mem_addr is not None:
            if self.warm_trace is not None:
                self.warm_trace.touch(result.mem_addr)
            if result.store_value is not None:
                self.memory.store(result.mem_addr, result.store_value,
                                  result.mem_size)
            else:
                raw = self.memory.load(result.mem_addr, result.mem_size)
                result.value = finish_load(instr, raw)

        if result.value is not None and info.rd_file is not None:
            if info.rd_file == "f":
                self.f[instr.rd] = result.value & MASK32
            else:
                self.write_x(instr.rd, result.value)

        if self.warm_trace is not None and \
                (facts.is_branch or instr.mnemonic in ("jal", "jalr")) \
                and warm_mode(self.warm_trace) == WARM_FRONT_END:
            self.warm_trace.branch(self.pc, instr, result.taken,
                                   result.target)

        if result.taken:
            if facts.is_branch:
                self.stats.taken_branches += 1
            self.pc = result.target
        else:
            self.pc += 4

    # ------------------------------------------- special-op dispatch

    def _op_ebreak(self, instr):
        self.halt_reason = HaltReason.EBREAK

    def _op_ecall(self, instr):
        self.halt_reason = HaltReason.ECALL

    def _op_simt_s(self, instr):
        self._simt_start(instr)
        self.pc += 4

    def _op_simt_e(self, instr):
        self._simt_end(instr)

    def _op_csr(self, instr):
        self._csr_op(instr)
        self.pc += 4

    # -------------------------------------------------------------- simt

    def _simt_start(self, instr):
        region = _SimtRegion(
            start_pc=self.pc + 4,
            rc=instr.rd,
            step=self.x[instr.rs1],
            end=self.x[instr.rs2],
            interval=instr.imm,
        )
        self._simt_stack.append(region)

    def _simt_end(self, instr):
        if not self._simt_stack:
            raise SimError(f"simt_e at {self.pc:#x} without active simt_s")
        region = self._simt_stack[-1]
        if instr.rs1 != region.rc:
            raise SimError(
                f"simt_e rc (x{instr.rs1}) does not match simt_s rc "
                f"(x{region.rc})")
        self.stats.simt_iterations += 1
        step = region.step - 0x100000000 if region.step & 0x80000000 \
            else region.step
        end = region.end - 0x100000000 if region.end & 0x80000000 \
            else region.end
        rc_val = self.x[region.rc]
        rc_signed = rc_val - 0x100000000 if rc_val & 0x80000000 else rc_val
        next_rc = rc_signed + step
        more = (next_rc < end) if step > 0 else \
               (next_rc > end) if step < 0 else False
        if more:
            self.write_x(region.rc, next_rc)
            self.pc = region.start_pc
        else:
            self._simt_stack.pop()
            self.pc += 4

    # --------------------------------------------------------------- csr

    def _csr_op(self, instr):
        mnem = instr.mnemonic
        number = instr.csr
        old = self._csr_read(number)
        write_val = instr.imm if mnem.endswith("i") else self.x[instr.rs1]
        if mnem.startswith("csrrw"):
            new = write_val
        elif mnem.startswith("csrrs"):
            new = old | write_val
        else:  # csrrc
            new = old & ~write_val
        if new != old and number < 0xC00:  # read-only CSR space is 0xCxx
            self.csrs[number] = new & MASK32
        self.write_x(instr.rd, old)

    def _csr_read(self, number):
        if number in (0xC00, 0xC01):  # cycle/time ~ instret functionally
            return self.stats.instructions & MASK32
        if number == 0xC02:
            return self.stats.instructions & MASK32
        if number in (0xC80, 0xC81, 0xC82):
            return (self.stats.instructions >> 32) & MASK32
        if number == 0xF14:  # mhartid
            return 0
        return self.csrs.get(number, 0)

    # ------------------------------------------------------------- stats

    def _count(self, instr, facts):
        """Count one step of ``instr``, whose :class:`Facts` the
        caller has read once (each ``is_*`` property re-reads them)."""
        stats = self.stats
        stats.instructions += 1
        if facts.is_load:
            stats.loads += 1
        elif facts.is_store:
            stats.stores += 1
        elif facts.is_branch:
            stats.branches += 1
        if facts.is_fp:
            stats.fp_ops += 1
        try:
            slot = instr._mn_slot
        except AttributeError:
            slot = MN_SLOTS[instr.mnemonic]
            instr._mn_slot = slot
        stats.mn_counts[slot] += 1


#: computed-dispatch table for instructions that touch simulator state
#: beyond the dataflow path; bound per-Instruction on first execution.
_SPECIAL_OPS = {
    "ebreak": ISS._op_ebreak,
    "ecall": ISS._op_ecall,
    "simt_s": ISS._op_simt_s,
    "simt_e": ISS._op_simt_e,
    "csrrw": ISS._op_csr,
    "csrrs": ISS._op_csr,
    "csrrc": ISS._op_csr,
    "csrrwi": ISS._op_csr,
    "csrrsi": ISS._op_csr,
    "csrrci": ISS._op_csr,
}
