"""Lockstep co-simulation: a timing engine against the ISS golden model.

The oracle installs a ``commit_hook`` on the engine (DiAG ring or OoO
core) and steps a private :class:`repro.iss.simulator.ISS` instance once
per retirement, then compares the complete committed architectural
state — PC, x1–x31, f0–f31, and the ordered stream of memory writes —
at every boundary where both machines have executed the same prefix of
the program. Any mismatch raises a structured :class:`Divergence`
carrying the first bad instruction, both register files and the last N
committed operations.

Sync protocol (docs/VERIFICATION.md):

* Both machines start from identical state (same program image, sp =
  ``ArchLanes.STACK_TOP``, a0 = 0, a1 = 1).
* At each engine commit the ISS executes exactly one instruction and
  the two register files are compared — *except* across a pipelined
  SIMT region: the ring executes the whole ``simt_s``..``simt_e``
  region in closed form inside the ``simt_s`` commit, so the ISS is
  behind by the region's instruction count at that boundary.  The
  comparison is deferred and the ISS catches up (bounded sequential
  execution) when the next commit arrives at the instruction after the
  region; instruction counts must re-converge exactly.
* Memory writes are recorded by shadowing ``memory.store`` on both
  sides (installed after the program image is loaded, so only runtime
  stores are compared) and drained at each synchronized boundary.
* CSRs are *not* compared: the engines return their cycle counter for
  0xC00–0xC02 while the ISS returns its instruction count — a
  legitimate model difference, which is why the torture generator
  never emits CSR instructions.

The hook slots into :meth:`RingEngine._retire` / :meth:`OoOCore._retire`
after ``_commit`` and is deliberately not part of ``ff_setup``'s
skip-off list: fast-forward only ever skips quiescent spans in which
nothing retires, so observing commits is FF-safe and the oracle runs
with skipping on or off.
"""

from collections import deque
from dataclasses import dataclass, replace

from repro.iss.simulator import ISS, SimError
from repro.machines import machine as machine_entry

MASK32 = 0xFFFFFFFF

#: committed operations kept for the Divergence report
HISTORY_DEPTH = 16

#: ISS instruction budget for one pipelined-SIMT catch-up
CATCH_UP_LIMIT = 2_000_000


class Divergence(Exception):
    """The engine and the ISS disagree on architectural state.

    Attributes:
        machine:   a repro.machines.MACHINES name
        kind:      "pc" | "reg" | "mem" | "count" | "halt" | "iss-error"
        index:     ordinal of the diverging commit (0-based)
        addr:      address of the first bad instruction (or None)
        mnemonic:  its mnemonic (or None)
        detail:    one-line human description of the mismatch
        engine_x/engine_f/iss_x/iss_f: full register files (lists)
        history:   last N committed ops as (addr, mnemonic, value)
    """

    def __init__(self, machine, kind, detail, addr=None, mnemonic=None,
                 index=None, engine_x=None, engine_f=None,
                 iss_x=None, iss_f=None, history=()):
        self.machine = machine
        self.kind = kind
        self.detail = detail
        self.addr = addr
        self.mnemonic = mnemonic
        self.index = index
        self.engine_x = list(engine_x) if engine_x is not None else None
        self.engine_f = list(engine_f) if engine_f is not None else None
        self.iss_x = list(iss_x) if iss_x is not None else None
        self.iss_f = list(iss_f) if iss_f is not None else None
        self.history = list(history)
        super().__init__(self.describe())

    def __reduce__(self):
        return (_rebuild_divergence, (self.__dict__.copy(),))

    def mismatches(self):
        """[(reg_name, engine_value, iss_value)] for differing regs."""
        out = []
        if self.engine_x is not None and self.iss_x is not None:
            for i in range(1, 32):
                if self.engine_x[i] != self.iss_x[i]:
                    out.append((f"x{i}", self.engine_x[i], self.iss_x[i]))
        if self.engine_f is not None and self.iss_f is not None:
            for i in range(32):
                if self.engine_f[i] != self.iss_f[i]:
                    out.append((f"f{i}", self.engine_f[i], self.iss_f[i]))
        return out

    def describe(self):
        lines = [f"[{self.machine}] {self.kind} divergence: {self.detail}"]
        if self.addr is not None:
            lines.append(f"  first bad instruction: "
                         f"{self.mnemonic or '?'} @ {self.addr:#x}"
                         f" (commit #{self.index})")
        mism = self.mismatches()
        if mism:
            lines.append("  differing registers (engine vs iss):")
            for name, eng, iss in mism:
                lines.append(f"    {name:>4}: {eng:#010x} != {iss:#010x}")
        if self.history:
            lines.append(f"  last {len(self.history)} committed ops:")
            for addr, mnem, value in self.history:
                val = f"{value:#010x}" if value is not None else "-"
                lines.append(f"    {addr:#06x}  {mnem:<10} -> {val}")
        return "\n".join(lines)


def _rebuild_divergence(state):
    exc = Divergence.__new__(Divergence)
    exc.__dict__.update(state)
    Exception.__init__(exc, exc.describe())
    return exc


@dataclass
class LockstepResult:
    """Outcome of a divergence-free lockstep run."""

    machine: str
    retired: int
    cycles: int
    halted: bool
    halt_reason: str
    writes: int = 0


class _StoreRecorder:
    """Shadows ``memory.store`` (instance attribute) to log writes."""

    def __init__(self, memory):
        self.writes = []
        self._inner = memory.store
        memory.store = self._record

    def _record(self, addr, value, size):
        self.writes.append((addr, value & ((1 << (8 * size)) - 1), size))
        self._inner(addr, value, size)


class _Oracle:
    """The commit_hook closure state for one lockstep run."""

    def __init__(self, machine, iss, arch, engine_stats,
                 engine_rec, iss_rec, history_depth=HISTORY_DEPTH):
        self.machine = machine
        self.iss = iss
        self.arch = arch                  # engine's ArchLanes
        self.stats = engine_stats         # has .retired
        self.engine_rec = engine_rec
        self.iss_rec = iss_rec
        self.history = deque(maxlen=history_depth)
        self.index = 0
        self._catch_up = False            # previous commit was simt_s

    # -- commit_hook entry point ------------------------------------

    def __call__(self, entry):
        addr = entry.addr
        mnem = entry.instr.mnemonic
        iss = self.iss
        if iss.halt_reason is not None:
            self._raise("halt", f"ISS halted ({iss.halt_reason}) before "
                        f"engine commit of {mnem} @ {addr:#x}",
                        entry)
        if iss.pc != addr:
            if self._catch_up:
                self._run_iss_until(addr, entry)
            else:
                self._raise(
                    "pc", f"engine committed {mnem} @ {addr:#x} but "
                    f"ISS pc is {iss.pc:#x}", entry)
        self._iss_step(entry)
        self._catch_up = (mnem == "simt_s")
        self.history.append((addr, mnem, entry.value))
        self.index += 1
        # stats.retired is incremented by the caller *after* the hook,
        # so a synchronized boundary satisfies iss == retired + 1.
        expected = self.stats.retired + 1
        got = iss.stats.instructions
        if got == expected:
            self._compare(entry)
        elif got > expected:
            self._raise(
                "count", f"ISS executed {got} instructions but engine "
                f"retired only {expected}", entry)
        # got < expected: the ring just committed a pipelined SIMT
        # region en bloc; the catch-up at the next commit re-syncs.

    # -- helpers ----------------------------------------------------

    def _iss_step(self, entry):
        try:
            self.iss.step()
        except SimError as exc:
            self._raise("iss-error", str(exc), entry)

    def _run_iss_until(self, addr, entry):
        """Sequentially execute the SIMT region the ring pipelined.

        Routed through the ISS superblock engine
        (:meth:`ISS.run_until_pc`): the catch-up is the only place the
        oracle executes more than one ISS instruction per commit, so
        pipelined-SIMT torture cells get the fast path while the
        per-commit stepping stays scalar-exact."""
        iss = self.iss
        try:
            iss.run_until_pc(addr, CATCH_UP_LIMIT)
        except SimError as exc:
            self._raise("iss-error", str(exc), entry)
        if iss.pc == addr:
            return
        if iss.halt_reason is not None:
            self._raise(
                "halt", f"ISS halted ({iss.halt_reason}) during SIMT "
                f"catch-up toward {addr:#x}", entry)
        self._raise("pc", f"ISS never reached {addr:#x} within "
                    f"{CATCH_UP_LIMIT} catch-up steps", entry)

    def _compare(self, entry):
        arch, iss = self.arch, self.iss
        if arch.x[1:] != iss.x[1:] or arch.f != iss.f:
            self._raise("reg", "register file mismatch after commit",
                        entry)
        ew, iw = self.engine_rec.writes, self.iss_rec.writes
        if ew != iw:
            n = min(len(ew), len(iw))
            for i in range(n):
                if ew[i] != iw[i]:
                    self._raise(
                        "mem", f"memory write #{i} mismatch: engine "
                        f"{self._fmt(ew[i])} vs iss {self._fmt(iw[i])}",
                        entry)
            self._raise(
                "mem", f"memory write stream length mismatch: engine "
                f"{len(ew)} vs iss {len(iw)} (next: "
                f"{self._fmt((ew + iw)[n]) if len(ew) != len(iw) else '-'})",
                entry)
        ew.clear()
        iw.clear()

    @staticmethod
    def _fmt(write):
        addr, value, size = write
        return f"[{addr:#x}]={value:#x}/{size}"

    def _raise(self, kind, detail, entry):
        raise Divergence(
            self.machine, kind, detail, addr=entry.addr,
            mnemonic=entry.instr.mnemonic, index=self.index,
            engine_x=self.arch.x, engine_f=self.arch.f,
            iss_x=self.iss.x, iss_f=self.iss.f, history=self.history)


class LockstepSession:
    """A lockstep run as one picklable, *checkpointable* object graph.

    Bundles the timing engine, the private ISS, both store recorders
    and the oracle (installed as the engine's ``commit_hook``) so the
    whole co-simulation can be snapshotted mid-run via
    :meth:`save_state` and resumed exactly — the restored segment runs
    with the oracle still attached, which is how the checkpoint layer
    proves "restore ≡ uninterrupted" at the architectural level, not
    just for stats (docs/RESILIENCE.md). :func:`run_lockstep` is the
    one-shot wrapper.
    """

    def __init__(self, program, machine="diag", config="F4C2",
                 fast_forward=True, setup=None, fault_spec=None,
                 history_depth=HISTORY_DEPTH):
        entry = machine_entry(machine)
        self.machine = machine
        cfg = replace(entry.config(config), fast_forward=fast_forward)
        built = entry.build(cfg, program)
        self.sim = built.sim
        self.engine = built.engines[0]
        memory = built.memory

        self.iss = ISS(program)
        if setup is not None:
            setup(memory)
            setup(self.iss.memory)
        if fault_spec is not None:
            from repro.faults.injector import FaultInjector
            FaultInjector(fault_spec).attach(self.engine,
                                             built.hierarchies[0])

        self.engine_rec = _StoreRecorder(memory)
        self.iss_rec = _StoreRecorder(self.iss.memory)
        self.oracle = _Oracle(machine, self.iss, self.engine.arch,
                              self.engine.stats, self.engine_rec,
                              self.iss_rec,
                              history_depth=history_depth)
        self.engine.commit_hook = self.oracle

    @property
    def cycle(self):
        return self.engine.cycle

    def run(self, max_cycles=None):
        """Advance the engine (ISS in tow via the oracle) to the next
        halt or the absolute cycle budget; raises :class:`Divergence`
        on the first mismatched commit."""
        return self.sim.run(max_cycles=max_cycles)

    def finish(self, result):
        """Validate the halt boundary and fold a run's outcome into a
        :class:`LockstepResult`."""
        iss = self.iss
        halted = result.halted
        halt_reason = result.halt_reasons[0]
        if halted and iss.halt_reason is None:
            raise Divergence(
                self.machine, "halt",
                f"engine halted ({halt_reason}) but ISS has not "
                f"(iss pc={iss.pc:#x})", history=self.oracle.history)
        return LockstepResult(
            machine=self.machine, retired=result.instructions,
            cycles=result.cycles,
            halted=halted, halt_reason=str(halt_reason),
            writes=len(self.engine_rec.writes))

    # ----------------------------------------------------- checkpointing

    def save_state(self, meta=None):
        """Snapshot the *whole co-simulation* — engine, ISS, oracle,
        recorders — in one checkpoint. ``hooks=()``: unlike a bare
        engine snapshot, the commit hook here is the oracle itself
        (plain picklable state), and it must travel with the graph so
        the restored segment stays under lockstep."""
        from repro import checkpoint
        return checkpoint.save_state(self, hooks=(), meta=meta)

    @classmethod
    def restore_state(cls, ckpt):
        from repro import checkpoint
        session = checkpoint.restore_state(ckpt, expect=cls.__name__)
        return session


def run_lockstep(program, machine="diag", config="F4C2", max_cycles=None,
                 fast_forward=True, setup=None, fault_spec=None,
                 history_depth=HISTORY_DEPTH):
    """Run ``program`` on ``machine`` with the ISS oracle attached.

    ``config`` is resolved by the machine's :mod:`repro.machines`
    entry: a DiAG preset name or DiAGConfig; an OoOConfig (a name
    means the baseline's default).  ``setup(memory)`` is applied to
    *both* memories before execution (workload inputs).
    ``fault_spec`` optionally attaches a :class:`repro.faults.injector.
    FaultInjector` to the engine only — used by tests to manufacture a
    guaranteed divergence.

    Returns :class:`LockstepResult`; raises :class:`Divergence` (or
    :class:`repro.core.watchdog.SimulationHang` from the engine).
    """
    session = LockstepSession(program, machine=machine, config=config,
                              fast_forward=fast_forward, setup=setup,
                              fault_spec=fault_spec,
                              history_depth=history_depth)
    result = session.run(max_cycles=max_cycles)
    return session.finish(result)
