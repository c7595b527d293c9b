"""Processing-element entries: one instruction occupying one PE.

Paper Figure 5: each PE holds an instruction address register, decoded
instruction state, and control that compares the PC lane against its
address. A :class:`PEEntry` is one *activation* of one live PE — a
fresh entry is created each time its cluster is (re-)armed, while the
decoded instruction itself stays resident in the cluster (instruction
reuse). PEs that the PC lane disables (a branch shadow, or the slots
before an unaligned entry point; Section 4.3, Figure 6) do no work, so
one :class:`DisabledRun` stands for each maximal run of them in an
activation.
"""

import enum


class PEState(enum.Enum):
    WAITING = "waiting"      # armed, operands not all valid yet
    EXECUTING = "executing"  # operation in flight
    DONE = "done"            # result on the destination lane
    DISABLED = "disabled"    # PC-lane mismatch (branch shadow / alignment)
    SQUASHED = "squashed"    # killed by an older mispredicted branch
    RETIRED = "retired"      # PC lane swept past; stores drained


_DONE = PEState.DONE
_RETIRED = PEState.RETIRED
_DISABLED = PEState.DISABLED


class PEEntry:
    """One in-flight instruction instance in the window."""

    __slots__ = (
        "seq", "instr", "facts", "addr", "activation", "pe_index", "state",
        "sources", "value", "result", "done_cycle",
        "predicted_taken", "predicted_target", "waiting_on_memory",
        "simt_region", "simt_latched", "store_drained",
        "pending_producers", "ready_time", "waiters", "blocked_on",
        "store_addr",
    )

    #: window slots this entry stands for (see DisabledRun.count)
    count = 1

    def __init__(self, seq, instr, facts, addr, activation, pe_index):
        self.seq = seq
        self.instr = instr
        #: ``instr.facts`` (None for an undecodable slot)
        self.facts = facts
        self.addr = addr
        self.activation = activation
        self.pe_index = pe_index
        self.state = PEState.WAITING
        #: list of (regfile, index, producer) where producer is either a
        #: PEEntry or None (value comes from the architectural lanes).
        self.sources = []
        self.value = None
        self.result = None
        self.done_cycle = None
        self.predicted_taken = False
        self.predicted_target = None
        #: True while this entry's head-of-window stall is memory-caused
        self.waiting_on_memory = False
        #: for simt_e entries: the paired simt_s PEEntry
        self.simt_region = None
        self.simt_latched = None
        self.store_drained = False
        # scheduler bookkeeping (see repro.core.ring)
        self.pending_producers = 0
        self.ready_time = 0
        self.waiters = []
        self.blocked_on = None
        #: lazily resolved (addr, size) once the base register
        #: is available, before the store's data arrives
        self.store_addr = None

    def __getstate__(self):
        # ``facts`` is re-bound from ``instr`` on restore: Facts objects
        # are shared through a bounded table, and pickling them would
        # make checkpoint bytes depend on that table's history
        return {name: getattr(self, name) for name in self.__slots__
                if name != "facts"}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self.facts = self.instr.facts if self.instr is not None else None

    def apply_fault(self, injector, site):
        """Route this entry's value through a fault-injection hook.

        ``injector`` is a ``repro.faults.FaultInjector`` (or None): each
        call counts one dynamic event at ``site`` and may return the
        value with a single bit flipped — the transient-fault model for
        register-lane latches ("lane") and PE result buses ("pe")."""
        if injector is not None and self.value is not None:
            self.value = injector.value(site, self.value)

    # Identity tests against module-level members: hashing an Enum
    # member runs Python code, so set membership would cost more.

    @property
    def executed(self):
        state = self.state
        return state is _DONE or state is _RETIRED

    def __repr__(self):  # pragma: no cover - debug aid
        return (f"<PE #{self.seq} {self.instr.mnemonic}@{self.addr:#x} "
                f"{self.state.value}>")


class DisabledRun:
    """``count`` adjacent PEs of one activation disabled by PC mismatch.

    The run holds one window position for all of its slots: ``seq`` and
    ``pe_index`` are those of its first slot, and its slots took the
    ``count`` consecutive sequence numbers from ``seq`` on. Retirement
    may pop a run in part (the per-cycle budget counts slots), which
    advances ``seq`` and ``pe_index`` and shrinks ``count``. Squashing
    sets ``state`` as for any entry."""

    __slots__ = ("seq", "activation", "pe_index", "count", "state")

    #: what the watchdog's head dump reads off a window head
    pending_producers = 0
    blocked_on = None

    def __init__(self, seq, activation, pe_index):
        self.seq = seq
        self.activation = activation
        self.pe_index = pe_index
        self.count = 1
        self.state = _DISABLED

    @property
    def addr(self):
        """Address of the run's first slot."""
        return self.activation.cluster.base_addr + 4 * self.pe_index

    def __repr__(self):  # pragma: no cover - debug aid
        # the first slot's entry as PEEntry would show it
        instr = self.activation.cluster.plan[self.pe_index][1]
        mnemonic = instr.mnemonic if instr is not None else "??"
        return (f"<PE #{self.seq} {mnemonic}@{self.addr:#x} "
                f"{self.state.value}>")
