"""Statistics: stall taxonomy and utilization counters.

The stall classification mirrors Section 7.3.2 of the paper, which
attributes stalled cycles to three sources: memory (73.6 %), control flow
changes (21.1 %), and other/structural (5.3 %). We count, each cycle in
which the ring retires nothing, the reason the *head* instruction is
stalled ("we only count the source of stalls, not dependent
instructions that are subsequently stalled").
"""

import enum
from dataclasses import dataclass, field, fields


class StallReason(enum.Enum):
    MEMORY = "memory"       # cache misses, LSU queue, busy banks
    CONTROL = "control"     # flushes, line reload after branch
    STRUCTURAL = "other"    # bus busy, no free cluster, shared FU

    #: members are singletons compared by identity, so the identity
    #: hash is consistent with ``==``; ``Enum.__hash__`` is Python code
    #: that runs twice per ``EngineStats.stall``. Stall dicts keep
    #: insertion order, so no output depends on the hash value.
    __hash__ = object.__hash__


class EngineStats:
    """What both engines' counters share. A subclass is a dataclass
    whose fields are int counters plus the ``stall_cycles`` dict
    ({StallReason: cycles})."""

    def stall(self, reason, cycles=1):
        self.stall_cycles[reason] = self.stall_cycles.get(reason, 0) \
            + cycles

    @property
    def total_stalls(self):
        return sum(self.stall_cycles.values())

    @property
    def ipc(self):
        return self.retired / self.cycles if self.cycles else 0.0

    def stall_fractions(self):
        """{reason: fraction of all stall cycles}; empty dict if none."""
        total = self.total_stalls
        if not total:
            return {}
        return {reason: count / total
                for reason, count in self.stall_cycles.items()}

    def merge(self, other):
        """Accumulate another engine's counters into this one: lockstep
        threads share one clock, so ``cycles`` takes the max; every
        other counter sums and dicts merge key by key in ``other``'s
        order."""
        for spec in fields(self):
            name = spec.name
            value = getattr(other, name)
            if name == "cycles":
                self.cycles = max(self.cycles, value)
            elif isinstance(value, dict):
                mine = getattr(self, name)
                for key, count in value.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, name, getattr(self, name) + value)


@dataclass
class RingStats(EngineStats):
    """Counters for one dataflow ring."""

    cycles: int = 0
    retired: int = 0
    disabled_slots: int = 0      # PEs occupied by PC-mismatch instructions
    squashed: int = 0
    lines_fetched: int = 0
    reuse_hits: int = 0          # backward branches resolved by reuse
    reuse_misses: int = 0        # backward branches that reloaded a line
    branches: int = 0
    taken_branches: int = 0
    mispredicts: int = 0
    simt_regions: int = 0
    simt_threads: int = 0
    simt_insts: int = 0
    loads: int = 0
    stores: int = 0
    store_forwards: int = 0
    stall_cycles: dict = field(default_factory=dict)

    # per-cycle utilization sums for the energy model
    pe_active_cycles: int = 0     # PE executing (any op)
    fpu_active_cycles: int = 0    # PE executing an FP op
    resident_cluster_cycles: int = 0  # clusters powered (lanes + ctrl)
