"""Processing clusters: resident instruction lines + activations.

Paper Sections 4.3 and 5.1: a cluster is a row of 16 PEs loaded from a
single 64-byte I-cache line. The decoded line stays *resident* in the
cluster so a backward branch can re-activate it without fetch or decode
(instruction reuse, Figure 4). Loads/stores are queued at the cluster
level through its LSU, and memory lanes flow store data onward.
"""

import itertools

from repro.memory.lsu import LoadStoreUnit
from repro.memory.memory_lanes import MemoryLanes

_activation_counter = itertools.count()


class Activation:
    """One pass of execution through a resident cluster.

    ``seq`` orders activations along the (logical) cluster chain and is
    the coordinate used for lane-propagation delays.
    """

    __slots__ = ("seq", "cluster", "arm_cycle", "ready_cycle", "entries",
                 "entry_pc", "_scan")

    def __init__(self, seq, cluster, arm_cycle, ready_cycle, entry_pc):
        self.seq = seq
        self.cluster = cluster
        self.arm_cycle = arm_cycle
        self.ready_cycle = ready_cycle  # decoded; PEs may begin
        self.entry_pc = entry_pc
        self.entries = []
        #: entries[:_scan] are known finished
        self._scan = 0

    @property
    def drained(self):
        # Finished states are absorbing, so the scan only moves forward
        # and each entry is passed once per activation: busy checks in
        # dispatch/arm scans hit this every cycle. An empty activation
        # (mid-arm) reports drained; entries appended later are scanned
        # when they come.
        entries = self.entries
        scan = self._scan
        end = len(entries)
        while scan < end and entries[scan].is_finished:
            scan += 1
        self._scan = scan
        return scan == end


def _plan(base_addr, instrs):
    plan = []
    for i, instr in enumerate(instrs):
        facts = instr.facts if instr is not None else None
        plan.append((base_addr + 4 * i, instr, facts,
                     facts is not None and facts.steers))
    return tuple(plan)


class Cluster:
    """A resident cluster: a decoded line plus per-cluster memory state."""

    def __init__(self, slot, base_addr, instrs, hierarchy, config):
        self.slot = slot               # physical position in the ring
        self.base_addr = base_addr     # line-aligned
        #: per PE slot, decoded once while the line is resident:
        #: (addr, Instruction or None, its Facts or None, control) where
        #: ``control`` (``Facts.steers``) marks an instruction that
        #: decides the next PC
        self.plan = _plan(base_addr, instrs)
        self.lsu = LoadStoreUnit(
            hierarchy,
            line_bytes=config.line_bytes,
            queue_depth=config.lsu_queue_depth,
            buffer_hit_latency=config.cluster_buffer_latency,
        )
        self.memory_lanes = MemoryLanes(capacity=config.memory_lane_capacity)
        self.active_activation = None
        self.last_used_cycle = 0
        self.activation_count = 0
        #: memory line of the last store drained through this cluster's
        #: write path (same-line drains coalesce)
        self.last_drain_line = None

    def __getstate__(self):
        # the plan's facts are re-bound on restore (see PEEntry)
        state = dict(self.__dict__)
        state["plan"] = [slot[1] for slot in self.plan]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.plan = _plan(self.base_addr, self.plan)

    @property
    def end_addr(self):
        return self.base_addr + 4 * len(self.plan)

    def contains(self, addr):
        return self.base_addr <= addr < self.end_addr

    @property
    def busy(self):
        act = self.active_activation
        return act is not None and not act.drained

    def arm(self, seq, arm_cycle, ready_cycle, entry_pc):
        """Begin a new activation (the previous one must have drained)."""
        assert not self.busy, "cluster re-armed while still executing"
        activation = Activation(seq, self, arm_cycle, ready_cycle, entry_pc)
        self.active_activation = activation
        self.activation_count += 1
        self.last_used_cycle = arm_cycle
        return activation
