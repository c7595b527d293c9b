"""Processing clusters: resident instruction lines + activations.

Paper Sections 4.3 and 5.1: a cluster is a row of 16 PEs loaded from a
single 64-byte I-cache line. The decoded line stays *resident* in the
cluster so a backward branch can re-activate it without fetch or decode
(instruction reuse, Figure 4). Loads/stores are queued at the cluster
level through its LSU, and memory lanes flow store data onward.
"""

from repro.memory.lsu import LoadStoreUnit
from repro.memory.memory_lanes import MemoryLanes


class Activation:
    """One pass of execution through a resident cluster.

    ``seq`` orders activations along the (logical) cluster chain and is
    the coordinate used for lane-propagation delays. An activation is
    referenced only by its own entries (each window entry points to
    its activation, and the activation to its cluster; nothing points
    back), so it is freed with the last of them.
    """

    __slots__ = ("seq", "cluster", "ready_cycle")

    def __init__(self, seq, cluster, ready_cycle):
        self.seq = seq
        self.cluster = cluster
        self.ready_cycle = ready_cycle  # decoded; PEs may begin


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
        #: entries of the current activation still WAITING or
        #: EXECUTING: the ring counts one up per live PE it wires and
        #: down as each completes or is squashed, so busy checks in
        #: dispatch/arm scans are O(1). Only the current activation can
        #: hold live entries (a cluster re-arms only once drained).
        self.live = 0
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
        return self.live != 0

    def arm(self, seq, arm_cycle, ready_cycle):
        """Begin a new activation (the previous one must have drained)."""
        assert not self.busy, "cluster re-armed while still executing"
        activation = Activation(seq, self, ready_cycle)
        self.activation_count += 1
        self.last_used_cycle = arm_cycle
        return activation
