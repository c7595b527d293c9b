"""Register lanes: DiAG's replacement for the register file / ROB.

Paper Section 4.1: every architectural register is a lane (a wire
bundle with a value and a valid bit) flowing across the PEs. A PE's
write changes the lane only for *subsequent* PEs, which is what makes
WAR/WAW hazards vanish (Section 4.2) — the window machine in
:mod:`repro.core.ring` realizes this by linking each reader to the
youngest older writer of its lane.

This module provides the timing/state pieces of that abstraction,
shared by the ring and the out-of-order baseline:

* :class:`ArchLanes` — the committed lane values entering the window
  (the "register file" a freshly armed cluster sees), covering both the
  integer and floating-point lane sets.
* :class:`LaneGeometry` — propagation delay between two PE positions,
  reproducing Section 6.1.2: lanes pass through a 2-input MUX per PE
  and a full register buffer every ``buffer_every`` PEs, and a buffer
  between clusters; at the 2 GHz simulation frequency a value crossing
  a segment or cluster boundary costs one extra cycle. A ring builds
  one for its geometry, so the per-PE segment arithmetic is done once.
* :func:`read_operands` — an entry's (rs1, rs2, rs3) values, read off
  its wired producers or the committed lanes.
"""

MASK32 = 0xFFFFFFFF


class ArchLanes:
    """Committed architectural lane values (integer 'x' + FP 'f')."""

    STACK_TOP = 0x7FFFF0

    def __init__(self):
        self.x = [0] * 32
        self.f = [0] * 32
        self.x[2] = self.STACK_TOP  # sp

    def read(self, regfile, index):
        bank = self.f if regfile == "f" else self.x
        return bank[index]

    def write(self, regfile, index, value):
        if regfile == "x":
            if index == 0:
                return
            self.x[index] = value & MASK32
        else:
            self.f[index] = value & MASK32

    def copy(self):
        clone = ArchLanes.__new__(ArchLanes)
        clone.x = list(self.x)
        clone.f = list(self.f)
        return clone

    def as_dict(self):
        return {("x", i): v for i, v in enumerate(self.x)} | \
               {("f", i): v for i, v in enumerate(self.f)}


class LaneGeometry:
    """Lane delays of one ring geometry, with its segment tables.

    A PE position is (activation seq, PE index); activation seqs
    increase along the (possibly re-activated) cluster chain. The
    producer's result is never visible earlier than the next cycle."""

    __slots__ = ("segment", "segments_out", "inter_cluster_delay")

    def __init__(self, pes_per_cluster, buffer_every, inter_cluster_delay):
        #: per PE: lane buffers passed from the cluster's first PE
        self.segment = tuple(pe // buffer_every
                             for pe in range(pes_per_cluster))
        last = self.segment[-1]
        #: per PE: lane buffers still ahead before the cluster's end
        self.segments_out = tuple(last - seg for seg in self.segment)
        self.inter_cluster_delay = inter_cluster_delay

    def delay(self, prod_act, prod_pe, cons_act, cons_pe):
        """Cycles for a lane value to travel between two positions."""
        if cons_act > prod_act:
            return (1 + self.segments_out[prod_pe] + self.segment[cons_pe]
                    + (cons_act - prod_act) * self.inter_cluster_delay)
        if cons_act == prod_act and cons_pe > prod_pe:
            segment = self.segment
            return 1 + segment[cons_pe] - segment[prod_pe]
        raise ValueError("lane values only flow forward in program order")


def read_operands(entry, arch):
    """``[rs1, rs2, rs3]`` for a window entry whose operands are valid.

    ``entry.sources`` (the wired producer links, (regfile, index,
    producer-or-None)) elides x0 reads, so the links are matched back
    to the non-None ``facts.source_slots`` in order; an elided or
    unused slot reads zero, as does a producer that left no value. A
    trailing simt pseudo-dependency is never read: there are only as
    many register links as non-None slots."""
    values = []
    links = entry.sources
    linked = 0
    for slot in entry.facts.source_slots:
        if slot is None:
            values.append(0)
            continue
        regfile, index, producer = links[linked]
        linked += 1
        if producer is None:
            values.append((arch.f if regfile == "f" else arch.x)[index])
        else:
            value = producer.value
            values.append(0 if value is None else value)
    return values
