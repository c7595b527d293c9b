"""Host-speed calibration for every host-time metric.

The host's vCPU speed drifts by tens of percent over a few seconds (a
fixed pure-Python loop repeated back to back varies by up to 1.6x, with
process CPU time equal to wall time, so the core itself slows down). A
raw wall-clock time therefore mixes program speed with host speed.
Every host-time metric is reported in *calibrated seconds*::

    calibrated = raw * K_REF / K_measured

where ``K_measured`` is the duration of a sample of :func:`kernel`, a
fixed pure-Python workload that lives here and never changes with the
program, taken just before and just after each timed interval. Samples
are only ever taken while the program under test is idle (between
cells, between campaigns, at a client barrier with no request in
flight), never concurrently with it.

The kernel chases pointers through a ring of small slotted objects and
then does small-int arithmetic on a small dict: the kind of work the
simulators do (attribute loads, dict stores, small-int arithmetic).

Measured on a 2-vCPU x86-64 VM, five seeds per workload, 20 s runs,
the spread (IQR / median) of ``wall_s`` across runs was, raw then
calibrated: figure 0.30 -> 0.03, sampled 0.28 -> 0.05, torture
0.14 -> 0.06, service 0.16 -> 0.05. On a calm host calibration can add
a few percent of noise instead; ``calib.spread`` in the traced run
shows how much the host drifted.
"""

import random
import statistics
import time

#: nodes in the kernel's ring (about 6 MB of Python objects)
RING_NODES = 20_000

#: ring steps and small-table steps in one third of a sample (a whole
#: sample takes 25-30 ms on the reference host)
RING_STEPS = 20_000
TABLE_STEPS = 6_000

#: reference duration of one sample in seconds: a calibrated second is
#: the time the program would take on a host where one sample takes
#: exactly K_REF. Fixed once, near the median of 60 samples on the
#: 2-vCPU x86-64 VM the benchmark was written on; changing it rescales
#: every calibrated metric.
K_REF = 0.025


class _Node:
    __slots__ = ("value", "next", "slots")

    def __init__(self, value):
        self.value = value
        self.next = None
        self.slots = {}


def _ring(count, seed=20210419):
    rng = random.Random(seed)
    nodes = [_Node(i) for i in range(count)]
    order = list(range(count))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].next = nodes[b]
    return nodes[0]


def kernel(head):
    """One third of a calibration sample: a pointer chase through the
    ring, then small-int arithmetic on a 64-entry dict. Returns a
    checksum so neither loop can be skipped."""
    node = head
    acc = 0
    for i in range(RING_STEPS):
        node.value = (node.value + acc) & 0xFFFF
        acc = (acc + node.value * 3) & 0xFFFFFFFF
        node.slots[i & 3] = acc
        node = node.next
    table = {}
    for i in range(TABLE_STEPS):
        key = i & 63
        value = (table.get(key, 0) + (i ^ acc)) & 0xFFFF
        table[key] = value
        acc = (acc + value * 3) & 0xFFFFFFFF
    return acc


class Calibrator:
    """Kernel samples of one process, and the factor they imply for an
    interval bracketed by two of them."""

    def __init__(self):
        self._head = _ring(RING_NODES)
        self.samples = []
        self.last = None

    def sample(self):
        """One calibration sample (call only while the program is idle):
        the median of three thirds of the kernel, scaled to a whole one,
        so a single preemption cannot skew it."""
        parts = []
        for _ in range(3):
            start = time.perf_counter()
            kernel(self._head)
            parts.append(time.perf_counter() - start)
        seconds = 3 * statistics.median(parts)
        self.samples.append(seconds)
        self.last = seconds
        return seconds

    def bracket(self, fn):
        """Run ``fn`` between two kernel samples; returns ``(result,
        raw_seconds, factor)`` where ``raw * factor`` is the interval in
        calibrated seconds. The sample closing one interval opens the
        next, so back-to-back intervals cost one sample each."""
        before = self.last if self.last is not None else self.sample()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = self.sample()
        return result, raw, K_REF / ((before + after) / 2)

    def spread(self):
        """IQR / median of this process's samples: how much the host
        drifted during the run (a health metric, not a result)."""
        if len(self.samples) < 4:
            return 0.0
        q1, q2, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / q2
