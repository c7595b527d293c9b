"""Pieces shared by the four workloads."""

import os
import resource
import statistics
import time

#: a percentile is reported only when at least this many samples lie
#: beyond it (fewer, and one slow sample moves it)
TAIL_SAMPLES = 10


def nproc():
    return len(os.sched_getaffinity(0))


class Phase:
    """What one timed phase measured. ``passes`` holds the calibrated
    seconds of each pass (one unit of the workload's fixed work), ``raw``
    the matching raw seconds and ``instructions`` the instructions each
    pass simulated (or functionally covered)."""

    def __init__(self):
        self.passes = []
        self.raw = []
        self.instructions = []
        self.attempted = 0
        self.failed = 0
        #: deterministic simulated totals of the phase's first pass
        self.sim = {}
        self.errors = []
        #: per-workload detail the per-layer metrics are computed from
        self.detail = {}

    def wall_s(self):
        return statistics.median(self.passes)

    def sim_kips(self):
        """Median over passes of instructions per calibrated second."""
        return statistics.median(
            n / t for n, t in zip(self.instructions, self.passes)) / 1e3

    def add_pass(self, calibrated, raw, instructions):
        self.passes.append(calibrated)
        self.raw.append(raw)
        self.instructions.append(instructions)

    def fail(self, message):
        self.errors.append(message)


def run_passes(seconds, one_pass, more=lambda: True):
    """Call ``one_pass(index)`` until ``seconds`` have elapsed or
    ``more()`` says the inputs ran out; always at least three passes, so
    a median exists."""
    start = time.perf_counter()
    count = 0
    while count < 3 or (time.perf_counter() - start < seconds
                        and more()):
        one_pass(count)
        count += 1


def percentile(values, q):
    """The ``q`` quantile (0 < q < 1) when at least TAIL_SAMPLES values
    lie beyond it, else None."""
    values = sorted(values)
    if len(values) * (1 - q) < TAIL_SAMPLES:
        return None
    index = min(len(values) - 1, int(round(q * (len(values) - 1))))
    return values[index]


def peak_rss_mb():
    """Peak resident set of this process and of its largest reaped
    child, in MiB: ``(self, child)``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


def engine_record(machine, cycles, instructions, stats, factor):
    """What the engine layers need from one executed run record:
    ``(machine, cycles, instructions, calibrated engine seconds, L1D
    hits, L1D misses, L2 hits, L2 misses)``."""
    return (machine, cycles, instructions,
            stats.get("host.phase.run.seconds", 0.0) * factor,
            stats.get("mem.l1d.hits", 0), stats.get("mem.l1d.misses", 0),
            stats.get("mem.l2.hits", 0), stats.get("mem.l2.misses", 0))


def record_phases(stats, machine):
    """The derived child spans of one executed run record, from the
    ``host.phase.*`` seconds it exports: build (workload assembly and
    engine construction), run (the engine) and verify."""
    engine = "core.run" if machine == "diag" else "baseline.run"
    return [("workloads.build", stats.get("host.phase.build.seconds", 0.0)),
            (engine, stats.get("host.phase.run.seconds", 0.0)),
            ("workloads.verify",
             stats.get("host.phase.verify.seconds", 0.0))]


def measure(cal, tracer, fn):
    """Run ``fn(root)`` as one calibrated interval. In a traced run
    ``root`` is the interval's root span (its self time is the time no
    layer claimed); otherwise it is None. Returns ``(result, raw,
    factor)``."""
    root = None

    def body():
        nonlocal root
        if tracer is None:
            return fn(None)
        root = tracer.open("unattributed")
        try:
            return fn(root)
        finally:
            tracer.close(root)

    result, raw, factor = cal.bracket(body)
    if root is not None:
        root.factor = factor
    return result, raw, factor
