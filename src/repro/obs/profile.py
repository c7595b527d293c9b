"""Self-profiling of the simulator: per-phase wall-clock + throughput.

The instrumentation layer also watches the *simulator itself*: how
long each phase of a run took (program build, engine execution, output
verification) and how fast the engine is simulating (cycles/sec and
retired instructions/sec of host time). The harness threads these into
``RunRecord.stats`` under ``host.*`` / ``sim.*`` so the bench smoke
job can track the repo's own performance trajectory.
"""

import gc
import time
from contextlib import contextmanager


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self):
        self.phases = {}

    @contextmanager
    def phase(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def seconds(self, name):
        return self.phases.get(name, 0.0)

    @property
    def total_seconds(self):
        return sum(self.phases.values())

    def export(self, registry, prefix="host.phase"):
        """Register ``<prefix>.<name>.seconds`` gauges."""
        for name, seconds in self.phases.items():
            registry.set(f"{prefix}.{name}.seconds", seconds,
                         desc=f"wall-clock seconds in the {name} phase")
        registry.set(f"{prefix}.total.seconds", self.total_seconds,
                     desc="wall-clock seconds across all phases")


def gc_totals():
    """``(collections, collected)``: the cyclic collector's runs and
    the objects they freed so far in this process, summed over its
    generations (``gc.get_stats()``). Subtract two readings to meter a
    span."""
    runs = freed = 0
    for generation in gc.get_stats():
        runs += generation["collections"]
        freed += generation["collected"]
    return runs, freed


def export_throughput(registry, cycles, instructions, run_seconds,
                      events_emitted=0, ff_skips=0, ff_skipped_cycles=0,
                      gc_collections=0, gc_collected=0):
    """Register the simulator-throughput gauges under ``sim.host``.

    The fast-forward counts live here (not under ``core.*``) because
    they describe how the *host* executed the run, and a ticked run
    must stay byte-identical to a skipping one in the deterministic
    view — ``sim.host.*`` is exactly the stripped namespace. So do
    the cyclic-GC counts (a :func:`gc_totals` delta around the run
    loop): they are process-wide, so a collection another thread
    triggered during the run counts too."""
    registry.set("sim.host.run_seconds", run_seconds,
                 desc="wall-clock seconds inside the engine run loop")
    rate = 1.0 / run_seconds if run_seconds > 0 else 0.0
    registry.set("sim.host.cycles_per_sec", cycles * rate,
                 desc="simulated cycles per host second")
    registry.set("sim.host.instructions_per_sec", instructions * rate,
                 desc="retired instructions per host second")
    registry.set("sim.host.kips", instructions * rate / 1000.0,
                 desc="retired kilo-instructions per host second")
    registry.set("sim.host.events_per_sec", events_emitted * rate,
                 desc="trace events emitted per host second")
    registry.set("sim.host.ff_skips", ff_skips,
                 desc="fast-forward jumps taken")
    registry.set("sim.host.ff_skipped_cycles", ff_skipped_cycles,
                 desc="simulated cycles covered by fast-forward jumps")
    registry.set("sim.host.gc_collections", gc_collections,
                 desc="cyclic-GC runs during the run loop (process-wide)")
    registry.set("sim.host.gc_collected", gc_collected,
                 desc="objects the cyclic GC freed during the run loop "
                      "(process-wide)")


def export_iss_throughput(registry, instructions, seconds):
    """Register the functional fast-path gauges under ``iss.host``.

    Instructions executed by the ISS (fast-forward legs, sampling
    warmup, torture prescreen) never appear in ``sim.host.*``, so the
    ISS (superblocks and cold scalar lines) gets its own namespace.
    Like ``sim.host.*`` it is stripped from the deterministic view —
    wall-clock never affects results."""
    registry.set("iss.host.run_seconds", seconds,
                 desc="wall-clock seconds inside the ISS fast path")
    rate = 1.0 / seconds if seconds > 0 else 0.0
    registry.set("iss.host.kips", instructions * rate / 1000.0,
                 desc="ISS kilo-instructions per host second")
