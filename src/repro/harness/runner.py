"""Single-run execution for the experiment harness.

Runs degrade gracefully: an engine exception, a liveness hang, or a
cycle-budget timeout becomes ``RunRecord.status`` / ``RunRecord.error``
instead of propagating, so one pathological (workload, config) cell can
no longer abort a whole experiment sweep.

Every untraced run goes through the run store
(:func:`repro.harness.diskcache.cached`): a process-local memory tier
(hits return the *same* record object) in front of the optional
persistent disk tier. The store keeps only clean, halted runs (a
truncated run must never satisfy a later full-budget request). The run
identity handed to it includes the cycle budget **and a content hash
of the workload's assembled program bytes**, so an edited workload of
the same name/scale can never alias a stale record. Traced runs bypass
the store: a cached record would emit no events into the tracer.
"""

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.watchdog import SimulationHang
from repro.harness import diskcache
from repro.machines import machine as machine_entry
from repro.obs import (PhaseProfiler, attach_tracer_names,
                       export_throughput, gc_totals)
from repro.workloads import get_workload

#: RunRecord.status values: "ok" = ran to halt (verified says whether
#: outputs matched), "timed_out" = cycle budget exhausted while still
#: retiring, "hang" = liveness watchdog fired, "error" = the engine or
#: the workload's verifier raised. The last two are synthesized by the
#: harness (see docs/RESILIENCE.md): "timeout" = the wall-clock
#: watchdog fired twice (pool + bounded serial retry), "quarantined" =
#: the spec failed every pool attempt *and* its in-process fallback.
RUN_STATUSES = ("ok", "timed_out", "hang", "error", "timeout",
                "quarantined")

#: the docs/RESILIENCE.md failure taxonomy (RunRecord.failure_class)
FAILURE_CLASSES = ("hang", "crash", "divergence", "infra")


def classify_failure(status):
    """Map a :class:`RunRecord` status onto the failure taxonomy
    (None for statuses that are not failures — "ok", and "timed_out",
    which is a bounded result, not a breakage)."""
    return {"hang": "hang", "error": "crash",
            "timeout": "hang", "quarantined": "infra"}.get(status)


@dataclass
class RunRecord:
    """Outcome of one (workload, machine, configuration) run."""

    workload: str
    machine: str            # a repro.machines.MACHINES name
    config: str
    threads: int
    simt: bool
    cycles: int = 0
    instructions: int = 0
    verified: bool = False
    status: str = "ok"
    error: str = None
    energy_j: float = 0.0
    energy_breakdown: dict = field(default_factory=dict)
    stall_fractions: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: docs/RESILIENCE.md taxonomy for failed runs ("hang" / "crash" /
    #: "divergence" / "infra"); None when the run is not a failure
    failure_class: str = None
    #: full machine-readable stats document — the flat dump of the
    #: repro.obs.StatsRegistry this run populated (shared ``core.*`` /
    #: ``mem.*`` namespace plus engine detail; see docs/OBSERVABILITY.md)
    stats: dict = field(default_factory=dict)

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0

    def stat(self, name, default=0):
        """One counter from the stats document (``default`` if the run
        failed before stats were collected)."""
        return self.stats.get(name, default)

    @property
    def failed(self):
        """True when the run did not complete cleanly (independent of
        whether a clean run's outputs verified)."""
        return self.status != "ok"


#: built WorkloadInstances are reusable (setup/verify are idempotent —
#: fault campaigns already rely on this), so memoize (class, scale,
#: threads, simt) -> (instance, program digest) and hashing the program
#: for the cache key costs one build per distinct cell, not per call.
#: Keyed by the *class object*: re-registering a workload under the
#: same name yields a different class and therefore a fresh build.
_BUILDS = OrderedDict()
BUILD_CACHE_MAX_ENTRIES = 128


def clear_cache():
    """Drop the run store's memory tier and the memoized workload
    builds (used between benchmark sessions). The persistent disk
    cache is *not* touched — use ``repro cache clear`` /
    ``DiskCache.clear``."""
    diskcache.memory.clear()
    _BUILDS.clear()


def _built(cls, scale, threads, simt):
    """Memoized (WorkloadInstance, program digest) for one cell."""
    key = (cls, scale, threads, simt)
    hit = _BUILDS.get(key)
    if hit is not None:
        _BUILDS.move_to_end(key)
        return hit
    inst = cls().build(scale=scale, threads=threads, simt=simt)
    built = (inst, diskcache.program_digest(inst.program))
    _BUILDS[key] = built
    while len(_BUILDS) > BUILD_CACHE_MAX_ENTRIES:
        _BUILDS.popitem(last=False)
    return built


def _status_of(result):
    return "ok" if result.halted else "timed_out"


def _close(record, start, exc=None):
    """Stamp a finished run: the failure ``exc`` (a hang, else an
    error) ended it with, if any; its wall time; its failure class."""
    if isinstance(exc, SimulationHang):
        record.status = "hang"
        record.error = str(exc)
        record.cycles = exc.cycle
    elif exc is not None:
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
    record.wall_seconds = time.time() - start
    record.failure_class = classify_failure(record.status)
    return record


def run_machine(machine, workload, config=None, scale=1.0, threads=1,
                simt=False, num_clusters=None, max_cycles=None,
                config_overrides=None, tracer=None):
    """Run ``workload`` on ``machine`` (a :data:`repro.machines.
    MACHINES` name); returns a :class:`RunRecord`. The one run body
    behind :func:`run_diag`, :func:`run_baseline` and
    :func:`repro.harness.parallel.execute_spec`.

    ``config`` is resolved by the machine's entry (None: its default);
    ``num_clusters`` is one more config override. ``threads``/``simt``
    fold to what the workload and machine honour. ``tracer`` is an
    optional :class:`repro.obs.EventTracer`; traced runs bypass the
    run cache."""
    entry = machine_entry(machine)
    overrides = dict(config_overrides or {})
    if num_clusters is not None:
        overrides["num_clusters"] = num_clusters
    cfg = entry.config(config, overrides)
    cls = get_workload(workload)
    use_simt = simt and entry.simt and cls.SIMT_CAPABLE
    use_threads = threads if cls.MT_CAPABLE else 1
    record = RunRecord(workload=workload, machine=machine,
                       config=cfg.name, threads=use_threads,
                       simt=use_simt)
    profiler = PhaseProfiler()
    start = time.time()
    try:
        with profiler.phase("build"):
            inst, digest = _built(cls, scale, use_threads, use_simt)
    except Exception as exc:
        return _close(record, start, exc)
    # the run's effective threads/simt and a float scale: a spec's
    # canonical spelling and a direct caller's raw one name one slot
    key = entry.run_key(workload, config or entry.default_config, cfg,
                        float(scale), use_threads, use_simt, max_cycles,
                        tuple(sorted(overrides.items())), digest)

    def factory():
        try:
            with profiler.phase("build"):
                built = entry.build(cfg, inst.program, use_threads,
                                    tracer)
                inst.setup(built.memory)
            if tracer is not None:
                attach_tracer_names(tracer, machine, use_threads)
            with profiler.phase("run"):
                gc_start = gc_totals()
                result = built.sim.run(max_cycles=max_cycles)
                gc_end = gc_totals()
            record.cycles = result.cycles
            record.instructions = result.instructions
            record.status = _status_of(result)
            energy = entry.energy(cfg, result, built.hierarchies,
                                  use_threads)
            record.energy_j = energy.total_j
            record.energy_breakdown = energy.breakdown()
            record.stall_fractions = {
                k.value: v for k, v in
                result.stats.stall_fractions().items()}
            record.extra = dict(entry.extra(result.stats),
                                params=inst.params)
            with profiler.phase("verify"):
                record.verified = result.halted \
                    and bool(inst.verify(built.memory))
            registry = entry.collect(result, built.hierarchies)
            profiler.export(registry)
            engines = built.engines
            export_throughput(registry, result.cycles,
                              result.instructions,
                              profiler.seconds("run"),
                              tracer.emitted if tracer is not None
                              else 0,
                              ff_skips=sum(e.ff_skips for e in engines),
                              ff_skipped_cycles=sum(e.ff_skipped_cycles
                                                    for e in engines),
                              gc_collections=gc_end[0] - gc_start[0],
                              gc_collected=gc_end[1] - gc_start[1])
            record.stats = registry.as_dict()
        except Exception as exc:
            return _close(record, start, exc)
        return _close(record, start)

    if tracer is not None:
        return factory()
    return diskcache.cached(key, factory)


def run_diag(workload, config="F4C32", scale=1.0, threads=1, simt=False,
             num_clusters=None, max_cycles=None, config_overrides=None,
             tracer=None):
    """Run ``workload`` on a DiAG processor; returns a :class:`RunRecord`.

    ``config`` is a Table 2 preset name; ``num_clusters`` optionally
    overrides the clusters available *per ring* (used to split an
    F4C32 into multiple rings for spatial multi-threading — paper
    Section 7.2.1's "16-by-2 format"). ``tracer`` is an optional
    :class:`repro.obs.EventTracer`; traced runs bypass the run cache.
    """
    return run_machine("diag", workload, config=config, scale=scale,
                       threads=threads, simt=simt,
                       num_clusters=num_clusters, max_cycles=max_cycles,
                       config_overrides=config_overrides, tracer=tracer)


def run_baseline(workload, scale=1.0, threads=1, max_cycles=None,
                 config=None, tracer=None):
    """Run ``workload`` on the out-of-order baseline (multicore if
    ``threads`` > 1); returns a :class:`RunRecord`. ``config`` is an
    optional :class:`repro.baseline.OoOConfig`; ``tracer`` an optional
    :class:`repro.obs.EventTracer` (traced runs bypass the run
    cache)."""
    return run_machine("ooo", workload, config=config, scale=scale,
                       threads=threads, max_cycles=max_cycles,
                       tracer=tracer)
