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
from dataclasses import asdict, dataclass, field

from repro.baseline import (
    BaselinePowerModel,
    MulticoreCPU,
    OoOConfig,
    OoOCore,
)
from repro.core import CONFIG_PRESETS, DiAGProcessor, EnergyModel
from repro.core.watchdog import SimulationHang
from repro.harness import diskcache
from repro.obs import (
    PhaseProfiler,
    attach_tracer_names,
    collect_diag,
    collect_ooo,
    export_throughput,
)
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
    machine: str            # 'diag' or 'ooo'
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
    overrides = dict(config_overrides or {})
    if num_clusters is not None:
        overrides["num_clusters"] = num_clusters
    cfg = CONFIG_PRESETS[config]
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    cls = get_workload(workload)
    use_simt = simt and cls.SIMT_CAPABLE
    use_threads = threads if cls.MT_CAPABLE else 1
    record = RunRecord(workload=workload, machine="diag",
                       config=cfg.name, threads=use_threads,
                       simt=use_simt)
    profiler = PhaseProfiler()
    start = time.time()
    try:
        with profiler.phase("build"):
            inst, digest = _built(cls, scale, use_threads, use_simt)
    except Exception as exc:
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
        record.wall_seconds = time.time() - start
        record.failure_class = classify_failure(record.status)
        return record
    # the run's effective threads/simt: a spec's canonical spelling
    # and a direct caller's raw one name the same slot
    key = ("diag", workload, config, scale, use_threads, use_simt,
           max_cycles, tuple(sorted(overrides.items())), digest)

    def factory():
        try:
            with profiler.phase("build"):
                proc = DiAGProcessor(cfg, inst.program,
                                     num_threads=use_threads,
                                     tracer=tracer)
                inst.setup(proc.memory)
            if tracer is not None:
                attach_tracer_names(tracer, "diag", use_threads)
            with profiler.phase("run"):
                result = proc.run(max_cycles=max_cycles)
            record.cycles = result.cycles
            record.instructions = result.instructions
            record.status = _status_of(result)
            energy = EnergyModel(cfg).energy_report(result,
                                                    proc.hierarchy)
            record.energy_j = energy.total_j
            record.energy_breakdown = energy.breakdown()
            record.stall_fractions = {
                k.value: v for k, v in
                result.stats.stall_fractions().items()}
            record.extra = {
                "reuse_hits": result.stats.reuse_hits,
                "lines_fetched": result.stats.lines_fetched,
                "mispredicts": result.stats.mispredicts,
                "simt_regions": result.stats.simt_regions,
                "simt_threads": result.stats.simt_threads,
                "params": inst.params,
            }
            with profiler.phase("verify"):
                record.verified = result.halted \
                    and bool(inst.verify(proc.memory))
            registry = collect_diag(result, proc.hierarchy)
            profiler.export(registry)
            export_throughput(registry, result.cycles,
                              result.instructions,
                              profiler.seconds("run"),
                              tracer.emitted if tracer is not None
                              else 0,
                              ff_skips=sum(r.ff_skips
                                           for r in proc.rings),
                              ff_skipped_cycles=sum(
                                  r.ff_skipped_cycles
                                  for r in proc.rings))
            record.stats = registry.as_dict()
        except SimulationHang as exc:
            record.status = "hang"
            record.error = str(exc)
            record.cycles = exc.cycle
        except Exception as exc:
            record.status = "error"
            record.error = f"{type(exc).__name__}: {exc}"
        record.wall_seconds = time.time() - start
        record.failure_class = classify_failure(record.status)
        return record

    if tracer is not None:
        return factory()
    return diskcache.cached(key, factory)


def run_baseline(workload, scale=1.0, threads=1, max_cycles=None,
                 config=None, tracer=None):
    """Run ``workload`` on the out-of-order baseline (multicore if
    ``threads`` > 1); returns a :class:`RunRecord`. ``tracer`` is an
    optional :class:`repro.obs.EventTracer`; traced runs bypass the
    run cache."""
    cfg = config or OoOConfig()
    cls = get_workload(workload)
    use_threads = threads if cls.MT_CAPABLE else 1
    record = RunRecord(workload=workload, machine="ooo",
                       config=cfg.name, threads=use_threads,
                       simt=False)
    profiler = PhaseProfiler()
    start = time.time()
    try:
        with profiler.phase("build"):
            inst, digest = _built(cls, scale, use_threads, False)
    except Exception as exc:
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
        record.wall_seconds = time.time() - start
        record.failure_class = classify_failure(record.status)
        return record
    # the full config contents, not just its name: a customized
    # OoOConfig must never alias the default's cache slot
    key = ("ooo", workload, scale, use_threads, max_cycles,
           tuple(sorted(asdict(cfg).items())), digest)

    def factory():
        try:
            with profiler.phase("build"):
                if use_threads == 1:
                    core = OoOCore(cfg, inst.program)
                    cores = [core]
                    runner = core
                    inst.setup(core.hierarchy.memory)
                    memory = core.hierarchy.memory
                else:
                    cpu = MulticoreCPU(cfg, inst.program, use_threads)
                    cores = cpu.cores
                    runner = cpu
                    inst.setup(cpu.memory)
                    memory = cpu.memory
            if tracer is not None:
                attach_tracer_names(tracer, "ooo", use_threads)
                for core in cores:
                    core.tracer = tracer
            hierarchies = [c.hierarchy for c in cores]
            with profiler.phase("run"):
                result = runner.run(max_cycles=max_cycles)
            halted = result.halted if use_threads > 1 \
                else cores[0].halted
            record.cycles = result.cycles
            record.instructions = result.instructions
            record.status = "ok" if halted else "timed_out"
            power = BaselinePowerModel(cfg, num_cores=use_threads)
            energy = power.energy_report(result, hierarchies)
            record.energy_j = energy.total_j
            record.energy_breakdown = energy.breakdown()
            record.stall_fractions = {
                k.value: v for k, v in
                result.stats.stall_fractions().items()}
            record.extra = {"mispredicts": result.stats.mispredicts,
                            "params": inst.params}
            with profiler.phase("verify"):
                record.verified = halted and bool(inst.verify(memory))
            registry = collect_ooo(result, hierarchies)
            profiler.export(registry)
            export_throughput(registry, result.cycles,
                              result.instructions,
                              profiler.seconds("run"),
                              tracer.emitted if tracer is not None
                              else 0,
                              ff_skips=sum(c.ff_skips for c in cores),
                              ff_skipped_cycles=sum(
                                  c.ff_skipped_cycles for c in cores))
            record.stats = registry.as_dict()
        except SimulationHang as exc:
            record.status = "hang"
            record.error = str(exc)
            record.cycles = exc.cycle
        except Exception as exc:
            record.status = "error"
            record.error = f"{type(exc).__name__}: {exc}"
        record.wall_seconds = time.time() - start
        record.failure_class = classify_failure(record.status)
        return record

    if tracer is not None:
        return factory()
    return diskcache.cached(key, factory)
