"""Sampled & statistical simulation: ISS fast path + timing windows.

SMARTS-style systematic sampling (Wunderlich et al., ISCA'03) on top
of the pieces earlier PRs built: the ISS — already the golden model
for lockstep verification — executes the *functional* fast path at
interpreter speed, and the detailed timing engine (DiAG ring or OoO
baseline) runs only periodic measurement windows. Per window the
driver

1. fast-forwards the ISS to the window's warmup boundary
   (:meth:`~repro.iss.simulator.ISS.run_to_boundary` — never inside a
   SIMT region, which a warm-started engine could not re-enter),
2. deep-clones the ISS through one in-memory pickle round-trip
   (:func:`clone_iss`, with hooks detached as a checkpoint detaches
   them), so the clone *is* the architectural state, memory
   included,
3. warm-starts a disposable engine from the clone (``entry_pc`` +
   register files + the clone's memory image injected into a fresh
   cache hierarchy),
4. runs a warmup prefix with stats gated off — gating is by boundary
   *deltas*: cycles/retired/energy are sampled at the warmup boundary
   and again at the window end, and only the difference is measured
   (both engines' energy models are linear in their cumulative
   counters, so the delta is exact),
5. measures ``window`` retired instructions into the run's
   :class:`~repro.obs.registry.StatsRegistry`.

The ISS meanwhile continues functionally (it never re-executes the
window), finishes the workload, and verifies outputs — a sampled run
is still a *verified* run. Per-window IPCs aggregate into a point
estimate with a CLT confidence interval: ``ipc_mean`` +/-
``ipc_ci95`` (Student-t for small window counts, with a relative
floor for the non-sampling bias a warmed-but-finite window retains —
docs/SAMPLING.md has the estimator derivation and knob guide).

Sampled runs flow through the same two-tier run cache (sampling
parameters are part of the key) and the same process pool
(:class:`SampledSpec`), and every window emits a ``sample_window``
telemetry event carrying the parent run's identity.
"""

import math
import pickle
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass

from repro.checkpoint import pickle_detached
from repro.core.lanes import ArchLanes
from repro.harness import diskcache
from repro.harness.parallel import canonical_run_fields
from repro.harness.runner import RunRecord, _built, _close
from repro.iss.simulator import ISS, HaltReason
from repro.machines import MACHINES, machine as machine_entry
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import (
    PhaseProfiler,
    StatsRegistry,
    collect_iss,
    export_iss_throughput,
    telemetry,
)
from repro.workloads import get_workload

#: functional-path instruction bound (mirrors ISS.run's default)
DEFAULT_MAX_STEPS = 5_000_000

#: two-sided 97.5% Student-t critical values by degrees of freedom;
#: beyond the table the normal approximation is within 2%
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
        6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
        11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
        16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
        21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
        26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042}


def t95(df):
    """Two-sided 95% Student-t multiplier for ``df`` degrees of
    freedom (1.96 beyond the table)."""
    if df < 1:
        raise ValueError("t95 needs at least 1 degree of freedom")
    return _T95.get(df, 1.96)


@dataclass(frozen=True)
class SamplingParams:
    """Systematic-sampling schedule: a ``window``-instruction
    measurement starting every ``period`` instructions, offset by
    ``phase``, each preceded by a ``warmup``-instruction warm-start
    prefix whose stats are gated off."""

    period: int = 50_000
    window: int = 2_000
    warmup: int = 1_000
    phase: int = 0
    #: stop after this many windows (0 = as many as the run allows)
    max_windows: int = 0
    #: relative floor on the reported CI half-width: the residual
    #: non-sampling bias of a finite warmup (SMARTS budgets ~2%), kept
    #: explicit so a zero-variance window set cannot claim certainty
    ci_floor_rel: float = 0.02
    #: functional cache warming: the ISS records the most recent
    #: ``warm_lines`` distinct data lines it touched and each window's
    #: hierarchy is primed with them in recency order before warmup
    #: (0 disables). Without this, every window pays the compulsory
    #: misses the full-detail run amortized over its whole history,
    #: biasing sampled IPC low on memory-bound workloads.
    warm_lines: int = 4096

    def validate(self):
        if self.period < 1:
            raise ValueError("sample period must be >= 1")
        if self.window < 1:
            raise ValueError("sample window must be >= 1")
        if self.warmup < 0 or self.phase < 0 or self.max_windows < 0:
            raise ValueError("warmup/phase/max_windows must be >= 0")
        if self.window + self.warmup > self.period:
            raise ValueError(
                f"window+warmup ({self.window}+{self.warmup}) must fit "
                f"inside the period ({self.period}): overlapping "
                f"windows would double-measure instructions")
        if not 0.0 <= self.ci_floor_rel < 1.0:
            raise ValueError("ci_floor_rel must be in [0, 1)")
        if self.warm_lines < 0:
            raise ValueError("warm_lines must be >= 0")
        return self

    def key(self):
        """Run-cache key component (order-stable)."""
        return tuple(sorted(asdict(self).items()))


@dataclass
class WindowSample:
    """One measured timing window (all counts are engine deltas)."""

    index: int
    start: int          # absolute instruction count at measure begin
    instructions: int
    cycles: int
    energy_j: float
    warmup_instructions: int
    warmup_cycles: int

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0


class LineTrace:
    """Bounded recency trace of touched cache lines (functional
    warming of the data side). Iteration yields lines oldest-first so
    replaying them through a cache leaves it in the matching LRU
    order. Plain picklable data — it rides along in checkpoints.

    On its own it is the whole recorder of a machine whose long-history
    state is its cache hierarchy alone: it has no ``branch`` method,
    so the ISS feeds it data accesses only (``warm_mode``)."""

    __slots__ = ("bound", "line_bytes", "_lines")

    def __init__(self, bound=4096, line_bytes=64):
        self.bound = bound
        self.line_bytes = line_bytes
        self._lines = OrderedDict()

    def touch(self, addr):
        line = addr - (addr % self.line_bytes)
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
        else:
            lines[line] = True
            if len(lines) > self.bound:
                lines.popitem(last=False)

    def __iter__(self):
        return iter(self._lines)

    def __len__(self):
        return len(self._lines)

    def __getstate__(self):
        return (self.bound, self.line_bytes, list(self._lines))

    def __setstate__(self, state):
        self.bound, self.line_bytes, lines = state
        self._lines = OrderedDict((line, True) for line in lines)


class WarmTrace:
    """Data lines plus a trained branch front end: the recorder of a
    machine with a dynamic branch predictor.

    SMARTS-style functional warming: between windows the fast path
    must keep the *long-history* microarchitectural state — caches and
    branch predictors — warm, because a window-local warmup cannot
    rebuild state the full-detail run accumulated over millions of
    instructions. The ISS feeds this recorder at every data access
    (:attr:`touch`, the line trace's own method, bound once) and
    control instruction (:meth:`branch`); at a window boundary
    :func:`warm_engine` primes the fresh hierarchy from the lines and
    the OoO core takes copies of the trained predictor/BTB/RAS.

    The RAS mirrors the OoO front-end's convention exactly: push on
    ``jal rd=ra``, pop on ``jalr rd=x0, rs1=ra``. Plain picklable
    data: checkpoints and ISS clones carry it, which is
    how the state crosses the ISS->engine handoff."""

    __slots__ = ("lines", "touch", "predictor", "btb", "ras")

    def __init__(self, bound=4096, line_bytes=64):
        from repro.baseline.predictor import GSharePredictor
        self.lines = LineTrace(bound, line_bytes)
        self.touch = self.lines.touch
        self.predictor = GSharePredictor()
        self.btb = {}
        self.ras = []

    def __iter__(self):
        return iter(self.lines)

    def branch(self, pc, instr, taken, target):
        if instr.facts.is_branch:
            self.predictor.update(pc, bool(taken))
        elif instr.mnemonic == "jal":
            if instr.rd == 1:
                self.ras.append((pc + 4) & 0xFFFFFFFF)
        elif instr.mnemonic == "jalr":
            if instr.rd == 0 and instr.rs1 == 1 and self.ras:
                self.ras.pop()
        if taken and target is not None:
            self.btb[pc] = target

    def predictor_copy(self):
        """An independent trained predictor for one window's core."""
        from repro.baseline.predictor import GSharePredictor
        copy = GSharePredictor(self.predictor.entries,
                               self.predictor.history_bits)
        copy.table = list(self.predictor.table)
        copy.ghr = self.predictor.ghr
        return copy

    def __getstate__(self):
        return (self.lines, self.predictor, self.btb, self.ras)

    def __setstate__(self, state):
        self.lines, self.predictor, self.btb, self.ras = state
        self.touch = self.lines.touch


# ---------------------------------------------------------------- state
# ISS -> engine transfer: the clone from the pickle round-trip is
# the canonical architectural state; the engine gets the clone's
# memory (image + workload data + every store so far) injected into a
# fresh cache hierarchy, the clone's register files, pc and CSRs. The
# hierarchy is cold — that is what the warmup prefix is for.

def clone_iss(iss):
    """Deep-clone an ISS through one in-memory pickle round-trip, with
    hooks detached as a checkpoint detaches them: the clone is an
    independent object graph sharing nothing with the original. It is
    not a checkpoint: nothing is compressed, hashed or counted."""
    return pickle.loads(pickle_detached(iss))


def warm_engine(machine, cfg, program, clone):
    """Build a disposable timing engine warm-started from an ISS clone.

    Returns ``(engine, hierarchy)``. The engine starts at cycle 0 with
    ``stats`` zeroed: window measurement reads plain deltas.

    Functional warming: when the clone carries a recorder (a clone
    pickles it along), its recent data lines are replayed oldest-first
    through the data side, reconstructing the cache recency state the
    full-detail run would have at this point — without that, every
    window re-pays compulsory misses the full run amortized long ago.
    The machine table's ``warm`` takes the rest of what its recorder
    holds: the OoO core receives copies of the trained gshare/BTB/RAS
    (cold front-end state biases branch-heavy windows the same way
    cold caches do). Cache stats are reset afterwards so priming is
    invisible."""
    entry = machine_entry(machine)
    arch = ArchLanes()
    arch.x = list(clone.x)
    arch.f = list(clone.f)
    hierarchy = MemoryHierarchy(cfg.hierarchy_config(),
                                memory=clone.memory)
    warm = getattr(clone, "warm_trace", None)
    if warm is not None:
        l1d = hierarchy.l1d
        for line in warm:
            l1d.access(line)
        l1d.stats.reset()
        hierarchy.l1i.stats.reset()
        hierarchy.l2.stats.reset()
    engine = entry.warm(cfg, program, hierarchy, arch, clone.pc, warm)
    engine.csrs = dict(clone.csrs)
    return engine, hierarchy


def measure_window(machine, cfg, program, iss, warm_to, window):
    """Clone ``iss``, warm-start an engine, and measure one window.

    ``warm_to`` is the *engine-relative* retired count at which
    measurement begins (the warmup prefix); the measured window is the
    next ``window`` retirements. Returns the boundary-delta tuple
    ``(instructions, cycles, energy_j, warmup_instructions,
    warmup_cycles)`` or None when the program halts before the window
    measures a single instruction (the tail of the run). Energy is the
    difference of two cumulative reports: both models are linear in
    cumulative counters (+ static power linear in cycles), so the two
    runs' results bracket the window exactly.

    A :class:`SimulationHang` inside the window propagates — a sampled
    run must not paper over an engine liveness bug."""
    entry = MACHINES[machine]
    clone = clone_iss(iss)
    engine, hierarchy = warm_engine(machine, cfg, program, clone)
    budget = cfg.max_cycles
    warm = engine.run(max_cycles=budget, max_retired=warm_to)
    if warm.halted and warm.instructions <= warm_to:
        return None
    c0, r0 = warm.cycles, warm.instructions
    e0 = entry.energy(cfg, warm, [hierarchy]).total_j
    end = engine.run(max_cycles=budget, max_retired=r0 + window)
    instructions = end.instructions - r0
    cycles = end.cycles - c0
    if instructions <= 0 or cycles <= 0:
        return None
    energy = entry.energy(cfg, end, [hierarchy]).total_j - e0
    return instructions, cycles, energy, r0, c0


# ------------------------------------------------------------ estimator

def estimate(ipcs, ci_floor_rel=0.0):
    """CLT point estimate + 95% CI half-width over per-window IPCs.

    Returns ``(mean, ci95, std)``. One window has no variance
    estimate: its CI is the estimate itself (complete uncertainty
    short of the floor would be a lie). ``ci_floor_rel * mean`` floors
    the half-width — see :class:`SamplingParams.ci_floor_rel`."""
    n = len(ipcs)
    if n == 0:
        raise ValueError("no windows to estimate from")
    mean = sum(ipcs) / n
    if n > 1:
        var = sum((x - mean) ** 2 for x in ipcs) / (n - 1)
        std = math.sqrt(var)
        ci = t95(n - 1) * std / math.sqrt(n)
    else:
        std = 0.0
        ci = mean
    return mean, max(ci, ci_floor_rel * mean), std


# --------------------------------------------------------------- driver

def run_sampled(workload, machine="diag", config=None, scale=1.0,
                simt=False, params=None, max_steps=None,
                config_overrides=None):
    """Run ``workload`` in sampled mode; returns a :class:`RunRecord`.

    The record's ``stats`` carry the estimate under ``sampling.*``
    (``ipc_mean``, ``ipc_ci95``, ``windows``, ``coverage``, ...) plus
    the ISS's full ``iss.*`` counters; ``cycles`` is the *estimated*
    total (``instructions / ipc_mean``) so ``record.ipc`` reads back
    the point estimate, and ``energy_j`` extrapolates the windows'
    per-instruction energy over the whole run. ``verified`` reflects
    the ISS's functional completion — sampling never skips
    verification.

    Only ``threads=1`` workloads are samplable (the ISS models one
    hardware thread); SIMT is supported on the DiAG engine with
    windows pinned to SIMT region boundaries."""
    entry = machine_entry(machine)
    params = (params or SamplingParams()).validate()
    overrides = dict(config_overrides or {})
    cfg = entry.config(config, overrides)
    cls = get_workload(workload)
    use_simt = simt and entry.simt and cls.SIMT_CAPABLE
    bound = max_steps if max_steps is not None else DEFAULT_MAX_STEPS
    record = RunRecord(workload=workload, machine=machine,
                       config=cfg.name, threads=1, simt=use_simt)
    profiler = PhaseProfiler()
    start_wall = time.time()
    try:
        with profiler.phase("build"):
            inst, digest = _built(cls, scale, 1, use_simt)
    except Exception as exc:
        return _close(record, start_wall, exc)
    key = ("sampled", machine, workload, cfg.name, float(scale),
           use_simt, bound, params.key(),
           tuple(sorted(overrides.items())), digest)

    def factory():
        try:
            with profiler.phase("build"):
                iss = ISS(inst.program)
                inst.setup(iss.memory)
                if params.warm_lines:
                    iss.warm_trace = entry.recorder(
                        params.warm_lines,
                        cfg.hierarchy_config().line_bytes)
            windows = []
            truncated = 0
            index = 0
            while not (params.max_windows
                       and index >= params.max_windows):
                start_at = params.phase + index * params.period
                index += 1
                clone_at = max(0, start_at - params.warmup)
                if clone_at >= bound:
                    break
                with profiler.phase("ff"):
                    reason = iss.run_to_boundary(clone_at)
                if reason is not HaltReason.MAX_STEPS:
                    break  # program finished on the functional path
                # SIMT boundaries can overshoot the nominal clone
                # point; warm up to the nominal start, never negative
                boundary = iss.stats.instructions
                warm_to = max(0, start_at - boundary)
                with profiler.phase("window"):
                    measured = measure_window(
                        machine, cfg, inst.program, iss, warm_to,
                        params.window)
                if measured is None:
                    truncated += 1
                    continue
                insts, cycles, energy, w_insts, w_cycles = measured
                if insts < params.window:
                    # the program's tail: a short window biases the
                    # estimator (drain effects), so count it out
                    truncated += 1
                    continue
                sample = WindowSample(
                    index=len(windows), start=boundary + w_insts,
                    instructions=insts, cycles=cycles, energy_j=energy,
                    warmup_instructions=w_insts,
                    warmup_cycles=w_cycles)
                windows.append(sample)
                telemetry.emit(
                    "sample_window", index=sample.index,
                    start=sample.start, instructions=insts,
                    cycles=cycles, ipc=round(sample.ipc, 6))
            with profiler.phase("ff"):
                reason = iss.run(max_steps=bound)
            halted = reason in (HaltReason.EBREAK, HaltReason.ECALL)
            record.instructions = iss.stats.instructions
            record.status = "ok" if halted else "timed_out"
            with profiler.phase("verify"):
                record.verified = halted and bool(
                    inst.verify(iss.memory))
            if not windows:
                record.status = "error"
                record.error = (
                    "sampling produced no windows: the run retired "
                    f"{record.instructions} instructions but the "
                    f"schedule (period={params.period}, "
                    f"window={params.window}, warmup={params.warmup}, "
                    f"phase={params.phase}) fit none of them")
                return _close(record, start_wall)
            mean, ci, std = estimate([w.ipc for w in windows],
                                     params.ci_floor_rel)
            detail = sum(w.instructions for w in windows)
            detail_cycles = sum(w.cycles for w in windows)
            warm_insts = sum(w.warmup_instructions for w in windows)
            coverage = detail / record.instructions \
                if record.instructions else 0.0
            energy_detail = sum(w.energy_j for w in windows)
            record.cycles = int(round(record.instructions / mean)) \
                if mean > 0 else 0
            record.energy_j = (energy_detail / detail) \
                * record.instructions if detail else 0.0
            record.extra = {
                "sampling": asdict(params),
                "windows": [asdict(w) for w in windows],
                "truncated_windows": truncated,
                "params": inst.params,
            }
            registry = StatsRegistry()
            group = registry.group("sampling")
            group.set("windows", len(windows),
                      "measured timing windows")
            group.set("truncated_windows", truncated,
                      "windows dropped at the run tail")
            group.set("ipc_mean", mean, "sampled IPC point estimate")
            group.set("ipc_ci95", ci, "95% CI half-width on ipc_mean")
            group.set("ipc_ci95_rel", ci / mean if mean else 0.0,
                      "relative 95% CI half-width")
            group.set("ipc_std", std,
                      "per-window IPC standard deviation")
            group.set("coverage", coverage,
                      "fraction of instructions measured in detail")
            group.set("detail_instructions", detail,
                      "instructions measured in windows")
            group.set("detail_cycles", detail_cycles,
                      "engine cycles spent in measured windows")
            group.set("warmup_instructions", warm_insts,
                      "instructions spent warming engines (gated off)")
            group.set("energy_j", record.energy_j,
                      "extrapolated total energy")
            group.set("period", params.period, "sampling period")
            group.set("window", params.window, "window length")
            group.set("warmup", params.warmup, "warmup length")
            group.set("phase", params.phase, "schedule phase offset")
            hist = group.histogram("window_ipc",
                                   "per-window IPC distribution")
            for w in windows:
                hist.sample(w.ipc)
            collect_iss(iss, registry=registry)
            profiler.export(registry)
            export_iss_throughput(registry, iss.stats.instructions,
                                  profiler.seconds("ff"))
            record.stats = registry.as_dict()
        except Exception as exc:
            return _close(record, start_wall, exc)
        return _close(record, start_wall)

    return diskcache.cached(key, factory)


# ----------------------------------------------------------------- pool

@dataclass(frozen=True)
class SampledSpec:
    """A picklable sampled-run cell for :func:`repro.harness.parallel.
    run_specs` — same ``.execute()`` / ``.failure_record()`` protocol
    as ``RunSpec``/``TortureSpec``, and the journal's content-hash
    ``spec_key`` covers every field below automatically. Construction
    canonicalizes and validates the fields shared with ``RunSpec``
    (:func:`repro.harness.parallel.canonical_run_fields`)."""

    workload: str
    machine: str = "diag"
    config: str = None
    scale: float = 1.0
    simt: bool = False
    max_steps: int = None
    period: int = 50_000
    window: int = 2_000
    warmup: int = 1_000
    phase: int = 0
    max_windows: int = 0
    ci_floor_rel: float = 0.02
    warm_lines: int = 4096
    config_overrides: tuple = ()

    def __post_init__(self):
        canonical_run_fields(self)
        self.params  # validate the schedule at construction time

    @property
    def params(self):
        return SamplingParams(
            period=self.period, window=self.window,
            warmup=self.warmup, phase=self.phase,
            max_windows=self.max_windows,
            ci_floor_rel=self.ci_floor_rel,
            warm_lines=self.warm_lines).validate()

    def execute(self):
        return run_sampled(
            self.workload, machine=self.machine, config=self.config,
            scale=self.scale, simt=self.simt, params=self.params,
            max_steps=self.max_steps,
            config_overrides=dict(self.config_overrides))

    def failure_record(self, status, error, failure_class):
        return RunRecord(workload=self.workload, machine=self.machine,
                         config=self.config, threads=1, simt=self.simt,
                         status=status, error=error,
                         failure_class=failure_class)
