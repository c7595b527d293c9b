"""Parallel torture campaigns over the machine × FF × SIMT matrix.

A campaign expands a base seed into ``count`` deterministic program
seeds and runs each program under lockstep on every requested
combination of engine, fast-forward mode and SIMT mode.  Each cell is
a picklable :class:`TortureSpec` exposing ``.execute()``, so the whole
batch rides the existing :func:`repro.harness.parallel.run_specs`
pool (worker watchdogs, graceful serial degradation, ``--jobs`` /
``REPRO_JOBS`` resolution) unchanged.
"""

import time
from dataclasses import dataclass, field

from repro.asm.assembler import assemble
from repro.core.watchdog import SimulationHang
from repro.machines import MACHINES
from repro.verify.lockstep import Divergence, run_lockstep
from repro.verify.torture import generate

#: per-index spread keeping program seeds disjoint across indices
#: while remaining a pure function of (base seed, index)
SEED_STRIDE = 1_000_003

#: SIMT programs run on a many-cluster preset so the ring actually
#: pipelines the region (F4C2 falls back to sequential execution)
SIMT_CONFIG = "F4C16"


#: one campaign's built programs: (program seed, ops, simt) -> the
#: assembled Program, or the assembler's error text; ``_campaign`` is
#: the base seed they belong to (see :func:`campaign_program`)
_programs = {}
_campaign = None


def campaign_program(seed, index, ops, simt):
    """``(assembled, asm_error)`` for program ``index`` of campaign
    ``seed``: generated and assembled at most once per campaign,
    however many cells run it. Exactly one of the pair is None.

    The prescreen fills the memo before ``run_specs`` forks its pool,
    so forked workers inherit every program; a process that misses
    (no prescreen, spawn start method) fills its own entry. A new
    campaign seed drops the previous campaign's programs, and
    :func:`run_torture` clears the memo when it returns. The key
    fully determines the program, and the simulators attach only pure
    caches to a Program (superblock factories and heat counts), so
    sharing one across cells changes no outcome."""
    global _campaign
    if seed != _campaign:
        _programs.clear()
        _campaign = seed
    program_seed = seed * SEED_STRIDE + index
    key = (program_seed, ops, simt)
    built = _programs.get(key)
    if built is None:
        source = generate(program_seed, ops=ops, simt=simt).source
        try:
            built = (assemble(source), None)
        except Exception as exc:
            built = (None, str(exc))
        _programs[key] = built
    return built


def clear_programs():
    """Drop the memoized campaign programs."""
    global _campaign
    _programs.clear()
    _campaign = None


@dataclass(frozen=True)
class TortureSpec:
    """One torture cell: (program seed, engine, FF mode, SIMT mode)."""

    seed: int                 # campaign base seed
    index: int                # program index within the campaign
    machine: str              # a repro.machines.MACHINES name
    ff: bool = True
    simt: bool = False
    ops: int = 40
    config: str = "F4C2"
    max_cycles: int = 400_000

    @property
    def program_seed(self):
        return self.seed * SEED_STRIDE + self.index

    @property
    def workload(self):
        """Display name (run_specs quotes it in degradation warnings)."""
        return (f"torture[s{self.seed}i{self.index}:{self.machine}"
                f":ff={'on' if self.ff else 'off'}"
                f":simt={'on' if self.simt else 'off'}]")

    def program(self):
        return generate(self.program_seed, ops=self.ops, simt=self.simt)

    def failure_record(self, status, error, failure_class):
        """Synthesize the outcome for a cell the harness gave up on
        (quarantine / serial-retry timeout); see docs/RESILIENCE.md."""
        return TortureOutcome(spec=self, status=status, detail=error,
                              failure_class=failure_class)

    def execute(self):
        """Run this cell; returns a picklable :class:`TortureOutcome`."""
        assembled, asm_error = campaign_program(
            self.seed, self.index, self.ops, self.simt)
        if asm_error is not None:
            return TortureOutcome(spec=self, status="asm-error",
                                  detail=asm_error)
        try:
            result = run_lockstep(assembled, machine=self.machine,
                                  config=self.config,
                                  fast_forward=self.ff,
                                  max_cycles=self.max_cycles)
        except Divergence as exc:
            return TortureOutcome(spec=self, status="divergence",
                                  detail=str(exc), kind=exc.kind)
        except SimulationHang as exc:
            return TortureOutcome(spec=self, status="hang",
                                  detail=str(exc))
        except Exception as exc:
            return TortureOutcome(
                spec=self, status="error",
                detail=f"{type(exc).__name__}: {exc}")
        return TortureOutcome(spec=self, status="ok",
                              retired=result.retired,
                              cycles=result.cycles)


@dataclass
class TortureOutcome:
    """Result of one cell (strings only: crosses process boundaries)."""

    spec: TortureSpec
    status: str               # ok | divergence | hang | error | asm-error
                              # (+ harness-synthesized timeout/quarantined)
    detail: str = ""
    kind: str = None          # Divergence.kind when status=divergence
    retired: int = 0
    cycles: int = 0
    #: docs/RESILIENCE.md taxonomy; filled by __post_init__ for engine
    #: outcomes, by the harness for synthesized ones
    failure_class: str = None

    def __post_init__(self):
        if self.failure_class is None:
            self.failure_class = {
                "divergence": "divergence", "hang": "hang",
                "error": "crash", "asm-error": "crash",
            }.get(self.status)

    @property
    def ok(self):
        return self.status == "ok"


@dataclass
class PrescreenReport:
    """ISS functional prescreen of a campaign's programs.

    Every distinct (program seed, simt) program runs to completion on
    its own :class:`repro.iss.ISS` before the lockstep matrix
    launches, so assembler errors and non-terminating programs surface
    in milliseconds instead of occupying a pool worker — and the pass
    doubles as the campaign's ISS throughput probe
    (``iss.host.kips``). The programs are fresh, so nearly all of
    their blocks stay below the superblock compile threshold and run
    scalar. Purely additive: cell outcomes and the journaled report
    are untouched."""

    programs: int = 0
    instructions: int = 0
    seconds: float = 0.0
    #: (index, simt, status) for lanes that did not reach ebreak/ecall
    anomalies: list = field(default_factory=list)

    @property
    def kips(self):
        """Aggregate prescreen throughput in kilo-instructions/second."""
        if self.seconds <= 0:
            return 0.0
        return self.instructions / self.seconds / 1000.0


def prescreen_programs(seed, count, simt_modes=(False, True), ops=40,
                       max_steps=2_000_000):
    """Run each program of the campaign's set on its own ISS.

    Returns a :class:`PrescreenReport`; deterministic except for the
    wall-clock fields, which never reach stdout or the journal."""
    from repro.iss.simulator import ISS, HaltReason

    lanes, labels, anomalies = [], [], []
    unassembled = 0
    for index in range(count):
        for simt in simt_modes:
            try:
                assembled, asm_error = campaign_program(
                    seed, index, ops, simt)
            except Exception as exc:
                asm_error = str(exc)
            if asm_error is not None:
                anomalies.append((index, simt, f"asm-error: {asm_error}"))
                unassembled += 1
                continue
            lanes.append(ISS(assembled))
            labels.append((index, simt))
    start = time.perf_counter()
    reasons = [lane.run(max_steps) for lane in lanes]
    elapsed = time.perf_counter() - start
    for (index, simt), reason in zip(labels, reasons):
        if reason not in (HaltReason.EBREAK, HaltReason.ECALL):
            anomalies.append((index, simt, f"no-halt: {reason}"))
    return PrescreenReport(
        programs=len(lanes) + unassembled,
        instructions=sum(lane.stats.instructions for lane in lanes),
        seconds=elapsed, anomalies=anomalies)


@dataclass
class TortureReport:
    """Aggregate of one campaign."""

    outcomes: list = field(default_factory=list)
    #: ISS prescreen (None when disabled); excluded from
    #: summary() so journaled resume stays byte-identical
    prescreen: PrescreenReport = None

    @property
    def failures(self):
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self):
        return not self.failures

    def counts(self):
        out = {}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def summary(self):
        counts = self.counts()
        total = len(self.outcomes)
        parts = [f"{total} cells"] + [f"{k}={v}"
                                      for k, v in sorted(counts.items())]
        return ", ".join(parts)


def build_specs(seed, count, machines=tuple(MACHINES),
                ff_modes=(True, False), simt_modes=(False, True),
                ops=40, max_cycles=400_000):
    """The campaign matrix, in deterministic order."""
    specs = []
    for index in range(count):
        for simt in simt_modes:
            config = SIMT_CONFIG if simt else "F4C2"
            for machine in machines:
                for ff in ff_modes:
                    specs.append(TortureSpec(
                        seed=seed, index=index, machine=machine, ff=ff,
                        simt=simt, ops=ops, config=config,
                        max_cycles=max_cycles))
    return specs


def run_torture(seed, count, machines=tuple(MACHINES),
                ff_modes=(True, False), simt_modes=(False, True),
                ops=40, jobs=None, max_cycles=400_000,
                journal=None, resume=False, progress=None,
                prescreen=True):
    """Run a torture campaign; returns a :class:`TortureReport`.

    ``journal``/``resume`` enable the crash-safe write-ahead journal —
    a campaign killed mid-flight re-runs only its missing cells and
    reports byte-identically (docs/RESILIENCE.md). ``progress`` (a
    :class:`repro.obs.progress.ProgressRenderer`) renders the matrix
    live from the telemetry stream. ``prescreen`` runs every program
    through the ISS first (see :func:`prescreen_programs`)."""
    from repro.harness.parallel import run_specs
    from repro.obs import telemetry

    specs = build_specs(seed, count, machines=machines,
                        ff_modes=ff_modes, simt_modes=simt_modes,
                        ops=ops, max_cycles=max_cycles)
    telemetry.emit("plan", kind="torture", seed=seed, count=count,
                   cells=len(specs), machines=list(machines),
                   ops=ops)
    pre = None
    try:
        if prescreen:
            pre = prescreen_programs(seed, count, simt_modes=simt_modes,
                                     ops=ops)
            telemetry.emit("prescreen", kind="torture",
                           programs=pre.programs,
                           instructions=pre.instructions,
                           kips=round(pre.kips, 1),
                           anomalies=len(pre.anomalies))
        outcomes = run_specs(specs, jobs=jobs, journal=journal,
                             resume=resume, progress=progress)
    finally:
        clear_programs()
    return TortureReport(outcomes=list(outcomes), prescreen=pre)


def shrink_failures(report, out_dir=None, max_shrinks=4):
    """Shrink the diverging cells of a report into corpus files.

    Deduplicates by (program seed, simt): one reproducer per diverging
    program, shrunk against the first machine/FF cell that caught it.
    Returns the written paths."""
    from repro.verify.shrink import (CORPUS_DIR, divergence_predicate,
                                     shrink_program, write_reproducer)

    out_dir = out_dir if out_dir is not None else CORPUS_DIR
    seen, paths = set(), []
    for outcome in report.failures:
        if outcome.status != "divergence" or len(paths) >= max_shrinks:
            continue
        spec = outcome.spec
        key = (spec.program_seed, spec.simt)
        if key in seen:
            continue
        seen.add(key)
        predicate = divergence_predicate(
            spec.machine, config=spec.config, fast_forward=spec.ff,
            max_cycles=spec.max_cycles)
        program = spec.program()
        if not predicate(program):
            continue  # not reproducible in-process; skip
        shrunk = shrink_program(program, predicate)
        paths.append(write_reproducer(
            out_dir, shrunk, spec.machine, divergence=outcome.detail,
            config=spec.config, fast_forward=spec.ff))
    return paths
