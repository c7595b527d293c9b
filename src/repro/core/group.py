"""One lockstep loop: every machine runs as a group of engines.

Paper Section 5.1 treats a DiAG ring as the analogue of a CPU core.
Both machines run SPMD threads in lockstep over a shared memory
hierarchy, one engine (ring or core) per thread, so both are driven by
the one loop in :func:`run`: step every live engine, check its
watchdog, then try a group fast-forward. A bare engine's ``run`` is a
group of one.

An engine brings only what is its own: ``step()``, its event bound
``ff_event(budget)``, ``quiescent()``, ``ff_skip_to(target)``,
``check_watchdog()``, and the state the loop reads (``cycle``,
``halted``, ``halt_reason``, ``stats``, ``watchdog``, ``simt_until``
and the observer hooks ``tracer``/``fault_hook``). The loop owns the
absolute cycle budget, the ``max_retired`` pause, when fast-forward
may engage (:func:`ff_setup`), the span floor :data:`FF_MIN_SPAN` and
the watchdog-deadline cap (:func:`ff_target`); :func:`collect` folds
the group into the one :class:`RunResult`.
"""

from dataclasses import dataclass, field

from repro.core.lanes import ArchLanes

#: Smallest span worth skipping: the quiescence analysis (cluster or
#: ROB scans, stall classification, batched census) costs about as
#: much as stepping a few no-op cycles, so short skips are a net loss.
#: Any value is cycle-exact — skips only cover provably no-op steps.
FF_MIN_SPAN = 4


def ff_setup(engine):
    """Whether fast-forward may engage for ``engine`` in this run.

    Per-cycle observers force skip-off: an event tracer records
    stepped state, a fault injector counts value-production sites
    against its trigger, and a disabled watchdog (window 0) leaves no
    deadline to cap skips against."""
    return bool(getattr(engine.config, "fast_forward", True)
                and engine.tracer is None
                and engine.fault_hook is None
                and engine.watchdog.window > 0)


def ff_target(engines, budget):
    """The cycle the lockstep group may jump to, or None.

    Engines interact solely through memory, which no quiescent engine
    touches before its next event, so the group skips together to the
    earliest event of any member. Each member's own bound is capped at
    ``watchdog.deadline() - 1`` — budget exhaustion and SimulationHang
    then occur at the identical simulated cycle as ticked execution
    (the step at deadline-1 runs normally and its check raises with
    cycle == deadline) — and must still span :data:`FF_MIN_SPAN`. The
    bound comes *before* the quiescence analysis: most attempts die on
    that cheap floor without paying for the deep checks. A member
    inside a pipelined SIMT region is exempt from both: the region's
    finish cycle is known and it feeds the watchdog
    (``RingEngine.ff_skip_to``)."""
    target = budget
    for engine in engines:
        now = engine.cycle
        bound = engine.ff_event(budget)
        if engine.simt_until is not None:
            if bound is None or bound <= now:
                return None
        else:
            if bound - now < FF_MIN_SPAN:
                return None  # the deadline cap below only lowers bound
            deadline = engine.watchdog.deadline()
            if deadline is not None and bound > deadline - 1:
                bound = deadline - 1
                if bound - now < FF_MIN_SPAN:
                    return None
            if not engine.quiescent():
                return None
        if bound < target:
            target = bound
    return target


def run(engines, budget, max_retired=None):
    """Run ``engines`` in lockstep until every one halts or the clock
    reaches ``budget``; returns :func:`collect` of the group.

    The budget is *absolute*: a group restored from a checkpoint at
    cycle N continues toward the same budget an uninterrupted run
    would have had, so split and whole runs retire identical
    schedules (tests/test_checkpoint.py). Already-halted engines never
    step again.

    ``max_retired`` is an absolute retired-instruction budget
    (sampling windows, ``repro.sampling``): the loop pauses at the
    first cycle boundary where the group has retired that many, but
    never while an engine is inside a pipelined SIMT region — the ring
    credits a whole region's instructions on entry while its cycles
    elapse until ``simt_until``, so pausing mid-region would pair
    credited instructions with missing cycles. The pause is
    resumable: call again with larger budgets.

    Raises :class:`repro.core.watchdog.SimulationHang` when an engine
    stops retiring for ``config.watchdog_window`` cycles."""
    ff = all(ff_setup(engine) for engine in engines)
    live = [engine for engine in engines if not engine.halted]
    cycle = max((engine.cycle for engine in engines), default=0)
    while live and cycle < budget:
        if max_retired is not None:
            retired = 0
            for engine in engines:
                retired += engine.stats.retired
            if retired >= max_retired \
                    and all(e.simt_until is None for e in engines):
                break
        halted = False
        for engine in live:
            engine.step()
            engine.check_watchdog()
            if engine.halted:
                halted = True
        cycle += 1
        if halted:
            live = [engine for engine in live if not engine.halted]
        if ff and live:
            target = ff_target(live, budget)
            if target is not None:
                for engine in live:
                    engine.ff_skip_to(target)
                cycle = target
    return collect(engines)


@dataclass
class RunResult:
    """Outcome of one run of a group: ``stats`` merges the per-thread
    ``thread_stats`` (:meth:`repro.core.stats.EngineStats.merge`)."""

    cycles: int = 0
    stats: object = None
    thread_stats: list = field(default_factory=list)
    halted: bool = False
    #: True when the run stopped on the cycle budget rather than a halt
    timed_out: bool = False
    halt_reasons: list = field(default_factory=list)

    @property
    def instructions(self):
        return self.stats.retired

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0


def collect(engines):
    """The :class:`RunResult` of ``engines`` as they stand now."""
    stats = type(engines[0].stats)()
    for engine in engines:
        stats.merge(engine.stats)
    halted = all(engine.halted for engine in engines)
    return RunResult(
        cycles=max(engine.cycle for engine in engines),
        stats=stats,
        thread_stats=[engine.stats for engine in engines],
        halted=halted,
        timed_out=not halted,
        halt_reasons=[engine.halt_reason for engine in engines])


class EngineGroup:
    """SPMD threads on one engine each, over a shared hierarchy.

    Thread ``t`` starts with a0 = t and a1 = the thread count (the
    SPMD convention all multi-threaded workloads use) and a private
    64 KiB stack carved below the shared stack top; ``thread_regs``
    optionally seeds more registers per thread ({reg_index: value}).
    A subclass supplies the hierarchy topology (one hierarchy per
    engine, passed in) and :meth:`_engine`, which builds one engine.
    ``tracer``: optional :class:`repro.obs.EventTracer` shared by
    every engine (engine ``t`` emits on trace thread-track ``t``).
    """

    STACK_BYTES_PER_THREAD = 64 * 1024

    def __init__(self, config, program, hierarchies, thread_regs=None,
                 tracer=None):
        if not hierarchies:
            raise ValueError("an engine group runs at least one thread")
        self.config = config
        self.program = program
        self.tracer = tracer
        program.load_into(hierarchies[0].memory)
        self.engines = []
        for tid, hierarchy in enumerate(hierarchies):
            arch = ArchLanes()
            arch.x[2] = ArchLanes.STACK_TOP \
                - tid * self.STACK_BYTES_PER_THREAD
            arch.x[10] = tid
            arch.x[11] = len(hierarchies)
            if thread_regs is not None and tid < len(thread_regs):
                for reg, value in thread_regs[tid].items():
                    arch.x[reg] = value & 0xFFFFFFFF
            engine = self._engine(tid, hierarchy, arch)
            engine.tracer = tracer
            self.engines.append(engine)

    def _engine(self, tid, hierarchy, arch):
        raise NotImplementedError

    @property
    def memory(self):
        return self.engines[0].hierarchy.memory

    def run(self, max_cycles=None):
        """Run every engine in lockstep (:func:`run`); ``max_cycles``
        defaults to ``config.max_cycles``."""
        budget = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        return run(self.engines, budget)

    # ----------------------------------------------------- checkpointing

    def save_state(self, meta=None):
        """Snapshot every engine plus the shared hierarchy and memory
        (captured once) into a :class:`repro.checkpoint.Checkpoint`;
        see docs/RESILIENCE.md. Hooks/tracers are detached and come
        back as None after :meth:`restore_state`."""
        from repro import checkpoint
        return checkpoint.save_state(self, meta=meta)

    @classmethod
    def restore_state(cls, ckpt):
        """Rebuild a group from a checkpoint taken by
        :meth:`save_state`; :meth:`run` then continues exactly where
        the snapshot stopped."""
        from repro import checkpoint
        return checkpoint.restore_state(ckpt, expect=cls.__name__)
