"""Process-pool execution of run batches (sweeps, campaigns, figures)
and of the run service's jobs.

Everything the harness runs reduces to a list of picklable
:class:`RunSpec` points; :func:`run_specs` shards them across a
``ProcessPoolExecutor`` and returns their :class:`RunRecord` results
*in submission order* — the caller cannot observe scheduling. The
determinism contract (docs/PARALLEL.md): both engines are seed-driven
with no wall-clock input, so a record computed in a worker is
bit-identical (modulo the ``host.*`` wall-clock gauges) to one computed
serially, and ``tests/test_parallel_equivalence.py`` enforces it.

:class:`Executor` is the one execution core: it owns the pool and
walks the degradation ladder of docs/RESILIENCE.md §3 for every spec,
whichever front door admitted it. ``run_specs`` drives it
synchronously, submitting every pending spec up front so the pool
stays pipelined; the service scheduler (:mod:`repro.service.
scheduler`) drives it from executor threads. Any pool-level failure —
fork/spawn refused by the OS, a spec or record that fails to pickle, a
worker blowing past the wall-clock watchdog, the pool dying
mid-flight — is retried with exponential backoff + jitter, survives a
``BrokenProcessPool`` by rebuilding the pool and requeueing whatever
was in flight, and finally falls back to executing the affected spec
in-process, so a parallel sweep can never produce fewer results than a
serial one. A spec whose in-process fallback *also* raises is
quarantined (synthesized ``status="quarantined"`` record,
``failure_class="infra"``); a spec that times out again under the
bounded serial retry becomes ``status="timeout"`` with its elapsed
time instead of hanging forever.

Crash safety: pass ``journal=`` (a path, or ``True`` for an auto-named
file under ``.repro_journal/``) and every completed record is fsync'd
to a write-ahead journal (:mod:`repro.harness.journal`) the moment it
arrives; ``resume=True`` replays the journal and only executes what is
missing — byte-identical to an undisturbed run. While a journal is
active, SIGINT/SIGTERM are drained through the journal (the completed
prefix is always durable) before the interrupt propagates.

Workers share the persistent :mod:`repro.harness.diskcache` (atomic
writes make concurrent writers safe), so a pooled sweep warms the same
cache later serial runs hit.

Knobs: ``jobs`` arg > ``REPRO_JOBS`` env > 1 (serial); per-spec
watchdog ``REPRO_WORKER_TIMEOUT`` (900 s); pool retries per spec
``REPRO_RETRIES`` (2); backoff base ``REPRO_RETRY_BACKOFF`` (0.05 s);
serial-retry deadline ``REPRO_SERIAL_RETRY_TIMEOUT`` (max(watchdog,
60 s)).
"""

import math
import numbers
import os
import random
import signal
import threading
import time
import warnings
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial

from repro.core import DiAGConfig
from repro.machines import machine as machine_entry
from repro.obs import deterministic_view, merge_flat
from repro.obs import telemetry
from repro.obs.resilience import (
    JOURNAL_APPENDS,
    JOURNAL_HITS,
    QUARANTINED,
    REQUEUED,
    RETRIES,
    TIMEOUTS,
    resilience,
)
from repro.workloads import all_workloads

#: default per-spec wall-clock watchdog (seconds)
WORKER_TIMEOUT = 900.0

#: default pool resubmissions per spec after a transient failure
RETRY_LIMIT = 2

#: floor on the bounded serial-retry deadline (seconds)
SERIAL_RETRY_FLOOR = 60.0

#: how often a pool worker checks that the process that forked it is
#: still alive (seconds)
PARENT_POLL = 0.5

#: each override knob's type, read from the DiAGConfig defaults
_KNOB_TYPES = {f.name: type(getattr(DiAGConfig(), f.name))
               for f in fields(DiAGConfig)}

#: int knobs that size a structure: at 0 the machine hangs or cannot
#: be built, so they take a positive int (every other int knob, e.g. a
#: latency or ``watchdog_window``, takes a non-negative one)
_SIZE_KNOBS = frozenset({"pes_per_cluster", "num_clusters", "line_bytes",
                         "lane_buffer_every", "lsu_queue_depth",
                         "l1i_size", "l1d_size"})


def _is_int(value):
    return isinstance(value, numbers.Integral) \
        and not isinstance(value, bool)


def _positive_real(value):
    return isinstance(value, numbers.Real) \
        and not isinstance(value, bool) \
        and math.isfinite(value) and value > 0


def _positive_int(name, value):
    if not _is_int(value) or value <= 0:
        raise ValueError(f"{name} must be a positive int, got {value!r}")
    return int(value)


def _knob_value(knob, value):
    """An override value checked against its knob's declared type: a
    value no machine can run raises here, not inside a worker."""
    kind = _KNOB_TYPES[knob]
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is int:
        floor = 1 if knob in _SIZE_KNOBS else 0
        ok = _is_int(value) and value >= floor
        value = int(value) if ok else value
    elif kind is float:
        ok = _positive_real(value)
        value = float(value) if ok else value
    else:   # str knobs; a nested knob (mem_timings) is not overridable
        ok = kind is str and isinstance(value, str)
    if not ok:
        raise ValueError(f"bad value {value!r} for config override "
                         f"{knob!r}")
    return value


def _overrides(value):
    """``config_overrides`` in any accepted shape (a mapping, or
    ``[knob, value]`` pairs in any order) as a validated dict: every
    knob a ``DiAGConfig`` field, every value of that field's type."""
    pairs = value.items() if isinstance(value, dict) else value
    try:
        pairs = [(knob, setting) for knob, setting in pairs]
    except (TypeError, ValueError):
        raise ValueError("config_overrides must be a mapping or a list "
                         "of [knob, value] pairs") from None
    knobs = [knob for knob, _ in pairs]
    for knob in knobs:
        if not isinstance(knob, str) or knob not in _KNOB_TYPES:
            raise ValueError(f"unknown config override {knob!r}")
    if len(set(knobs)) != len(knobs):
        raise ValueError("config_overrides names a knob twice")
    return {knob: _knob_value(knob, setting) for knob, setting in pairs}


def canonical_run_fields(spec, num_clusters=None):
    """Validate and fold, in place, the fields every run spec shares
    (``RunSpec``, ``SampledSpec``): machine, workload, config (None:
    the machine's default), scale, simt and config_overrides.
    ``num_clusters`` (``RunSpec``'s own field) is one more override.
    An override equal to the preset's own value is dropped, so it
    names the preset's run, and the resulting config must pass
    ``DiAGConfig.check_geometry``. Returns the workload class and the
    overrides dict, ``num_clusters`` included."""
    set_ = partial(object.__setattr__, spec)
    entry = machine_entry(spec.machine)
    cls = all_workloads().get(spec.workload) \
        if isinstance(spec.workload, str) else None
    if cls is None:
        raise ValueError(f"unknown workload {spec.workload!r}")
    config = entry.default_config if spec.config is None else spec.config
    if not isinstance(config, str) or config not in entry.presets:
        raise ValueError(f"unknown {entry.name} config {config!r}")
    set_("config", config)
    if not _positive_real(spec.scale):
        raise ValueError(f"scale must be a positive finite number, "
                         f"got {spec.scale!r}")
    set_("scale", float(spec.scale))
    if not isinstance(spec.simt, bool):
        raise ValueError(f"simt must be a bool, got {spec.simt!r}")
    set_("simt", spec.simt and entry.simt and cls.SIMT_CAPABLE)
    overrides = _overrides(spec.config_overrides)
    if num_clusters is not None:
        num_clusters = _knob_value("num_clusters", num_clusters)
        if overrides.setdefault("num_clusters", num_clusters) \
                != num_clusters:
            raise ValueError("num_clusters and config_overrides"
                             "['num_clusters'] disagree")
    if overrides:
        if not entry.overridable:
            raise ValueError(f"the {entry.name} machine takes no "
                             f"config_overrides")
        preset = entry.config(config)
        overrides = {knob: value for knob, value in overrides.items()
                     if value != getattr(preset, knob)}
        entry.config(config, overrides).check_geometry()
    set_("config_overrides", tuple(sorted(overrides.items())))
    return cls, overrides


@dataclass(frozen=True)
class RunSpec:
    """One picklable run request: everything :func:`repro.harness.
    runner.run_machine` needs to reproduce a run in another process.

    Construction canonicalizes and validates (docs/SERVICE.md §2):
    every spelling of one run becomes one spec, hence one
    :func:`repro.harness.journal.spec_key`, and a spec no machine can
    run raises ``ValueError`` here rather than inside a worker."""

    machine: str                 # a repro.machines.MACHINES name
    workload: str
    config: str = None           # a preset name; None: the default
    scale: float = 1.0
    threads: int = 1
    simt: bool = False
    num_clusters: int = None
    max_cycles: int = None
    config_overrides: tuple = ()  # sorted ((knob, value), ...) pairs

    def __post_init__(self):
        set_ = partial(object.__setattr__, self)
        cls, overrides = canonical_run_fields(self, self.num_clusters)
        threads = _positive_int("threads", self.threads)
        set_("threads", threads if cls.MT_CAPABLE else 1)
        if self.max_cycles is not None:
            set_("max_cycles", _positive_int("max_cycles",
                                             self.max_cycles))
        # run_machine applies num_clusters as one more override: fold
        # both spellings into the field
        set_("num_clusters", overrides.pop("num_clusters", None))
        set_("config_overrides", tuple(sorted(overrides.items())))

    @classmethod
    def diag(cls, workload, config=None, **kwargs):
        return cls(machine="diag", workload=workload, config=config,
                   **kwargs)

    @classmethod
    def ooo(cls, workload, **kwargs):
        return cls(machine="ooo", workload=workload, **kwargs)

    @classmethod
    def from_dict(cls, doc):
        """A RunSpec from a JSON-shaped mapping (a service request
        body, a saved sweep point). Unknown fields raise
        ``ValueError`` — a typo'd knob must never silently alias the
        default-config run's cache identity."""
        if not isinstance(doc, dict):
            raise ValueError(f"spec must be an object, got "
                             f"{type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown spec field(s): {', '.join(sorted(unknown))}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ValueError(str(exc))

    def failure_record(self, status, error, failure_class):
        """Synthesize the record for a spec the harness could not
        execute (quarantine, serial-retry timeout) — same protocol any
        ``.execute()``-style spec may implement."""
        from repro.harness.runner import RunRecord
        return RunRecord(workload=self.workload, machine=self.machine,
                         config=self.config, threads=self.threads,
                         simt=self.simt, status=status, error=error,
                         failure_class=failure_class)


def execute_spec(spec, run_id=None, span=None):
    """Run one spec in this process; the pool's worker entry point,
    but equally the serial path.

    Any picklable spec object exposing ``.execute()`` (e.g.
    :class:`repro.verify.campaign.TortureSpec`) runs through the same
    pool/degradation machinery as a :class:`RunSpec`.

    ``run_id``/``span`` are the telemetry identity the scheduling
    parent assigned this attempt; when present, a ``started`` event is
    emitted from the executing process (so the campaign Gantt knows
    which worker pid ran what). The authoritative ``finished`` /
    ``failed`` events are emitted by the parent when the record lands —
    a worker that dies mid-spec therefore leaves an open span, exactly
    what happened.

    The whole execution runs inside ``telemetry.run_scope(run_id,
    span)``: events emitted from deep layers (checkpoint saves,
    sampling windows, disk-cache probes) inherit this attempt's
    ``(run, span)`` identity instead of arriving anonymous."""
    if run_id is not None:
        telemetry.emit(
            "started", run=run_id, span=span,
            label=getattr(spec, "workload", type(spec).__name__))
    with telemetry.run_scope(run_id, span):
        execute = getattr(spec, "execute", None)
        if callable(execute):
            return execute()

        from repro.harness.runner import run_machine

        return run_machine(spec.machine, spec.workload,
                           config=spec.config, scale=spec.scale,
                           threads=spec.threads, simt=spec.simt,
                           num_clusters=spec.num_clusters,
                           max_cycles=spec.max_cycles,
                           config_overrides=dict(spec.config_overrides))


def resolve_jobs(jobs=None):
    """Effective worker count: ``jobs`` arg > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def _worker_timeout(timeout):
    if timeout is not None:
        return timeout
    try:
        return float(os.environ.get("REPRO_WORKER_TIMEOUT",
                                    WORKER_TIMEOUT))
    except ValueError:
        return WORKER_TIMEOUT


def _retry_limit(retries):
    """Pool resubmissions per spec: arg > ``REPRO_RETRIES`` > 2."""
    if retries is not None:
        return max(0, int(retries))
    try:
        return max(0, int(os.environ.get("REPRO_RETRIES", RETRY_LIMIT)))
    except ValueError:
        return RETRY_LIMIT


def _serial_retry_deadline(deadline):
    """The bounded serial retry gets its *own* deadline, never shorter
    than the pool watchdog and floored at 60 s (a 1 ms test watchdog
    must not condemn the serial path); ``REPRO_SERIAL_RETRY_TIMEOUT``
    overrides."""
    try:
        return float(os.environ.get(
            "REPRO_SERIAL_RETRY_TIMEOUT",
            max(deadline, SERIAL_RETRY_FLOOR)))
    except ValueError:
        return max(deadline, SERIAL_RETRY_FLOOR)


def _backoff_sleep(attempt):
    """Exponential backoff with jitter before resubmitting a spec
    (attempt 1 -> ~base, doubling, capped at 5 s)."""
    try:
        base = float(os.environ.get("REPRO_RETRY_BACKOFF", "0.05"))
    except ValueError:
        base = 0.05
    if base <= 0:
        return
    delay = min(base * (2 ** max(0, attempt - 1)), 5.0)
    time.sleep(delay * (0.5 + random.random() / 2))


def _watch_parent(parent):
    while os.getppid() == parent:
        time.sleep(PARENT_POLL)
    os._exit(1)


def _die_with_parent(parent):
    """Pool-worker initializer: a worker must not outlive the process
    that forked it. A SIGKILLed owner runs no cleanup, so its workers
    would otherwise block on the call queue forever. A daemon thread
    polls ``getppid()``; it gets the GIL while the worker simulates or
    waits on the call queue, so it fires mid-task too. (A kernel
    parent-death signal would follow the forking *thread*, and the
    service forks from executor threads that exit at close.)"""
    threading.Thread(target=_watch_parent, args=(parent,), daemon=True,
                     name="repro-parent-watch").start()


def _pool(max_workers):
    """Prefer fork where the platform offers it (no re-import cost per
    worker; both engines are deterministic so inherited state is just
    a warm cache), fall back to the platform default otherwise. Forked
    workers die with the process that built the pool."""
    import multiprocessing

    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_die_with_parent,
                initargs=(os.getpid(),))
    except (ValueError, OSError):
        pass
    return ProcessPoolExecutor(max_workers=max_workers)


def _abandon(pool):
    """Tear down a pool with a hung worker without joining it (a
    ``shutdown(wait=True)`` — or interpreter exit — would block on the
    stuck process otherwise)."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass


def _failure_record(spec, status, error, failure_class):
    """Synthesize a result for a spec the harness gave up on, via the
    spec's own ``failure_record`` protocol."""
    maker = getattr(spec, "failure_record", None)
    if maker is None:
        raise TypeError(f"{type(spec).__name__} cannot synthesize a "
                        f"failure record ({status}: {error})")
    return maker(status=status, error=error,
                 failure_class=failure_class)


def _status(record):
    """A record's status ("ok" for a record that carries none)."""
    status = getattr(record, "status", None)
    if status is None and isinstance(record, dict):
        status = record.get("status")
    return "ok" if status is None else str(status)


def _landed(future):
    """True once ``future`` holds a result (not an error)."""
    return future.done() and not future.cancelled() \
        and future.exception() is None


def _submit(pool, spec, run_id, span):
    """Submit one attempt; keeps the bare ``submit(fn, spec)`` shape
    when telemetry is off (test doubles stub exactly that)."""
    if run_id is None:
        return pool.submit(execute_spec, spec)
    return pool.submit(execute_spec, spec, run_id, span)


def _await_result(future, deadline, progress):
    """``future.result`` under the watchdog, polling the progress
    renderer while waiting so worker-side telemetry surfaces live."""
    if progress is None:
        return future.result(timeout=deadline)
    end = time.monotonic() + deadline
    while True:
        remaining = end - time.monotonic()
        try:
            return future.result(
                timeout=max(min(remaining, 0.2), 0.01))
        except FutureTimeout:
            progress.poll()
            if time.monotonic() >= end:
                raise


class Ticket:
    """One spec's passage through the ladder: its telemetry identity,
    the executions started so far (``attempts``, which is also the
    span of the latest one) and, while a pool holds it, that
    attempt's future."""

    __slots__ = ("spec", "run_id", "attempts", "future", "pool")

    def __init__(self, spec, run_id=None):
        self.spec = spec
        self.run_id = run_id
        self.attempts = 0
        self.future = None
        self.pool = None


class Executor:
    """The degradation ladder of docs/RESILIENCE.md §3 over a pool it
    owns: the one execution core behind :func:`run_specs` and the run
    service.

    :meth:`submit` starts a :class:`Ticket` on the pool (built on
    demand); :meth:`result` walks the ladder for it and always returns
    a record, emitting the ticket's one ``finished``/``failed`` event.
    ``run_specs`` submits a whole batch up front and collects it in
    order from one thread; the service scheduler calls :meth:`run` on
    one executor thread per job, so every method is thread-safe.
    ``workers=0`` runs tickets in-process with no ladder (the serial
    path); ``inline=True`` swaps the process pool for a thread pool.
    """

    def __init__(self, workers, timeout=None, retries=None,
                 inline=False, progress=None):
        self.workers = workers
        self.deadline = _worker_timeout(timeout)
        self.retry_limit = _retry_limit(retries)
        self.inline = inline
        self.progress = progress
        self.pool = None         # the live pool
        self.generation = 0      # live pools discarded (broken, hung)
        self._retired = []       # pools with a hung worker
        self._live = {}          # tickets a pool holds, in submit order
        self._lock = threading.RLock()
        self._closed = False

    def _make(self, workers):
        if self.inline:
            return ThreadPoolExecutor(max_workers=workers,
                                      thread_name_prefix="repro-job")
        return _pool(workers)

    # ------------------------------------------------------------ api

    def run(self, ticket):
        """Submit ``ticket`` and block until its record is in."""
        self.submit(ticket)
        return self.result(ticket)

    def submit(self, ticket):
        """Start ``ticket``'s next attempt on the live pool. False
        when no pool can take it; :meth:`result` then runs it
        in-process."""
        if self.workers <= 0:
            return False
        with self._lock:
            for _ in range(2):   # a pool found broken is replaced once
                if self._closed:
                    return False
                try:
                    if self.pool is None:
                        self.pool = self._make(self.workers)
                    ticket.future = _submit(self.pool, ticket.spec,
                                            ticket.run_id,
                                            ticket.attempts + 1)
                except BrokenProcessPool:
                    self._discard(self.pool)
                    continue
                except Exception as exc:
                    warnings.warn(f"process pool unavailable ({exc}); "
                                  "running serially")
                    return False
                ticket.attempts += 1
                ticket.pool = self.pool
                self._live[ticket] = None
                return True
        return False

    def result(self, ticket):
        """Climb the ladder until ``ticket`` has a record."""
        if self.workers <= 0:
            ticket.attempts += 1
            record = execute_spec(ticket.spec, ticket.run_id,
                                  ticket.attempts)
        else:
            record = self._climb(ticket)
        if ticket.run_id is not None:
            status = _status(record)
            telemetry.emit("failed" if status != "ok" else "finished",
                           run=ticket.run_id, span=ticket.attempts,
                           status=status)
        return record

    def close(self, wait=True, abandon=False):
        """Shut the pools down and join the workers. ``wait=False``
        cancels queued work and returns at once, letting idle workers
        exit on their own (a closing service); ``abandon=True``
        terminates them instead (an interrupt). A pool with a hung
        worker is always abandoned."""
        with self._lock:
            self._closed = True
            pool, self.pool = self.pool, None
            retired, self._retired = self._retired, []
        for old in retired:
            _abandon(old)
        if pool is None:
            return
        if abandon:
            _abandon(pool)
            return
        try:
            pool.shutdown(wait=wait, cancel_futures=not wait)
        except Exception:
            pass

    # ---------------------------------------------------------- rungs

    def _climb(self, ticket):
        while ticket.future is not None:
            future = ticket.future
            try:
                record = _await_result(future, self.deadline,
                                       self.progress)
            except FutureTimeout:
                return self._hung(ticket)
            except BrokenProcessPool as exc:
                self._requeue(ticket, future, exc)
            except Exception as exc:
                self._retry(ticket, future, exc)
            else:
                self._leave(ticket)
                return record
        return self._in_process(ticket)

    def _retry(self, ticket, future, exc):
        """Rung 1: a worker exception is resubmitted with backoff while
        the ticket has pool attempts left; then it runs in-process."""
        error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            if ticket.future is not future:
                return           # requeued meanwhile
            self._leave(ticket)
        if ticket.attempts <= self.retry_limit:
            _backoff_sleep(ticket.attempts)
            if self.submit(ticket):
                resilience().inc(RETRIES)
                telemetry.emit("retry", run=ticket.run_id,
                               span=ticket.attempts, error=error)
                warnings.warn(
                    f"pool failure on {ticket.spec.workload} ({error});"
                    f" retrying with backoff (attempt {ticket.attempts}"
                    f"/{self.retry_limit + 1})")
                return
        warnings.warn(f"pool failure on {ticket.spec.workload} "
                      f"({error}); re-running serially")

    def _requeue(self, ticket, future, exc):
        """Rung 2: a dead worker broke the pool. The first holder to
        notice replaces it and resubmits every unfinished ticket the
        broken pool held; a ticket out of pool attempts runs
        in-process instead."""
        with self._lock:
            if ticket.future is not future:
                return           # another holder already requeued it
            broken = ticket.pool
            victims = [t for t in self._live
                       if t.pool is broken and not _landed(t.future)]
            self._discard(broken)
            requeued = 0
            for victim in victims:
                self._leave(victim)
                if victim.attempts <= self.retry_limit \
                        and self.submit(victim):
                    requeued += 1
        if requeued:
            resilience().inc(REQUEUED, requeued)
            telemetry.emit("requeue", count=requeued,
                           error=f"{type(exc).__name__}: {exc}")
            warnings.warn(f"worker process died ({exc}); pool rebuilt, "
                          f"{requeued} spec(s) requeued")
        if requeued < len(victims):
            warnings.warn(f"worker process died ({exc}); "
                          f"{len(victims) - requeued} spec(s) "
                          "re-running serially")

    def _hung(self, ticket):
        """The hang rung: retire the pool (it takes no new work and is
        abandoned once nothing else is waiting on it), then one bounded
        re-run in a fresh single-worker pool."""
        with self._lock:
            pool = ticket.pool
            if pool is self.pool:
                self.pool = None
                self.generation += 1
            if pool not in self._retired:
                self._retired.append(pool)
            self._leave(ticket)
        warnings.warn(f"worker exceeded the {self.deadline:.0f}s "
                      f"watchdog on {ticket.spec.workload}; "
                      "re-running serially")
        return self._serial_retry(ticket)

    def _serial_retry(self, ticket):
        """A second hang under ``REPRO_SERIAL_RETRY_TIMEOUT`` becomes a
        ``status="timeout"`` record with its elapsed time: a hung spec
        costs two deadlines, never the whole batch."""
        spec = ticket.spec
        limit = _serial_retry_deadline(self.deadline)
        start = time.monotonic()
        try:
            pool = self._make(1)
            future = _submit(pool, spec, ticket.run_id,
                             ticket.attempts + 1)
        except Exception as exc:
            # the engine's own cycle/liveness watchdogs still apply
            warnings.warn(f"serial-retry pool unavailable ({exc}); "
                          f"running {spec.workload} in-process")
            return self._in_process(ticket)
        ticket.attempts += 1
        try:
            record = future.result(timeout=limit)
        except FutureTimeout:
            _abandon(pool)
            elapsed = time.monotonic() - start
            resilience().inc(TIMEOUTS)
            telemetry.emit("timeout", run=ticket.run_id,
                           span=ticket.attempts,
                           elapsed=round(elapsed, 3), limit=limit)
            warnings.warn(
                f"{spec.workload} exceeded the {limit:.0f}s serial-retry"
                f" deadline too; recording status=timeout")
            record = _failure_record(
                spec, "timeout",
                f"serial retry exceeded {limit:.0f}s "
                f"(elapsed {elapsed:.1f}s)", "hang")
            if hasattr(record, "wall_seconds"):
                record.wall_seconds = elapsed
            return record
        except Exception:
            _abandon(pool)
            return self._in_process(ticket)
        pool.shutdown(wait=True)
        return record

    def _in_process(self, ticket):
        """Rungs 3 and 4: run in this process; a spec that raises here
        too is quarantined (classified infra failure)."""
        if self._closed:
            raise RuntimeError("executor closed")
        ticket.attempts += 1
        try:
            return execute_spec(ticket.spec, ticket.run_id,
                                ticket.attempts)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            resilience().inc(QUARANTINED)
            telemetry.emit("quarantine", run=ticket.run_id,
                           span=ticket.attempts, error=error)
            warnings.warn(f"{ticket.spec.workload} failed "
                          f"{ticket.attempts} attempt(s) ({error}); "
                          "quarantined")
            return _failure_record(ticket.spec, "quarantined", error,
                                   "infra")

    # ---------------------------------------------------------- pools

    def _leave(self, ticket):
        """The pool no longer holds ``ticket``; a retired pool nothing
        waits on any more is abandoned."""
        with self._lock:
            self._live.pop(ticket, None)
            ticket.future = ticket.pool = None
            for pool in [p for p in self._retired
                         if not any(t.pool is p for t in self._live)]:
                self._retired.remove(pool)
                _abandon(pool)

    def _discard(self, pool):
        """Drop a broken pool (a fresh one is built on demand)."""
        if pool is self.pool:
            self.pool = None
            self.generation += 1
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


@contextmanager
def _signal_guard(jrnl):
    """While a journal is open on the main thread, convert SIGINT and
    SIGTERM into a KeyboardInterrupt so the ``finally`` drain runs and
    the completed prefix stays durable before the process dies."""
    if jrnl is None \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError, RuntimeError):
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError, RuntimeError):
                pass


def run_specs(specs, jobs=None, timeout=None, journal=None,
              resume=False, retries=None, progress=None):
    """Execute ``specs`` and return their records in input order.

    ``jobs`` > 1 shards across a process pool; 1 (the default without
    ``REPRO_JOBS``) runs in-process. Every pending spec is submitted
    up front and the :class:`Executor` ladder absorbs every pool-level
    failure — retry with backoff, pool rebuild, serial re-execution,
    and as a last resort a synthesized quarantine/timeout record —
    with a warning; the result list always has one entry per spec.

    ``journal``: a path (or ``True`` for an auto-named file) enabling
    the write-ahead journal; ``resume=True`` replays previously
    journaled records instead of re-executing them. ``retries`` bounds
    pool resubmissions per spec (default ``REPRO_RETRIES`` / 2).

    When a telemetry bus is active (:mod:`repro.obs.telemetry`), every
    lifecycle edge — scheduled / replayed / started / retry / requeue /
    quarantine / timeout / finished / failed — lands on the stream
    with content-hash run IDs; ``progress`` (a
    :class:`repro.obs.progress.ProgressRenderer`) is bound to the
    stream and polled at the harness's idle points.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    records = [None] * len(specs)
    jrnl = keys = None
    hit_indices = []
    if journal:
        from repro.harness.journal import (RunJournal, resolve_path,
                                           spec_key)
        keys = [spec_key(spec) for spec in specs]
        jrnl = RunJournal(resolve_path(journal, specs))
        if resume:
            done = jrnl.load()
            for index, key in enumerate(keys):
                if key in done:
                    records[index] = done[key]
                    hit_indices.append(index)
            if hit_indices:
                resilience().inc(JOURNAL_HITS, len(hit_indices))
    pending = [i for i, record in enumerate(records) if record is None]
    bus = telemetry.active()
    run_ids = None
    if bus is not None:
        if keys is None:
            from repro.harness.journal import spec_key
            keys = [spec_key(spec) for spec in specs]
        run_ids = [key[:12] for key in keys]
        bus.emit("campaign_begin", cells=len(specs), jobs=jobs,
                 pending=len(pending))
        for index in hit_indices:
            bus.emit("replayed", run=run_ids[index],
                     label=getattr(specs[index], "workload", "?"))
        for index in pending:
            bus.emit("scheduled", run=run_ids[index],
                     label=getattr(specs[index], "workload", "?"))
    if progress is not None:
        progress.bind(bus)
        progress.poll()
    # serial, or a lone pending spec: in-process, no pool
    workers = min(jobs, len(pending))
    executor = Executor(workers if workers > 1 else 0, timeout=timeout,
                        retries=retries, progress=progress)
    tickets = {index: Ticket(specs[index],
                             None if run_ids is None else run_ids[index])
               for index in pending}
    try:
        with _signal_guard(jrnl):
            for ticket in tickets.values():
                executor.submit(ticket)
            for index, ticket in tickets.items():
                records[index] = executor.result(ticket)
                if jrnl is not None \
                        and jrnl.append(keys[index], records[index]):
                    resilience().inc(JOURNAL_APPENDS)
                if progress is not None:
                    progress.poll()
    except BaseException:
        # interrupted mid-wait (e.g. SIGINT via the signal guard):
        # terminate workers rather than leaking them, then let the
        # journal drain below
        executor.close(abandon=True)
        raise
    finally:
        executor.close()
        if jrnl is not None:
            jrnl.close()
        if bus is not None:
            bus.emit("campaign_end", cells=len(specs),
                     completed=sum(1 for r in records
                                   if r is not None))
        if progress is not None:
            progress.poll(force=True)
    return records


def aggregate_stats(records, deterministic=False):
    """One merged flat stats document over many records (see
    :func:`repro.obs.merge_flat`); ``deterministic=True`` strips the
    wall-clock gauges so serial and parallel aggregates compare
    byte-identical."""
    merged = merge_flat([r.stats for r in records])
    return deterministic_view(merged) if deterministic else merged


def prewarm(specs, jobs=None):
    """Warm the run caches for ``specs`` through the pool, dropping the
    records. Only worth the fork cost when a persistent disk cache is
    active (pool workers cannot seed the parent's in-memory cache) and
    more than one worker is available — otherwise a no-op.
    """
    from repro.harness import diskcache

    jobs = resolve_jobs(jobs)
    if jobs <= 1 or diskcache.active() is None:
        return 0
    pending = list(specs)
    run_specs(pending, jobs=jobs)
    return len(pending)
