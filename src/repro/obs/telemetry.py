"""Fleet telemetry: the append-only structured run-event bus.

Campaign-scale observability on top of the per-run stats registry:
every lifecycle edge in the harness — spec scheduled, worker started,
cache hit/miss, retry/backoff, requeue, quarantine, checkpoint
save/restore, journal replay, finished/failed — appends one JSON line
to a shared telemetry file. The stream is the single source of truth
for the live ``--progress`` renderer (repro.obs.progress), the merged
campaign Chrome trace (``repro trace --campaign``), and post-hoc
tooling; see docs/OBSERVABILITY.md §6 for the event schema.

Design constraints, in order:

* **Zero cost when off.** :func:`emit` is a dict lookup + return when
  no bus is configured — simulators and the harness call it
  unconditionally.
* **Multi-process safe.** Pool workers inherit the bus through the
  ``REPRO_TELEMETRY`` / ``REPRO_TELEMETRY_CAMPAIGN`` environment
  variables (works under both fork and spawn), each process opens the
  file in append mode, and every event is a single ``write()`` of one
  ``\\n``-terminated line — POSIX ``O_APPEND`` makes concurrent
  appends atomic at that granularity, so no cross-process locking is
  needed.
* **Crash-tolerant.** Lines are flushed as written; readers
  (:func:`read_events`) skip torn or foreign lines instead of
  failing, mirroring the journal's torn-line tolerance.

Event identity: ``campaign`` is one harness invocation (a sweep, a
fault campaign, a torture matrix), ``run`` is a spec's
content-hash-derived ID (stable across retries *and* across
``--resume``, so a resumed campaign's ``replayed`` events join up
with the original attempt's ``started`` events), and ``span`` is the
attempt number (1-based; retries increment it).
"""

import json
import os
import threading
import time
import uuid
from pathlib import Path

from repro.obs.events import EventTracer

TELEMETRY_SCHEMA = 1

#: environment handshake to pool workers (and child processes)
ENV_PATH = "REPRO_TELEMETRY"
ENV_CAMPAIGN = "REPRO_TELEMETRY_CAMPAIGN"

#: default home for auto-named streams (mirrors .repro_journal/)
DEFAULT_DIR = ".repro_telemetry"

#: the event vocabulary (docs/OBSERVABILITY.md §6); emitters may use
#: nothing else, so consumers can exhaustively match on ``ev``
EVENTS = frozenset((
    "campaign_begin",     # run_specs entered: cells, jobs
    "campaign_end",       # run_specs returning: cells, completed
    "plan",               # campaign-level metadata (faults/torture)
    "scheduled",          # a spec is pending execution this invocation
    "replayed",           # a spec's record came from the journal
    "started",            # a worker began executing a spec (pid)
    "finished",           # the record landed, status == "ok"
    "failed",             # the record landed, status != "ok"
    "retry",              # attempt failed; spec resubmitted w/ backoff
    "requeue",            # pool died; unfinished specs resubmitted
    "quarantine",         # spec exhausted retries serially
    "timeout",            # serial retry classified a watchdog timeout
    "cache_hit",          # run served from cache (tier=mem|disk|remote)
    "cache_miss",         # cache consulted, run must simulate
    "checkpoint_save",    # simulator state captured (bytes, ms)
    "checkpoint_restore",  # simulator state reloaded
    "journal_load",       # write-ahead journal scanned (entries)
    "journal_skip",       # a record could not be journaled (degraded)
    "sample_window",      # one detailed timing window measured
))


def new_campaign_id():
    return uuid.uuid4().hex[:12]


class TelemetryBus:
    """One append-mode handle on a telemetry JSONL stream.

    Safe to share across threads (a lock serialises writes) and across
    ``fork()`` (a fork waits out a write in progress, and the child
    detects the pid change and reopens its own handle). Emission never
    raises: an unwritable stream counts ``dropped`` and returns False —
    telemetry must not take down a campaign.
    """

    def __init__(self, path, campaign=None):
        self.path = Path(path)
        self.campaign = campaign or new_campaign_id()
        self.emitted = 0
        self.dropped = 0
        self._handle = None
        self._pid = None
        self._lock = threading.Lock()

    def _open(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._pid = os.getpid()

    def emit(self, event, run=None, span=None, **fields):
        doc = {"schema": TELEMETRY_SCHEMA, "ev": event,
               "ts": round(time.time(), 6), "pid": os.getpid(),
               "campaign": self.campaign}
        if run is not None:
            doc["run"] = run
        if span is not None:
            doc["span"] = span
        doc.update(fields)
        line = json.dumps(doc, separators=(",", ":"), default=str)
        with self._lock:
            try:
                if self._handle is None or self._pid != os.getpid():
                    self._open()
                self._handle.write(line + "\n")
                self._handle.flush()
            except (OSError, ValueError):
                self.dropped += 1
                return False
            self.emitted += 1
        return True

    def close(self):
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


_bus = None

#: the bus whose lock is held across an ``os.fork()``
_forking = None


def _before_fork():
    # a fork while another thread holds the bus lock would hand the
    # child a lock nobody can release: its first emit would deadlock
    global _forking
    _forking = _bus
    if _forking is not None:
        _forking._lock.acquire()


def _after_fork():
    if _forking is not None:
        _forking._lock.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork, after_in_parent=_after_fork,
                        after_in_child=_after_fork)

#: thread-local default (run, span) identity for nested emissions —
#: see :func:`run_scope`
_scope = threading.local()


class run_scope:
    """Context manager giving nested emissions a default run identity.

    Deep layers (checkpoint save/restore, sampling windows, the disk
    cache) emit events without knowing which harness run they serve;
    before this existed those events carried a campaign but no
    ``run``/``span``, so campaign tooling could not attribute them.
    The executor wraps each spec's execution in
    ``run_scope(run_id, span)`` and :func:`emit` fills in the scoped
    identity whenever the caller passes ``run=None``. Scopes nest
    (innermost wins) and are per-thread; pool workers inherit nothing
    across ``fork()`` because the wrap happens inside the worker.
    """

    def __init__(self, run, span=None):
        self.ident = (run, span)

    def __enter__(self):
        self._prev = getattr(_scope, "ident", None)
        _scope.ident = self.ident
        return self

    def __exit__(self, *exc):
        _scope.ident = self._prev
        return False


def scoped_identity():
    """The innermost active ``(run, span)`` scope, or None."""
    return getattr(_scope, "ident", None)


def configure(path=None, campaign=None):
    """Activate the process-wide bus and export it to child processes.

    ``path=None`` auto-names a stream under ``.repro_telemetry/``. The
    path and campaign ID are published via ``REPRO_TELEMETRY`` /
    ``REPRO_TELEMETRY_CAMPAIGN`` so pool workers (fork or spawn) join
    the same stream."""
    global _bus
    if _bus is not None:
        _bus.close()
    campaign = campaign or new_campaign_id()
    if path is None:
        path = Path(DEFAULT_DIR) / f"telemetry-{campaign}.jsonl"
    bus = TelemetryBus(path, campaign)
    os.environ[ENV_PATH] = str(bus.path)
    os.environ[ENV_CAMPAIGN] = bus.campaign
    _bus = bus
    return bus


def active():
    """The process-wide bus, or None. Lazily adopts a stream published
    through the environment (how pool workers join the parent's)."""
    global _bus
    if _bus is None:
        path = os.environ.get(ENV_PATH)
        if path:
            _bus = TelemetryBus(path, os.environ.get(ENV_CAMPAIGN))
    return _bus


def reset():
    """Deactivate the bus and clear the environment handshake
    (test isolation)."""
    global _bus
    if _bus is not None:
        _bus.close()
    _bus = None
    os.environ.pop(ENV_PATH, None)
    os.environ.pop(ENV_CAMPAIGN, None)


def emit(event, run=None, span=None, **fields):
    """Emit onto the active bus; a cheap no-op when telemetry is off.

    When the caller does not name a run, the innermost
    :class:`run_scope` (if any) supplies the ``(run, span)`` identity,
    so events from deep layers attribute to the harness run that
    triggered them."""
    bus = active()
    if bus is None:
        return False
    if run is None:
        ident = scoped_identity()
        if ident is not None:
            run = ident[0]
            if span is None:
                span = ident[1]
    return bus.emit(event, run=run, span=span, **fields)


def read_events(path):
    """Parse a telemetry JSONL stream, skipping torn/foreign lines."""
    events = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return events
    for line in text.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and \
                doc.get("schema") == TELEMETRY_SCHEMA and "ev" in doc:
            events.append(doc)
    return events


#: events rendered as instants on the campaign Gantt; the rest either
#: open/close spans or are campaign metadata
_TRACE_INSTANTS = ("retry", "requeue", "quarantine", "timeout",
                   "replayed", "cache_hit", "cache_miss",
                   "checkpoint_save", "checkpoint_restore",
                   "journal_load", "plan")

#: events that close a run's open execution span
_TRACE_CLOSERS = ("finished", "failed", "retry", "timeout",
                  "quarantine")


def campaign_trace(source, max_events=500_000):
    """Merge a telemetry stream into one campaign-level Chrome trace.

    Every worker pid becomes a thread track under a single "campaign"
    process; each (run, span) attempt becomes a complete slice from
    its ``started`` event to whichever of finished / failed / retry /
    timeout / quarantine ends it; the remaining lifecycle events
    (replays, cache hits, checkpoints, requeues) are instants on the
    worker that produced them. Returns the Chrome ``trace_event``
    document (dict) — feed it to ``json.dump`` and open in Perfetto.
    """
    events = source if isinstance(source, list) else read_events(source)
    tracer = EventTracer(max_events=max(max_events, len(events) + 64))
    if not events:
        return tracer.chrome_trace()
    t0 = min(ev["ts"] for ev in events)
    campaign = events[0].get("campaign", "?")
    tracer.set_process(0, f"campaign {campaign}")
    for pid in sorted({ev.get("pid", 0) for ev in events}):
        tracer.set_thread(0, pid, f"worker {pid}")

    def micros(ev):
        return int((ev["ts"] - t0) * 1e6)

    opens = {}  # run id -> started event
    completed = 0
    for ev in events:
        kind = ev["ev"]
        run = ev.get("run")
        pid = ev.get("pid", 0)
        if kind == "started":
            opens[run] = ev
        if kind in _TRACE_CLOSERS and run in opens:
            start = opens.pop(run)
            begin = micros(start)
            tracer.complete(
                start.get("label", run or "run"), ts=begin,
                dur=max(micros(ev) - begin, 1), pid=0,
                tid=start.get("pid", pid), cat=kind,
                args={"run": run, "span": start.get("span"),
                      "status": ev.get("status", kind)})
        if kind in ("finished", "failed", "replayed"):
            completed += 1
            tracer.count("completed", micros(ev), completed, pid=0)
        if kind in _TRACE_INSTANTS:
            args = {k: v for k, v in ev.items()
                    if k not in ("schema", "ev", "ts", "pid",
                                 "campaign")}
            tracer.instant(kind, micros(ev), pid=0, tid=pid,
                           args=args or None, cat="lifecycle")
    for run, start in opens.items():
        tracer.instant("started (never finished)", micros(start),
                       pid=0, tid=start.get("pid", 0),
                       args={"run": run}, cat="lifecycle")
    return tracer.chrome_trace()
