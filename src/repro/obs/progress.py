"""Live campaign progress on top of the telemetry stream.

:class:`CampaignProgress` folds telemetry events into the aggregate
view a fleet operator wants — completed/total, fresh-execution rate,
ETA, retry/requeue/quarantine tallies, cache-hit ratio, per-worker
state. :class:`ProgressRenderer` tails the telemetry JSONL file
incrementally (byte offset, torn-line aware) and repaints one status
line, which makes it correct by construction across processes *and*
across ``--resume``: replayed cells arrive as ``replayed`` events and
count toward completion without polluting the execution rate the ETA
is derived from.

:class:`MetricsServer` exposes the same aggregates (plus the process
resilience counters) as OpenMetrics text over HTTP for long campaigns
(``--metrics-port``); see docs/OBSERVABILITY.md §6.
"""

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.registry import OPENMETRICS_CONTENT_TYPE, StatsRegistry


class CampaignProgress:
    """Telemetry-event fold: the live aggregate state of a campaign."""

    def __init__(self, total=None):
        self.total = total
        self.scheduled = 0
        self.executed = 0      # finished + failed (fresh work)
        self.failed = 0
        self.replayed = 0      # journal hits (resume)
        self.retries = 0
        self.requeues = 0
        self.quarantines = 0
        self.timeouts = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.workers = {}      # pid -> current label (None = idle)
        self._owner = {}       # run id -> worker pid
        self._first_ts = None  # first started/finished wall-clock
        self._last_ts = None

    # ------------------------------------------------------------ events

    def observe(self, ev):
        kind = ev.get("ev")
        pid = ev.get("pid")
        run = ev.get("run")
        if kind == "campaign_begin":
            self.total = ev.get("cells", self.total)
        elif kind == "scheduled":
            self.scheduled += 1
        elif kind == "replayed":
            self.replayed += 1
        elif kind == "started":
            self.workers[pid] = ev.get("label", run or "?")
            if run is not None:
                self._owner[run] = pid
            self._clock(ev)
        elif kind in ("finished", "failed"):
            self.executed += 1
            if kind == "failed":
                self.failed += 1
            self._release(run)
            self._clock(ev)
        elif kind == "retry":
            # the previous attempt's worker is done with this run
            # (the resubmission emits its own ``started``)
            self.retries += 1
            self._release(run)
        elif kind == "requeue":
            # the pool died: every worker of the old pool is gone, so
            # any busy label they held is stale (resubmitted attempts
            # re-mark their new worker via ``started``)
            self.requeues += ev.get("count", 1)
            for pid_ in self.workers:
                self.workers[pid_] = None
            self._owner.clear()
        elif kind == "quarantine":
            self.quarantines += 1
            self._release(run)
        elif kind == "timeout":
            self.timeouts += 1
            self._release(run)
        elif kind == "cache_hit":
            self.cache_hits += 1
        elif kind == "cache_miss":
            self.cache_misses += 1

    def _release(self, run):
        """Mark the worker owning ``run`` idle. Every terminal event —
        finished / failed / retry / quarantine / timeout — must free
        the owner, or ``busy_workers()`` (and the OpenMetrics
        ``campaign.workers.busy`` gauge) overcounts for the rest of a
        long campaign (the ISSUE 10 leak)."""
        owner = self._owner.pop(run, None)
        if owner in self.workers:
            self.workers[owner] = None

    def _clock(self, ev):
        ts = ev.get("ts")
        if ts is None:
            return
        if self._first_ts is None:
            self._first_ts = ts
        self._last_ts = ts

    # -------------------------------------------------------- aggregates

    @property
    def completed(self):
        """Cells accounted for this invocation (fresh + replayed)."""
        return self.executed + self.replayed

    def rate(self):
        """Fresh-execution throughput in cells/sec (replays excluded —
        they are journal reads, not simulation)."""
        if self._first_ts is None or self.executed == 0:
            return 0.0
        elapsed = max(self._last_ts - self._first_ts, 1e-9)
        return self.executed / elapsed

    def eta_seconds(self):
        if self.total is None:
            return None
        remaining = max(self.total - self.completed, 0)
        rate = self.rate()
        if remaining == 0:
            return 0.0
        if rate <= 0:
            return None
        return remaining / rate

    def eta_source(self):
        """Where the ETA came from — surfaced in the campaign summary
        so a resumed campaign's optimistic early ETA is explicable."""
        if self.total is None or self.rate() <= 0:
            return "n/a"
        return "fresh-rate+resume" if self.replayed else "fresh-rate"

    def cache_hit_ratio(self):
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else None

    def busy_workers(self):
        return sum(1 for label in self.workers.values()
                   if label is not None)

    # ----------------------------------------------------------- exports

    def to_registry(self):
        """The aggregates as a ``campaign.*`` stats registry (merged
        into the ``/metrics`` exposition)."""
        reg = StatsRegistry()
        if self.total is not None:
            reg.set("campaign.cells.total", self.total)
        reg.set("campaign.cells.completed", self.completed)
        reg.set("campaign.cells.executed", self.executed)
        reg.set("campaign.cells.failed", self.failed)
        reg.set("campaign.cells.replayed", self.replayed)
        reg.set("campaign.retries", self.retries)
        reg.set("campaign.requeues", self.requeues)
        reg.set("campaign.quarantines", self.quarantines)
        reg.set("campaign.timeouts", self.timeouts)
        reg.set("campaign.cache.hits", self.cache_hits)
        reg.set("campaign.cache.misses", self.cache_misses)
        reg.set("campaign.cells_per_sec", self.rate())
        eta = self.eta_seconds()
        if eta is not None:
            reg.set("campaign.eta_seconds", eta)
        reg.set("campaign.workers.busy", self.busy_workers())
        return reg

    def status_line(self, label="campaign"):
        done = self.completed
        total = self.total
        if total:
            pct = 100.0 * done / total
            head = f"{label}: {done}/{total} ({pct:3.0f}%)"
        else:
            head = f"{label}: {done} done"
        parts = [head, f"{self.rate():.2f} cells/s",
                 f"ETA {_fmt_eta(self.eta_seconds())}"]
        if self.replayed:
            parts.append(f"replayed {self.replayed}")
        if self.failed:
            parts.append(f"failed {self.failed}")
        if self.retries or self.requeues:
            parts.append(f"retries {self.retries}")
        if self.quarantines:
            parts.append(f"quarantined {self.quarantines}")
        ratio = self.cache_hit_ratio()
        if ratio is not None:
            parts.append(f"cache {100.0 * ratio:.0f}%")
        parts.append(f"workers {self.busy_workers()} busy")
        return " | ".join(parts)


def _fmt_eta(seconds):
    if seconds is None:
        return "?"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:" \
               f"{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


class ProgressRenderer:
    """Tails a telemetry stream and repaints a one-line status.

    The renderer is pull-based: the harness calls :meth:`poll` at its
    natural idle points (after each serial spec, while waiting on pool
    futures), the renderer reads whatever new complete lines the
    stream gained — from *any* process — and repaints at most every
    ``interval`` seconds (a TTY gets ``\\r`` repaints; a pipe gets
    whole lines at a gentler cadence). ``quiet=True`` keeps the fold
    (for ``--metrics-port``) without painting anything.
    """

    def __init__(self, label="campaign", total=None, stream=None,
                 interval=0.5, quiet=False):
        self.progress = CampaignProgress(total=total)
        self.label = label
        self.quiet = quiet
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._path = None
        self._handle = None
        self._last_paint = 0.0
        self._painted = False
        try:
            self._tty = self.stream.isatty()
        except (AttributeError, ValueError):
            self._tty = False
        if not self._tty:
            self.interval = max(interval, 5.0)

    def bind(self, bus):
        """Point the renderer at a telemetry bus's stream."""
        if bus is not None:
            self._path = bus.path
        return self

    # ----------------------------------------------------------- tailing

    def _drain(self):
        if self._path is None:
            return
        if self._handle is None:
            try:
                self._handle = open(self._path, "r", encoding="utf-8")
            except OSError:
                return
        while True:
            offset = self._handle.tell()
            line = self._handle.readline()
            if not line:
                break
            if not line.endswith("\n"):
                # torn tail: a writer is mid-append; re-read next poll
                self._handle.seek(offset)
                break
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and "ev" in doc:
                self.progress.observe(doc)

    def poll(self, force=False):
        """Ingest new events and repaint if the interval elapsed."""
        self._drain()
        if self.quiet:
            return
        now = time.monotonic()
        if not force and now - self._last_paint < self.interval:
            return
        self._last_paint = now
        line = self.progress.status_line(self.label)
        if self._tty:
            self.stream.write(f"\r{line:<100s}")
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._painted = True

    def finish(self):
        """Final drain + paint, terminating the repaint line."""
        self._drain()
        if self.quiet:
            return
        line = self.progress.status_line(self.label)
        if self._tty:
            self.stream.write(f"\r{line:<100s}\n")
        elif not self._painted or line != getattr(self, "_last", None):
            self.stream.write(line + "\n")
        self.stream.flush()
        self.close()

    def close(self):
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


def summary_extras(monitor=None):
    """The cache-hit-ratio / ETA-source fields the stderr campaign
    summary must carry (docs/OBSERVABILITY.md §6). Falls back to the
    process-wide disk-cache counters when no ``--progress`` monitor
    observed the campaign."""
    if monitor is not None:
        progress = monitor.progress
        ratio = progress.cache_hit_ratio()
        hits = progress.cache_hits
        lookups = hits + progress.cache_misses
        source = progress.eta_source()
    else:
        from repro.harness import diskcache
        disk = diskcache.active()
        stats = disk.counters() if disk is not None else {}
        hits = stats.get("hits", 0)
        lookups = hits + stats.get("misses", 0)
        ratio = hits / lookups if lookups else None
        source = "n/a (run with --progress)"
    shown = f"{100.0 * ratio:.0f}% ({hits}/{lookups})" \
        if ratio is not None else "n/a (0 lookups)"
    return [f"cache_hits={shown}", f"eta_source={source}"]


class MetricsServer:
    """OpenMetrics text exposition over HTTP (``GET /metrics``).

    ``provider`` is a zero-argument callable returning the exposition
    body; it runs on the server thread, so it must only read shared
    state (StatsRegistry reads are plain attribute reads — safe)."""

    def __init__(self, provider, port=0, host="127.0.0.1"):
        self.provider = provider
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                try:
                    body = server.provider().encode("utf-8")
                except Exception as exc:  # pragma: no cover
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header("Content-Type", OPENMETRICS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request noise
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics",
            daemon=True)

    def start(self):
        self._thread.start()
        return self

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
