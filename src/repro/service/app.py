"""The run service's HTTP/1.1 front door (stdlib asyncio only).

``repro serve`` binds :class:`Service`: a hand-rolled HTTP/1.1 server
on ``asyncio.start_server`` (no framework — the protocol surface is
four routes) in front of the :class:`repro.service.scheduler.
JobScheduler`:

* ``GET /healthz`` — liveness + scheduler snapshot
* ``GET /metrics`` — OpenMetrics text: the process resilience
  counters, the live campaign fold (:class:`repro.obs.progress.
  CampaignProgress` tailing the telemetry stream — the same fold the
  CLI ``--progress``/``--metrics-port`` path uses), the scheduler's
  ``service.*`` counters and the disk-cache hit ratio
* ``GET /v1/cache/<key>`` — the remote cache tier: the verbatim
  entry text for ``key`` (peers revalidate; docs/SERVICE.md §5)
* ``POST /v1/runs`` — submit a run spec (JSON body, optional
  ``X-Tenant`` header); the response is ``Transfer-Encoding:
  chunked`` JSON lines: a ``queued`` acknowledgment (carrying the
  content-addressed key and whether the request was deduped or
  cache-satisfied), ``progress`` heartbeats folding live campaign
  stats while the job runs, and a final ``result`` carrying the full
  record. Admission failures are 429 with ``Retry-After``; malformed
  specs are 400. Worker loss mid-request is *not* an error — the
  scheduler's degradation ladder absorbs it and the stream still ends
  in a ``result``.

:func:`serve_in_thread` runs a service on a daemon thread with its
own event loop — how the tests and the benchmark host one in-process.
"""

import asyncio
import dataclasses
import json
import threading

from repro.harness import diskcache
from repro.obs import telemetry
from repro.obs.progress import ProgressRenderer
from repro.obs.registry import OPENMETRICS_CONTENT_TYPE, StatsRegistry
from repro.obs.resilience import resilience
from repro.service.scheduler import JobScheduler, RejectedRequest

#: request body bound (a run spec is a few hundred bytes)
MAX_BODY = 1 << 20

#: seconds between ``progress`` heartbeats on a streaming response
STREAM_INTERVAL = 0.25

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error"}


class Service:
    """One bound service instance: scheduler + cache + telemetry fold
    + HTTP server."""

    def __init__(self, host="127.0.0.1", port=0, workers=2, cache=None,
                 cache_remote=None, rate=None, burst=None,
                 queue_depth=64, timeout=None, retries=1, inline=False,
                 telemetry_path=None, stream_interval=STREAM_INTERVAL):
        self.host = host
        self.port = port
        self.stream_interval = stream_interval
        self.cache = self._resolve_cache(cache, cache_remote)
        self.scheduler = JobScheduler(
            workers=workers, cache=self.cache, rate=rate, burst=burst,
            queue_depth=queue_depth, timeout=timeout, retries=retries,
            inline=inline)
        bus = telemetry.active()
        if bus is None:
            # the env handshake makes pool workers join this stream
            bus = telemetry.configure(path=telemetry_path)
        self.bus = bus
        self.monitor = ProgressRenderer(label="service",
                                        quiet=True).bind(bus)
        self._server = None

    @staticmethod
    def _resolve_cache(cache, remote):
        if cache is None:
            return diskcache.active()
        if isinstance(cache, diskcache.DiskCache):
            return cache
        return diskcache.DiskCache(cache, remote=remote)

    # ------------------------------------------------------- lifecycle

    async def start(self):
        loop = asyncio.get_running_loop()
        self.scheduler.start(loop)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def aclose(self):
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        await self.scheduler.aclose()
        self.monitor.close()

    # ------------------------------------------------------------ http

    async def _handle_connection(self, reader, writer):
        try:
            request = await self._read_request(reader, writer)
            if request is not None:
                method, path, headers, body = request
                await self._route(writer, method, path, headers, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # a handler bug, not a job failure
            try:
                self._respond(writer, 500,
                              {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader, writer):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            self._respond(writer, 400, {"error": "malformed request"})
            return None
        method, target = parts[0].upper(), parts[1]
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = 0
        if length > MAX_BODY:
            self._respond(writer, 413, {"error": "body too large"})
            return None
        body = await reader.readexactly(length) if length > 0 else b""
        return method, target.split("?", 1)[0], headers, body

    def _respond(self, writer, status, doc, extra_headers=()):
        body = json.dumps(doc, default=str).encode() + b"\n"
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        head.extend(extra_headers)
        writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)

    def _respond_text(self, writer, status, text, content_type):
        body = text.encode()
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)

    async def _route(self, writer, method, path, headers, body):
        if path == "/v1/runs":
            if method != "POST":
                self._respond(writer, 405, {"error": "POST only"})
                return
            await self._handle_runs(writer, headers, body)
            return
        if method != "GET":
            self._respond(writer, 405, {"error": "GET only"})
            return
        if path in ("/healthz", "/healthz/"):
            self._respond(writer, 200, {"status": "ok",
                                        **self.scheduler.snapshot()})
        elif path in ("/metrics", "/metrics/"):
            self._respond_text(writer, 200, self.metrics_text(),
                               OPENMETRICS_CONTENT_TYPE)
        elif path.startswith("/v1/cache/"):
            self._handle_cache(writer, path[len("/v1/cache/"):])
        else:
            self._respond(writer, 404, {"error": f"no route {path}"})

    # --------------------------------------------------------- routes

    def _handle_cache(self, writer, key):
        """The remote-tier read endpoint: verbatim entry text (the
        peer revalidates through its own decode path, so a corrupt
        entry here degrades to a miss there)."""
        if self.cache is None:
            self._respond(writer, 404, {"error": "no cache configured"})
            return
        if not (len(key) == 64
                and all(c in "0123456789abcdef" for c in key)):
            self._respond(writer, 400, {"error": "malformed cache key"})
            return
        raw = self.cache.raw_entry(key)
        if raw is None:
            self._respond(writer, 404, {"error": "cache miss"})
            return
        self._respond_text(writer, 200, raw, "application/json")

    async def _handle_runs(self, writer, headers, body):
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._respond(writer, 400, {"error": "body must be JSON"})
            return
        spec_doc = doc.get("spec", doc) if isinstance(doc, dict) else doc
        tenant = headers.get("x-tenant") \
            or (doc.get("tenant") if isinstance(doc, dict) else None) \
            or "anon"
        try:
            job, outcome = self.scheduler.submit(spec_doc, str(tenant))
        except RejectedRequest as exc:
            retry = exc.retry_after
            extra = []
            if retry is not None and retry != float("inf"):
                extra.append(f"Retry-After: {max(retry, 0.001):.3f}")
            self._respond(writer, 429, {"error": exc.reason}, extra)
            return
        except ValueError as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return

        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/jsonlines\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        self._send_line(writer, {"event": "queued", "key": job.key,
                                 "run": job.run_id, "outcome": outcome,
                                 "tenant": job.tenant})
        await writer.drain()
        while not job.future.done():
            try:
                await asyncio.wait_for(asyncio.shield(job.future),
                                       timeout=self.stream_interval)
            except asyncio.TimeoutError:
                self._send_line(writer,
                                {"event": "progress",
                                 "state": job.state,
                                 **self._fold_snapshot()})
                await writer.drain()
            except Exception:
                break
        exc = job.future.exception() if job.future.done() else None
        if exc is not None:
            self._send_line(writer, {"event": "error",
                                     "error": str(exc)})
        else:
            record = job.future.result()
            self._send_line(
                writer,
                {"event": "result", "key": job.key, "outcome": outcome,
                 "status": record.status,
                 "attempts": job.ticket.attempts, "sharers": job.sharers,
                 "record": dataclasses.asdict(record)})
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    def _send_line(writer, doc):
        data = json.dumps(doc, separators=(",", ":"),
                          default=str).encode() + b"\n"
        writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")

    # ---------------------------------------------------- observability

    def _fold_snapshot(self):
        """Live campaign aggregates for a ``progress`` stream line
        (the telemetry-event fold, same source as ``/metrics``)."""
        self.monitor.poll()
        progress = self.monitor.progress
        snap = {"busy_workers": progress.busy_workers(),
                "completed": progress.completed,
                "retries": progress.retries,
                "requeues": progress.requeues,
                "queue_depth": len(self.scheduler._queue)}
        ratio = progress.cache_hit_ratio()
        if ratio is not None:
            snap["cache_hit_ratio"] = round(ratio, 4)
        return {"stats": snap}

    def metrics_text(self):
        """The OpenMetrics exposition: resilience counters + campaign
        fold + scheduler counters + cache hit ratio."""
        self.monitor.poll()
        reg = StatsRegistry()
        reg.merge(resilience())
        reg.merge(self.monitor.progress.to_registry())
        for name, value in self.scheduler.snapshot().items():
            reg.set(name, value)
        if self.cache is not None:
            stats = self.cache.counters()
            for name in ("hits", "misses", "writes", "remote_hits",
                         "walks"):
                reg.set(f"service.cache.{name}", stats[name])
            lookups = stats["hits"] + stats["misses"]
            if lookups:
                reg.set("service.cache.hit_ratio",
                        stats["hits"] / lookups)
        return reg.to_openmetrics()


class ServiceHandle:
    """A service running on a background thread (tests, benchmarks)."""

    def __init__(self):
        self.service = None
        self.loop = None
        self.thread = None
        self.port = None
        self.error = None

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def close(self, timeout=10.0):
        if self.loop is None:
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)


def serve_in_thread(**kwargs):
    """Start a :class:`Service` on a daemon thread with its own event
    loop; returns a :class:`ServiceHandle` once the port is bound."""
    handle = ServiceHandle()
    started = threading.Event()

    def main():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            service = Service(**kwargs)
            loop.run_until_complete(service.start())
        except Exception as exc:
            handle.error = exc
            started.set()
            loop.close()
            return
        handle.service = service
        handle.loop = loop
        handle.port = service.port
        started.set()
        try:
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(service.aclose())
            except Exception:
                pass
            loop.close()

    thread = threading.Thread(target=main, daemon=True,
                              name="repro-serve")
    handle.thread = thread
    thread.start()
    if not started.wait(30.0):
        raise RuntimeError("service failed to start within 30s")
    if handle.error is not None:
        raise handle.error
    return handle
