"""Job admission and execution for the run service.

:class:`JobScheduler` is the seam between the asyncio front door
(:mod:`repro.service.app`) and the synchronous harness:

* **Canonicalization** — request bodies become :class:`RunSpec` via
  ``RunSpec.from_dict``, which canonicalizes and validates them (a bad
  spec is a ``ValueError``, a 400, before any admission work), and are
  named by :func:`repro.harness.journal.spec_key`, the same content
  hash the write-ahead journal uses, so every spelling of one run,
  posted by one client or two, has one identity.
* **Dedup before work** — a key already in flight attaches the new
  request to the existing job (shared asyncio future: duplicate
  concurrent posts cost zero extra executions); a key already in the
  disk cache resolves immediately without queueing. Only the *local*
  cache tier is consulted on the submit path (the remote tier is a
  blocking HTTP probe — scheduled jobs retry it off-loop just before
  execution). The cache itself holds the ok-only rule: it serves and
  stores only clean records (:mod:`repro.harness.diskcache`).
* **Admission control** — per-tenant :class:`TokenBucket` rate limits
  and a bounded round-robin :class:`FairQueue`; both reject with
  :class:`RejectedRequest` (HTTP 429 + Retry-After) instead of
  queueing unboundedly. Dedup and cache hits are checked *first*:
  they consume no worker, so they spend no tokens. Queue capacity is
  probed *before* the token bucket, so a bounce off a full queue
  costs the tenant nothing on retry.
* **Execution** — admitted jobs run through the harness's one
  execution core (:class:`repro.harness.parallel.Executor`, which owns
  a persistent process pool and the docs/RESILIENCE.md §3 degradation
  ladder) via ``loop.run_in_executor``: the event loop never runs a
  simulation, waits on a worker or writes the cache, and a request
  can degrade, never 500.

``inline=True`` swaps the process pool for a thread pool (no fork
cost; the degradation ladder still applies minus worker death), which
is what the fast tests use.
"""

import asyncio

from repro.harness.journal import spec_key
from repro.harness.parallel import Executor, RunSpec, Ticket
from repro.obs import telemetry
from repro.service.tenancy import FairQueue, TokenBucket


class RejectedRequest(Exception):
    """Admission control refused the request (mapped to HTTP 429)."""

    def __init__(self, reason, retry_after=None):
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


class Job:
    """One admitted run request; duplicates share the same instance
    (and therefore the same asyncio future)."""

    __slots__ = ("spec", "key", "run_id", "tenant", "future", "state",
                 "sharers", "ticket")

    def __init__(self, spec, key, tenant, future):
        self.spec = spec
        self.key = key
        self.run_id = key[:12]   # run_specs' telemetry identity rule
        self.tenant = tenant
        self.future = future
        self.state = "queued"    # queued -> running -> done
        self.sharers = 1
        self.ticket = Ticket(spec, self.run_id)   # its ladder state


class JobScheduler:
    """Admission + fair dispatch onto the harness execution core."""

    def __init__(self, workers=2, cache=None, rate=None, burst=None,
                 queue_depth=64, timeout=None, retries=1, inline=False):
        self.workers = max(1, int(workers))
        self.cache = cache                     # a DiskCache, or None
        self.rate = rate                       # tokens/sec; None = off
        self.burst = burst if burst is not None \
            else max(2.0 * (rate or 0.0), 4.0)
        self.executor = Executor(self.workers, timeout=timeout,
                                 retries=retries, inline=inline)
        # counters surfaced on /metrics (service.* namespace)
        self.requests = 0
        self.executions = 0      # jobs dispatched to a worker
        self.dedup_shared = 0    # requests attached to an in-flight job
        self.cache_immediate = 0  # requests satisfied straight from cache
        self.rejected_rate = 0
        self.rejected_depth = 0
        self.completed = 0
        self.failed = 0
        self._queue = FairQueue(depth=queue_depth)
        self._buckets = {}       # tenant -> TokenBucket
        self._inflight = {}      # key -> Job
        self._active = 0
        self._loop = None
        self._wake = None
        self._dispatcher = None
        self._closed = False

    # ------------------------------------------------------- lifecycle

    def start(self, loop):
        """Bind to the running event loop and start dispatching."""
        self._loop = loop
        self._wake = asyncio.Event()
        self._dispatcher = loop.create_task(self._dispatch(),
                                            name="repro-dispatch")
        return self

    async def aclose(self):
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.set_exception(
                    RuntimeError("service shutting down"))
        self._inflight.clear()
        self.executor.close(wait=False)

    # ------------------------------------------------------- admission

    def _bucket(self, tenant):
        if self.rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            self._buckets[tenant] = bucket
        return bucket

    def submit(self, doc, tenant="anon"):
        """Admit one JSON-shaped spec from ``tenant``.

        Returns ``(job, outcome)`` with outcome one of ``"scheduled"``
        (fresh work), ``"deduped"`` (attached to an identical in-flight
        job) or ``"cached"`` (already-resolved future). Raises
        ``ValueError`` for a malformed spec and
        :class:`RejectedRequest` when admission control says no.
        Must be called on the event-loop thread."""
        self.requests += 1
        spec = RunSpec.from_dict(doc)
        key = spec_key(spec)
        shared = self._inflight.get(key)
        if shared is not None:
            self.dedup_shared += 1
            shared.sharers += 1
            return shared, "deduped"
        if self.cache is not None:
            # local tier only: the remote probe is a blocking HTTP
            # fetch, so scheduled jobs retry the peer off-loop in
            # _run_job instead of stalling every connection here
            record = self.cache.get(key, remote=False)
            if record is not None:
                self.cache_immediate += 1
                future = self._loop.create_future()
                job = Job(spec, key, tenant, future)
                job.state = "done"
                future.set_result(record)
                return job, "cached"
        # capacity before tokens: a bounce off a full queue admits no
        # work, so it must not also drain the tenant's rate budget
        if self._queue.full(tenant):
            self.rejected_depth += 1
            raise RejectedRequest(
                f"tenant {tenant!r} queue is full "
                f"({self._queue.depth} pending)", retry_after=1.0)
        bucket = self._bucket(tenant)
        if bucket is not None and not bucket.try_acquire():
            self.rejected_rate += 1
            raise RejectedRequest(
                f"tenant {tenant!r} exceeded {self.rate:g} runs/s",
                retry_after=bucket.retry_after())
        job = Job(spec, key, tenant, self._loop.create_future())
        if not self._queue.push(tenant, job):
            # unreachable (no await between full() and push()), but if
            # it ever trips, refund the token: no work was admitted
            if bucket is not None:
                bucket.refund()
            self.rejected_depth += 1
            raise RejectedRequest(
                f"tenant {tenant!r} queue is full "
                f"({self._queue.depth} pending)", retry_after=1.0)
        self._inflight[key] = job
        telemetry.emit("scheduled", run=job.run_id,
                       label=spec.workload)
        self._wake.set()
        return job, "scheduled"

    # -------------------------------------------------------- dispatch

    async def _dispatch(self):
        while not self._closed:
            await self._wake.wait()
            self._wake.clear()
            while self._active < self.workers:
                job = self._queue.pop()
                if job is None:
                    break
                self._active += 1
                self._loop.create_task(self._run_job(job))

    async def _run_job(self, job):
        job.state = "running"
        try:
            record = await self._remote_lookup(job)
            if record is None:
                self.executions += 1
                record = await self._loop.run_in_executor(
                    None, self._execute, job)
            else:
                telemetry.emit("finished", run=job.run_id, span=0,
                               status="ok")
            if record.failed:
                self.failed += 1
            else:
                self.completed += 1
            if not job.future.done():
                job.future.set_result(record)
        except Exception as exc:   # the executor closed under the job
            if not job.future.done():
                job.future.set_exception(exc)
        finally:
            job.state = "done"
            self._inflight.pop(job.key, None)
            self._active -= 1
            self._wake.set()

    def _execute(self, job):
        """Run ``job`` and store its record, on an executor thread: the
        cache write (a file write plus LRU eviction, and now and then a
        full directory walk) stays off the event loop too."""
        record = self.executor.run(job.ticket)
        if self.cache is not None:
            self.cache.put(job.key, record)
        return record

    async def _remote_lookup(self, job):
        """Retry the cache's remote tier off-loop before paying for an
        execution. ``submit`` checked only the local tier (a blocking
        HTTP probe would stall the event loop — every connection,
        heartbeat and /metrics — for up to ``remote_timeout`` per
        miss, worst exactly when the peer is down), so scheduled jobs
        probe the peer here, on an executor thread."""
        if self.cache is None or not self.cache.remote:
            return None
        return await self._loop.run_in_executor(
            None, self.cache.remote_probe, job.key)

    # ----------------------------------------------------------- stats

    def snapshot(self):
        """Flat counters for the ``/metrics`` exposition."""
        return {
            "service.requests": self.requests,
            "service.executions": self.executions,
            "service.dedup.shared": self.dedup_shared,
            "service.cache.immediate": self.cache_immediate,
            "service.cache.stale_skips":
                self.cache.stale_skips if self.cache is not None else 0,
            "service.rejected.rate": self.rejected_rate,
            "service.rejected.depth": self.rejected_depth,
            "service.completed": self.completed,
            "service.failed": self.failed,
            "service.queue.depth": len(self._queue),
            "service.active": self._active,
            "service.pool.generation": self.executor.generation,
        }
