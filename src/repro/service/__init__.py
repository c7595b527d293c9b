"""Run-as-a-service front door for the reproduction harness.

``repro serve`` (docs/SERVICE.md) exposes the content-addressed run
machinery — :mod:`repro.harness.parallel` execution,
:mod:`repro.harness.diskcache` persistence, the
:mod:`repro.obs.telemetry` event stream — over a stdlib-only
asyncio HTTP/JSON fabric:

* :mod:`repro.service.tenancy` — per-tenant token buckets and the
  round-robin fair queue (admission control)
* :mod:`repro.service.scheduler` — job admission, in-flight dedup,
  cache read-through, and the asyncio bridge onto the harness's
  execution core (:class:`repro.harness.parallel.Executor`, the one
  pool and degradation ladder ``run_specs`` also uses)
* :mod:`repro.service.app` — the HTTP/1.1 server itself (health,
  OpenMetrics, the ``/v1/cache`` remote tier, chunked run streaming)
* :mod:`repro.service.client` — a blocking :mod:`http.client` client
  used by the tests, the benchmark and peer caches
"""

from repro.service.app import Service, serve_in_thread
from repro.service.client import RunOutcome, ServiceClient, ServiceError
from repro.service.scheduler import Job, JobScheduler, RejectedRequest
from repro.service.tenancy import FairQueue, TokenBucket

__all__ = [
    "FairQueue",
    "Job",
    "JobScheduler",
    "RejectedRequest",
    "RunOutcome",
    "Service",
    "ServiceClient",
    "ServiceError",
    "TokenBucket",
    "serve_in_thread",
]
