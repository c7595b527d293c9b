"""The run service: admission, dedup, equivalence, degradation.

Covers the docs/SERVICE.md contract end to end over real HTTP (a
:func:`serve_in_thread` instance per test class):

* tenancy primitives (token bucket with an injectable clock, fair
  round-robin queue with a depth bound)
* service-level equivalence — a record obtained through ``POST
  /v1/runs`` is byte-identical (deterministic stats view) to the same
  spec executed locally through ``run_specs``
* duplicate concurrent posts share one execution (asserted three
  ways: ``cache.writes``, the scheduler's execution counter, and the
  count of ``started`` telemetry events)
* cache read-through (second post is ``cached``), the ``/v1/cache``
  remote tier, and the remote read-through :class:`DiskCache`
* admission control: per-tenant 429s with ``Retry-After``, queue
  depth bounds
* worker SIGKILL mid-request degrades to a rebuilt pool and a
  successful response — never a 500
"""

import json
import os
import signal
import threading
import time
import urllib.request

import pytest

from repro.harness import clear_cache, diskcache, run_specs
from repro.obs import (OPENMETRICS_CONTENT_TYPE, deterministic_view,
                       telemetry)
from repro.obs.resilience import reset_resilience
from repro.service import (
    FairQueue,
    JobScheduler,
    RejectedRequest,
    ServiceClient,
    ServiceError,
    TokenBucket,
    serve_in_thread,
)

SPEC = {"machine": "diag", "workload": "nn", "config": "F4C2",
        "scale": 0.2}


@pytest.fixture(autouse=True)
def isolated(tmp_path):
    """Fresh telemetry stream, no ambient disk cache, cold caches."""
    telemetry.reset()
    diskcache.configure(None)
    reset_resilience()
    clear_cache()
    telemetry.configure(path=tmp_path / "telemetry.jsonl")
    yield
    telemetry.reset()
    diskcache.reset()
    reset_resilience()
    clear_cache()


def start_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("inline", True)
    kwargs.setdefault("stream_interval", 0.05)
    if "cache" not in kwargs:
        kwargs["cache"] = diskcache.DiskCache(tmp_path / "svc-cache")
    handle = serve_in_thread(**kwargs)
    return handle, ServiceClient(handle.url)


# =====================================================================
# Tenancy primitives
# =====================================================================

class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(1.0)
        now[0] = 0.5
        assert not bucket.try_acquire()
        now[0] = 1.0
        assert bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3, clock=lambda: now[0])
        now[0] = 100.0
        assert bucket.try_acquire(3)
        assert not bucket.try_acquire()

    def test_zero_rate_never_refills(self):
        now = [0.0]
        bucket = TokenBucket(rate=0.0, burst=1, clock=lambda: now[0])
        assert bucket.try_acquire()
        now[0] = 1e9
        assert not bucket.try_acquire()
        assert bucket.retry_after() == float("inf")


class TestFairQueue:
    def test_round_robin_across_tenants(self):
        queue = FairQueue(depth=8)
        for item in ("a1", "a2", "a3"):
            queue.push("a", item)
        queue.push("b", "b1")
        queue.push("c", "c1")
        # tenant a cannot starve b and c: one item each per rotation
        assert [queue.pop() for _ in range(5)] == \
            ["a1", "b1", "c1", "a2", "a3"]
        assert queue.pop() is None
        assert len(queue) == 0

    def test_depth_bound_is_per_tenant(self):
        queue = FairQueue(depth=2)
        assert queue.push("a", 1)
        assert queue.push("a", 2)
        assert not queue.push("a", 3)   # a is full...
        assert queue.push("b", 1)       # ...b is not
        assert queue.depth_of("a") == 2
        assert len(queue) == 3

    def test_drained_tenant_leaves_rotation(self):
        queue = FairQueue()
        queue.push("a", 1)
        assert queue.pop() == 1
        assert "a" not in queue._queues
        queue.push("a", 2)   # re-registering is fine
        assert queue.pop() == 2


class TestSchedulerAdmission:
    """Unit-level admission checks (no HTTP, no dispatcher running —
    submissions just land in the fair queue)."""

    def test_queue_depth_rejects(self):
        import asyncio

        async def main():
            sched = JobScheduler(workers=1, queue_depth=2)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            for scale in (0.1, 0.2):
                sched.submit(dict(SPEC, scale=scale), tenant="t")
            with pytest.raises(RejectedRequest) as err:
                sched.submit(dict(SPEC, scale=0.3), tenant="t")
            assert "queue is full" in str(err.value)
            assert sched.rejected_depth == 1
            # a different tenant still gets in (per-tenant bound)
            job, outcome = sched.submit(dict(SPEC, scale=0.3),
                                        tenant="u")
            assert outcome == "scheduled"

        asyncio.run(main())

    def test_rate_limit_rejects_fresh_work_only(self):
        import asyncio

        async def main():
            sched = JobScheduler(workers=1, rate=0.0001, burst=1)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            job, outcome = sched.submit(SPEC, tenant="t")
            assert outcome == "scheduled"
            # an identical duplicate is deduped, not rate-limited —
            # it consumes no worker, so it spends no tokens
            dup, outcome2 = sched.submit(SPEC, tenant="t")
            assert outcome2 == "deduped" and dup is job
            with pytest.raises(RejectedRequest) as err:
                sched.submit(dict(SPEC, scale=0.3), tenant="t")
            assert err.value.retry_after > 0
            assert sched.rejected_rate == 1

        asyncio.run(main())

    def test_depth_rejection_does_not_charge_tokens(self):
        """Bouncing off a full queue admits no work, so it must not
        also drain the tenant's rate budget (capacity is probed
        before the bucket)."""
        import asyncio

        async def main():
            # rate=0: tokens never refill, so the count is exact
            sched = JobScheduler(workers=1, rate=0.0, burst=5,
                                 queue_depth=1)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            sched.submit(SPEC, tenant="t")
            assert sched._buckets["t"].tokens == 4
            for _ in range(3):
                with pytest.raises(RejectedRequest):
                    sched.submit(dict(SPEC, scale=0.3), tenant="t")
            assert sched.rejected_depth == 3
            assert sched.rejected_rate == 0
            # the three bounces cost nothing
            assert sched._buckets["t"].tokens == 4

        asyncio.run(main())

    def test_malformed_specs_raise_value_error(self):
        import asyncio

        async def main():
            sched = JobScheduler(workers=1)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            with pytest.raises(ValueError):
                sched.submit(dict(SPEC, bogus=1))
            with pytest.raises(ValueError):
                sched.submit(["not", "a", "spec"])
            with pytest.raises(ValueError):
                sched.submit(dict(SPEC, machine="quantum"))

        asyncio.run(main())


# =====================================================================
# End-to-end over HTTP
# =====================================================================

class TestServiceBasics:
    def test_health_routes_and_errors(self, tmp_path):
        handle, client = start_service(tmp_path)
        try:
            health = client.health()
            assert health["status"] == "ok"
            assert health["service.requests"] == 0
            with pytest.raises(ServiceError) as err:
                client._get_json("/nope")
            assert err.value.status == 404
            # malformed body and unknown spec fields are 400s
            with pytest.raises(ServiceError) as err:
                client.run({"machine": "diag", "workload": "nn",
                            "bogus": 1})
            assert err.value.status == 400
            assert "bogus" in err.value.reason
        finally:
            handle.close()

    def test_streaming_protocol_shape(self, tmp_path):
        handle, client = start_service(tmp_path, stream_interval=0.01)
        try:
            seen = []
            outcome = client.run(SPEC, on_event=seen.append)
            kinds = [e["event"] for e in outcome.events]
            assert kinds[0] == "queued"
            assert kinds[-1] == "result"
            assert seen == outcome.events
            queued = outcome.events[0]
            assert queued["outcome"] == "scheduled"
            assert queued["key"] == outcome.key
            assert len(queued["key"]) == 64
            # a ~1s simulation at a 10ms heartbeat must have streamed
            # progress, and progress lines carry the campaign fold
            progress = outcome.progress_events()
            assert progress
            assert "busy_workers" in progress[0]["stats"]
            assert outcome.status == "ok"
            assert outcome.record["workload"] == "nn"
        finally:
            handle.close()


class TestEquivalence:
    def test_service_record_matches_local_run(self, tmp_path):
        """The service is a transport, not a different engine: the
        deterministic stats view of a served record is byte-identical
        to a local ``run_specs`` execution of the same spec."""
        from repro.harness import RunSpec

        handle, client = start_service(tmp_path)
        try:
            served = client.run(SPEC).record
        finally:
            handle.close()
        clear_cache()
        local = run_specs([RunSpec.from_dict(SPEC)])[0]
        served_bytes = json.dumps(
            deterministic_view(served["stats"]), sort_keys=True)
        local_bytes = json.dumps(
            deterministic_view(local.stats), sort_keys=True)
        assert served_bytes == local_bytes
        assert served["status"] == local.status
        assert served["cycles"] == local.cycles


class TestDedupAndCache:
    def test_concurrent_duplicates_execute_once(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        spec = {"machine": "diag", "workload": "hotspot",
                "config": "F4C2", "scale": 0.2}
        outs = [None] * 6
        try:
            def post(i):
                outs[i] = client.run(spec, tenant=f"t{i % 3}")

            threads = [threading.Thread(target=post, args=(i,))
                       for i in range(len(outs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            handle.close()
        outcomes = sorted(o.outcome for o in outs)
        assert outcomes.count("scheduled") == 1
        assert all(o in ("scheduled", "deduped", "cached")
                   for o in outcomes)
        # executed exactly once — by every measure we have
        assert cache.writes == 1
        assert handle.service.scheduler.executions == 1
        events = telemetry.read_events(handle.service.bus.path)
        assert sum(1 for e in events if e["ev"] == "started") == 1
        # and everyone got the same bytes back
        views = {json.dumps(deterministic_view(o.record["stats"]),
                            sort_keys=True) for o in outs}
        assert len(views) == 1

    def test_repeat_is_cached_and_metered(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        try:
            first = client.run(SPEC)
            second = client.run(SPEC)
            assert first.outcome == "scheduled"
            assert second.outcome == "cached"
            assert second.record["stats"] == first.record["stats"]
            assert cache.writes == 1 and cache.hits == 1
            metrics = client.metrics()
            assert "repro_service_cache_hit_ratio 0.5" in metrics
            assert "repro_service_executions 1" in metrics
            assert "repro_service_requests 2" in metrics
            # the campaign fold is in the same exposition
            assert "repro_campaign_workers_busy" in metrics
            assert "repro_harness_retries" in metrics
        finally:
            handle.close()

    def test_metrics_scrape_lists_no_cache_directory(self, tmp_path,
                                                     monkeypatch):
        """A scrape runs on the event-loop thread: it reads the
        cache's session counters and never walks its directory."""
        cache = diskcache.DiskCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        listed = []

        def spy(real):
            def listing(path="."):
                listed.append(os.path.abspath(path))
                return real(path)
            return listing
        try:
            assert client.run(SPEC).outcome == "scheduled"
            for name in ("listdir", "scandir"):
                monkeypatch.setattr(os, name, spy(getattr(os, name)))
            metrics = client.metrics()
            monkeypatch.undo()
        finally:
            handle.close()
        root = str(cache.root.resolve())
        assert not [path for path in listed if path.startswith(root)]
        assert "repro_service_cache_writes 1" in metrics
        assert "repro_service_cache_walks 1" in metrics

    def test_metrics_content_type_is_the_openmetrics_constant(self,
                                                              tmp_path):
        handle, client = start_service(tmp_path)
        try:
            with urllib.request.urlopen(f"{handle.url}/metrics",
                                        timeout=30) as response:
                assert response.status == 200
                content_type = response.headers["Content-Type"]
        finally:
            handle.close()
        assert content_type == OPENMETRICS_CONTENT_TYPE

    def test_cache_endpoint_serves_verbatim_entries(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        try:
            out = client.run(SPEC)
            raw = client.cache_entry(out.key)
            assert raw is not None
            assert raw == cache.raw_entry(out.key)
            assert json.loads(raw)["key"] == out.key
            assert client.cache_entry("ab" * 32) is None  # miss -> 404
            with pytest.raises(ServiceError) as err:
                client.cache_entry("not-a-key")
            assert err.value.status == 400
        finally:
            handle.close()


    def test_config_omitted_alias_is_cached(self, tmp_path):
        """Specs are canonical at the boundary: a post spelling its
        config implicitly (and its scale as an int) is a cache hit on
        its already-cached canonical twin, not a second execution."""
        cache = diskcache.DiskCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        twin = {"machine": "diag", "workload": "nn", "config": "F4C32",
                "scale": 0.2}
        try:
            first = client.run(twin)
            alias = client.run({"machine": "diag", "workload": "nn",
                                "scale": 0.2})
            ooo = client.run({"machine": "ooo", "workload": "nn",
                              "config": "ooo8", "scale": 0.2})
            ooo_alias = client.run({"machine": "ooo", "workload": "nn",
                                    "scale": 0.2, "simt": True})
        finally:
            handle.close()
        assert first.outcome == "scheduled" and ooo.outcome == "scheduled"
        assert alias.outcome == "cached" and ooo_alias.outcome == "cached"
        assert alias.key == first.key and ooo_alias.key == ooo.key
        assert alias.record["stats"] == first.record["stats"]
        assert handle.service.scheduler.executions == 2


class TestSpecBoundary:
    INVALID = ({"machine": "diag", "workload": "nope"},
               {"machine": "diag", "workload": "nn", "threads": -3},
               {"machine": "diag", "workload": "nn", "scale": "1.0"},
               {"machine": "diag", "workload": "nn", "config": "XX"},
               {"machine": "ooo", "workload": "nn", "num_clusters": 4},
               {"machine": "diag", "workload": "nn",
                "config_overrides": {"lsu_queue_depth": "x"}},
               {"machine": "diag", "workload": "nn",
                "config_overrides": {"pes_per_cluster": 0}})

    def test_invalid_post_is_400_and_costs_nothing(self, tmp_path):
        """Bad input is refused at the boundary: no execution, no
        retry ladder, no ``started`` event — not a quarantined/infra
        record after the ladder has run."""
        from repro.obs.resilience import RETRIES, resilience_snapshot

        cache = diskcache.DiskCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        try:
            for doc in self.INVALID:
                with pytest.raises(ServiceError) as err:
                    client.run(doc)
                assert err.value.status == 400, doc
            scheduler = handle.service.scheduler
            assert scheduler.executions == 0
            assert scheduler.requests == len(self.INVALID)
        finally:
            handle.close()
        assert resilience_snapshot().get(RETRIES, 0) == 0
        assert cache.writes == 0
        events = telemetry.read_events(handle.service.bus.path)
        assert not [e for e in events
                    if e["ev"] in ("scheduled", "started")]


class TestEventLoopNeverBlocks:
    def test_slow_cache_put_does_not_stall_the_loop(self, tmp_path):
        """The cache write runs on the executor thread with the run:
        a ``put`` stuck on I/O must not stall ``/healthz`` or a
        concurrent cached hit."""
        entered, release = threading.Event(), threading.Event()

        class SlowPutCache(diskcache.DiskCache):
            blocking = False

            def put(self, key, record):
                if self.blocking:
                    entered.set()
                    release.wait(60)
                return super().put(key, record)

        cache = SlowPutCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        quick = type(client)(handle.url, timeout=10.0)
        slow = {}
        poster = threading.Thread(target=lambda: slow.update(
            out=client.run(dict(SPEC, scale=0.1))))
        try:
            assert client.run(SPEC).outcome == "scheduled"
            cache.blocking = True
            poster.start()
            assert entered.wait(60), "the fresh run never reached put"
            start = time.monotonic()
            assert quick.health()["status"] == "ok"
            assert quick.run(SPEC).outcome == "cached"
            assert time.monotonic() - start < 5.0
            assert poster.is_alive()    # still parked in put
        finally:
            release.set()
            if poster.ident is not None:
                poster.join(60)
            handle.close()
        assert not poster.is_alive()
        assert slow["out"].status == "ok"
        assert cache.writes == 2


def plant_raw_entry(cache, key, record):
    """Write ``record`` under ``key`` as a well-formed entry file,
    bypassing ``DiskCache.put`` the way an old writer or a poisoned
    peer would."""
    import dataclasses
    import hashlib

    doc = json.loads(diskcache._canonical(dataclasses.asdict(record)))
    sha = hashlib.sha256(diskcache._canonical(doc).encode()).hexdigest()
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": diskcache.CACHE_SCHEMA,
                                "key": key, "sha": sha, "record": doc}))


class TestFailureRecordInvariant:
    """The cache's ok-only rule holds through the service: failure
    records are never written under a spec's content-hash key, and a
    persisted failure (old writer, poisoned peer) is never served."""

    def test_stale_failure_record_is_not_served(self, tmp_path):
        import asyncio

        from repro.harness import RunSpec
        from repro.harness.journal import spec_key

        async def main():
            cache = diskcache.DiskCache(tmp_path / "poisoned")
            spec = RunSpec.from_dict(SPEC)
            key = spec_key(spec)
            plant_raw_entry(cache, key, spec.failure_record(
                "timeout", "exceeded watchdog", "hang"))
            sched = JobScheduler(workers=1, cache=cache)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            job, outcome = sched.submit(SPEC, tenant="t")
            # a fresh attempt, not the stale failure "cached" forever
            assert outcome == "scheduled"
            assert sched.cache_immediate == 0
            assert cache.stale_skips == 1
            assert "service.cache.stale_skips" in sched.snapshot()

        asyncio.run(main())

    def test_failure_records_are_never_cached(self, tmp_path):
        import asyncio

        async def main():
            cache = diskcache.DiskCache(tmp_path / "svc-cache")
            sched = JobScheduler(workers=1, cache=cache, inline=True)
            sched.start(asyncio.get_running_loop())
            try:
                # every execution "times out" (transient infra, not a
                # property of the spec)
                def fake_run(ticket):
                    ticket.attempts += 1
                    return ticket.spec.failure_record(
                        "timeout", "synthetic watchdog", "hang")

                sched.executor.run = fake_run
                job, outcome = sched.submit(SPEC, tenant="t")
                assert outcome == "scheduled"
                record = await asyncio.wait_for(job.future, 30)
                assert record.status == "timeout"
                assert cache.writes == 0
                assert cache.get(job.key) is None
                # the next post of the same spec tries again
                job2, outcome2 = sched.submit(SPEC, tenant="t")
                assert outcome2 == "scheduled"
            finally:
                await sched.aclose()

        asyncio.run(main())


class TestRemoteTier:
    def test_peer_miss_reads_through_and_persists(self, tmp_path):
        peer_cache = diskcache.DiskCache(tmp_path / "peer")
        handle, client = start_service(tmp_path, cache=peer_cache)
        try:
            key = client.run(SPEC).key
            assert peer_cache.writes == 1
            local = diskcache.DiskCache(tmp_path / "local",
                                        remote=handle.url)
            record = local.get(key)
            assert record is not None
            assert record.workload == "nn"
            assert local.remote_hits == 1
            # read-through persisted it: the next get is purely local
            assert local.get(key) is not None
            assert local.remote_hits == 1
            assert local.hits == 2
        finally:
            handle.close()

    def test_dead_peer_degrades_to_a_miss(self, tmp_path):
        local = diskcache.DiskCache(tmp_path / "local",
                                    remote="http://127.0.0.1:9",
                                    remote_timeout=0.2)
        assert local.get("ab" * 32) is None
        assert local.remote_errors == 1
        assert local.misses == 1

    def test_local_only_get_skips_the_peer(self, tmp_path):
        """``get(remote=False)`` must never touch the network — even a
        dead peer with a long timeout costs nothing."""
        local = diskcache.DiskCache(tmp_path / "local",
                                    remote="http://127.0.0.1:9",
                                    remote_timeout=30.0)
        start = time.monotonic()
        assert local.get("ab" * 32, remote=False) is None
        assert time.monotonic() - start < 5.0
        assert local.remote_errors == 0
        assert local.misses == 1

    def test_remote_probe_fetches_and_persists(self, tmp_path):
        peer_cache = diskcache.DiskCache(tmp_path / "peer")
        handle, client = start_service(tmp_path, cache=peer_cache)
        try:
            key = client.run(SPEC).key
            local = diskcache.DiskCache(tmp_path / "local",
                                        remote=handle.url)
            record = local.remote_probe(key)
            assert record is not None and record.workload == "nn"
            assert local.remote_hits == 1
            # read-through persisted it: local-only get now hits
            assert local.get(key, remote=False) is not None
        finally:
            handle.close()

    def test_submit_path_never_probes_the_peer(self, tmp_path):
        """The event-loop thread must not block on HTTP: submit()
        consults only the local tier (the peer is retried off-loop by
        the scheduled job)."""
        import asyncio

        async def main():
            cache = diskcache.DiskCache(tmp_path / "local",
                                        remote="http://127.0.0.1:9",
                                        remote_timeout=30.0)
            sched = JobScheduler(workers=1, cache=cache)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            start = time.monotonic()
            job, outcome = sched.submit(SPEC, tenant="t")
            assert time.monotonic() - start < 5.0
            assert outcome == "scheduled"
            assert cache.remote_errors == 0

        asyncio.run(main())

    def test_scheduled_job_reads_through_peer_before_executing(
            self, tmp_path):
        """End to end: a service whose cache names a warm peer serves
        the peer's record without executing anything itself."""
        peer_cache = diskcache.DiskCache(tmp_path / "peer")
        peer, peer_client = start_service(tmp_path, cache=peer_cache)
        try:
            assert peer_client.run(SPEC).status == "ok"
            local_cache = diskcache.DiskCache(tmp_path / "local",
                                              remote=peer.url)
            mirror, client = start_service(tmp_path, cache=local_cache)
            try:
                out = client.run(SPEC)
                # a local miss at submit time, satisfied off-loop by
                # the peer: no execution on the mirror
                assert out.outcome == "scheduled"
                assert out.status == "ok"
                assert mirror.service.scheduler.executions == 0
                assert local_cache.remote_hits == 1
            finally:
                mirror.close()
        finally:
            peer.close()


class TestAdmissionOverHTTP:
    def test_rate_limited_post_is_429_with_retry_after(self, tmp_path):
        handle, client = start_service(tmp_path, rate=0.001, burst=1)
        try:
            assert client.run(SPEC).status == "ok"
            with pytest.raises(ServiceError) as err:
                client.run(dict(SPEC, scale=0.3), tenant="anon")
            assert err.value.status == 429
            assert err.value.retry_after is not None
            assert err.value.retry_after > 0
            # another tenant has its own bucket
            out = client.run(dict(SPEC, scale=0.2), tenant="other")
            assert out.status == "ok"
        finally:
            handle.close()


class TestWorkerLoss:
    def test_sigkilled_worker_degrades_not_500(self, tmp_path):
        """SIGKILL a pool worker mid-request: the scheduler rebuilds
        the pool, resubmits, and the stream still ends in a result —
        the ISSUE 10 acceptance scenario."""
        handle, client = start_service(
            tmp_path, inline=False, workers=1, retries=2,
            stream_interval=0.05)
        spec = {"machine": "ooo", "workload": "nn", "scale": 0.25}
        result = {}
        try:
            def post():
                result["out"] = client.run(spec)

            poster = threading.Thread(target=post)
            poster.start()
            scheduler = handle.service.scheduler
            deadline = time.monotonic() + 30
            killed = False
            while time.monotonic() < deadline and not killed:
                procs = list((getattr(scheduler.executor.pool,
                                      "_processes", None) or {}).values())
                if procs:
                    os.kill(procs[0].pid, signal.SIGKILL)
                    killed = True
                time.sleep(0.02)
            poster.join(180)
            assert killed, "no pool worker appeared to kill"
            out = result.get("out")
            assert out is not None, "request never completed"
            # no 500, no exception: a clean streamed result
            assert out.result is not None
            assert out.status == "ok"
            assert scheduler.executor.generation >= 1
            events = telemetry.read_events(handle.service.bus.path)
            assert any(e["ev"] == "requeue" for e in events)
        finally:
            handle.close()

    def test_concurrent_clients_survive_repeated_worker_kills(
            self, tmp_path):
        """Several clients in flight while pool workers are SIGKILLed
        again and again: every response still streams a result."""
        handle, client = start_service(
            tmp_path, inline=False, workers=2, retries=2,
            stream_interval=0.05)
        specs = [{"machine": machine, "workload": workload,
                  "scale": 0.25, **({"config": "F4C2"}
                                    if machine == "diag" else {})}
                 for machine in ("diag", "ooo")
                 for workload in ("nn", "hotspot")]
        outs = [None] * len(specs)
        errors = []
        kills = []
        try:
            def post(index):
                try:
                    outs[index] = ServiceClient(handle.url).run(
                        specs[index], tenant=f"c{index}")
                except Exception as exc:  # a 5xx or a dropped stream
                    errors.append(exc)

            posters = [threading.Thread(target=post, args=(i,))
                       for i in range(len(specs))]
            for poster in posters:
                poster.start()
            scheduler = handle.service.scheduler
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline and len(kills) < 3
                   and any(p.is_alive() for p in posters)):
                procs = [p for p in (getattr(scheduler.executor.pool,
                                             "_processes", None)
                                     or {}).values() if p.is_alive()]
                if procs:
                    try:
                        os.kill(procs[0].pid, signal.SIGKILL)
                        kills.append(procs[0].pid)
                    except OSError:
                        pass
                # a small cell runs in tens of milliseconds: a longer
                # poll can miss every request's whole life in the pool
                time.sleep(0.01)
            for poster in posters:
                poster.join(180)
        finally:
            handle.close()
        assert kills, "no pool worker appeared to kill"
        assert errors == []
        assert all(out is not None and out.result is not None
                   for out in outs)
