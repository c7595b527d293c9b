#!/usr/bin/env python
"""CI service smoke + benchmark: throughput, dedup, chaos.

Hosts one in-process ``repro.service`` instance (process-pool workers)
and drives it with ``--clients`` concurrent HTTP clients, then writes
``BENCH_service.json``:

1. **Throughput** — every client posts a distinct slice of a smoke
   workload matrix; ``throughput_rps`` is completed runs per second
   and every response must end in a ``result`` (no 4xx/5xx).
2. **Dedup storm** — all clients concurrently post the *same* spec;
   the service must execute it exactly once (asserted via the
   scheduler execution counter and the cache write counter).
3. **Warm replay** — the full matrix again; everything must come back
   ``cached`` and ``cache_hit_ratio`` is read off ``/metrics``.
4. **Chaos** (``--chaos``) — re-posts part of the matrix against a
   fresh cache while SIGKILLing a random pool worker mid-flight; every
   response must still stream a ``result`` (the degradation ladder,
   docs/SERVICE.md §6 — never a 500).

Usage: ``python tools/bench_service.py [--clients 8] [--chaos]``
(``src/`` is put on ``sys.path`` automatically).
"""

import argparse
import json
import os
import random
import signal
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.harness import diskcache  # noqa: E402
from repro.obs import telemetry  # noqa: E402
from repro.service import ServiceClient, serve_in_thread  # noqa: E402

DIAG_WORKLOADS = ("nn", "hotspot", "srad", "bfs")
OOO_WORKLOADS = ("nn", "hotspot", "srad", "bfs")
CONFIG = "F4C2"


def smoke_matrix(scale):
    return ([{"machine": "diag", "workload": name, "config": CONFIG,
              "scale": scale} for name in DIAG_WORKLOADS]
            + [{"machine": "ooo", "workload": name, "scale": scale}
               for name in OOO_WORKLOADS])


def fan_out(url, specs, clients, tenant_prefix="bench"):
    """Drive ``specs`` through ``clients`` concurrent connections;
    returns (elapsed_seconds, outcomes, errors)."""
    outcomes = [None] * len(specs)
    errors = []
    lock = threading.Lock()
    cursor = [0]

    def worker(wid):
        client = ServiceClient(url)
        while True:
            with lock:
                index = cursor[0]
                if index >= len(specs):
                    return
                cursor[0] += 1
            try:
                outcomes[index] = client.run(
                    specs[index], tenant=f"{tenant_prefix}-{wid}")
            except Exception as exc:
                with lock:
                    errors.append(f"spec {index}: "
                                  f"{type(exc).__name__}: {exc}")

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(wid,))
               for wid in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, outcomes, errors


def chaos_monkey(scheduler, stop, kills):
    """SIGKILL a random live pool worker every ~0.15s until told to
    stop (the service-smoke job's fault injector)."""
    rng = random.Random(1234)
    while not stop.wait(0.15):
        procs = [p for p in (getattr(scheduler.executor.pool,
                                     "_processes", None) or {}).values()
                 if p.is_alive()]
        if procs:
            try:
                os.kill(rng.choice(procs).pid, signal.SIGKILL)
                kills.append(time.time())
            except OSError:
                pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_service.json")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent HTTP clients (default 8)")
    parser.add_argument("--workers", type=int,
                        default=int(os.environ.get("REPRO_JOBS", "2")))
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--chaos", action="store_true",
                        help="SIGKILL pool workers mid-flight and "
                             "require every response to still stream "
                             "a result")
    parser.add_argument("--min-throughput", type=float, default=0.0,
                        help="fail below this many runs/s (CI gate; "
                             "default 0 = report only)")
    args = parser.parse_args(argv)

    failures = []
    tmp = tempfile.mkdtemp(prefix="repro-bench-svc-")
    telemetry.reset()
    telemetry.configure(path=os.path.join(tmp, "telemetry.jsonl"))
    cache = diskcache.DiskCache(os.path.join(tmp, "cache"))
    handle = serve_in_thread(workers=args.workers, cache=cache,
                             inline=False, retries=2,
                             stream_interval=0.2)
    client = ServiceClient(handle.url)
    specs = smoke_matrix(args.scale)

    # 1: cold throughput across --clients concurrent connections
    elapsed, outcomes, errors = fan_out(handle.url, specs,
                                        args.clients)
    failures.extend(errors)
    completed = sum(1 for o in outcomes
                    if o is not None and o.result is not None)
    for index, outcome in enumerate(outcomes):
        if outcome is None or outcome.result is None:
            failures.append(f"spec {index} never produced a result")
        elif outcome.status not in ("ok",):
            failures.append(f"spec {index} status={outcome.status}")
    throughput = completed / elapsed if elapsed > 0 else 0.0

    # 2: dedup storm — every client posts the same spec at once
    storm_spec = {"machine": "diag", "workload": "kmeans",
                  "config": CONFIG, "scale": args.scale}
    executions_before = handle.service.scheduler.executions
    writes_before = cache.writes
    __, storm_outcomes, storm_errors = fan_out(
        handle.url, [storm_spec] * args.clients, args.clients,
        tenant_prefix="storm")
    failures.extend(storm_errors)
    storm_executions = handle.service.scheduler.executions \
        - executions_before
    storm_writes = cache.writes - writes_before
    if storm_executions != 1:
        failures.append(f"dedup storm executed {storm_executions} "
                        "times (want exactly 1)")
    if storm_writes != 1:
        failures.append(f"dedup storm wrote the cache {storm_writes} "
                        "times (want exactly 1)")

    # 3: warm replay — everything must be served from the cache
    warm_elapsed, warm_outcomes, warm_errors = fan_out(
        handle.url, specs, args.clients, tenant_prefix="warm")
    failures.extend(warm_errors)
    not_cached = sum(1 for o in warm_outcomes
                     if o is None or o.outcome != "cached")
    if not_cached:
        failures.append(f"{not_cached} warm replays were not "
                        "cache-satisfied")
    metrics = client.metrics()
    hit_ratio = None
    for line in metrics.splitlines():
        if line.startswith("repro_service_cache_hit_ratio "):
            hit_ratio = float(line.split()[-1])
    if hit_ratio is None:
        failures.append("no service.cache.hit_ratio on /metrics")

    # 4 (--chaos): SIGKILL workers mid-flight; responses must degrade,
    # never error
    kills = []
    chaos_ok = None
    if args.chaos:
        chaos_cache = diskcache.DiskCache(os.path.join(tmp, "chaos"))
        handle.service.cache = chaos_cache
        handle.service.scheduler.cache = chaos_cache
        # a scale no worker has simulated yet, so every chaos run is
        # fresh work the monkey can interrupt (warm in-memory caches
        # from phases 1-3 would finish before the first kill)
        chaos_specs = [dict(spec, scale=args.scale * 1.5)
                       for spec in specs[:args.clients]]
        stop = threading.Event()
        monkey = threading.Thread(
            target=chaos_monkey,
            args=(handle.service.scheduler, stop, kills), daemon=True)
        monkey.start()
        __, chaos_outcomes, chaos_errors = fan_out(
            handle.url, chaos_specs, args.clients,
            tenant_prefix="chaos")
        stop.set()
        monkey.join(5)
        failures.extend(chaos_errors)
        chaos_ok = all(o is not None and o.result is not None
                       for o in chaos_outcomes)
        if not chaos_ok:
            failures.append("a response died with the worker "
                            "(expected a degraded result stream)")
        if not kills:
            failures.append("chaos monkey never killed a worker "
                            "(nothing was tested)")

    handle.close()
    telemetry.reset()

    doc = {
        "cells": len(specs),
        "clients": args.clients,
        "workers": args.workers,
        "scale": args.scale,
        "cold_seconds": round(elapsed, 4),
        "throughput_rps": round(throughput, 3),
        "warm_seconds": round(warm_elapsed, 4),
        "cache_hit_ratio": round(hit_ratio, 4)
        if hit_ratio is not None else None,
        "dedup_executions": storm_executions,
        "chaos_kills": len(kills),
        "chaos_ok": chaos_ok,
        "failures": failures,
    }
    if args.min_throughput and throughput < args.min_throughput:
        failures.append(f"throughput {throughput:.3f} runs/s < "
                        f"required {args.min_throughput}")
    doc["failures"] = failures

    with open(args.output, "w") as out:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"{len(specs)} specs x {args.clients} clients: cold "
          f"{elapsed:.2f}s ({throughput:.2f} runs/s), warm "
          f"{warm_elapsed:.2f}s, hit ratio {hit_ratio}, "
          f"dedup executions {storm_executions}, "
          f"chaos kills {len(kills)}")
    print(f"wrote {args.output}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
