#!/usr/bin/env python
"""CI parallel/cache smoke: measure, don't assert, the speedups.

Runs one smoke sweep (a handful of workloads on both engines) four
ways and writes ``BENCH_parallel.json``:

1. serial, caches cold           — the baseline wall time
2. pooled (``--jobs N``), cold   — parallel_speedup = (1) / (2)
3. serial into a cold disk cache — cache-write overhead included
4. serial against the warm cache — cache_speedup = (3) / (4)

Phases 1 and 2 run as :data:`PAIRS` back-to-back pairs, and
``parallel_speedup`` is the median of the pairs' ratios: one pair on
a shared 2-core host read anywhere from 1.15x to 2.03x, so a single
ratio cannot carry a 1.2x gate. Divergence between (1) and (2) of the
first pair — any cell whose deterministic stats view
(:func:`repro.obs.deterministic_view`) or merged aggregate differs —
is always a failure. The speedup floors are *opt-in* via
``--min-speedup`` / ``--min-cache-speedup`` so CI can enforce them on
multi-core runners while a 1-core laptop still gets the equivalence
check (a process pool cannot beat serial on one core).

Usage: ``python tools/bench_parallel.py [--jobs 2] [-o out.json]``
(``src/`` is put on ``sys.path`` by ``benchkit``).
"""

import argparse
import os
import sys
import tempfile
import time

from benchkit import exit_code, write_json  # puts src/ on sys.path

from repro.harness import (
    RunSpec,
    aggregate_stats,
    clear_cache,
    run_specs,
)
from repro.harness import diskcache
from repro.obs import deterministic_view

DIAG_WORKLOADS = ("nn", "hotspot", "srad", "bfs", "kmeans", "lbm")
OOO_WORKLOADS = ("nn", "hotspot", "srad", "bfs")
CONFIG = "F4C16"

#: serial/pooled pairs whose median ratio is the parallel speedup
PAIRS = 3


def smoke_specs(scale):
    return ([RunSpec.diag(name, config=CONFIG, scale=scale)
             for name in DIAG_WORKLOADS]
            + [RunSpec.ooo(name, scale=scale)
               for name in OOO_WORKLOADS])


def timed(specs, jobs):
    clear_cache()
    start = time.perf_counter()
    records = run_specs(specs, jobs=jobs)
    return time.perf_counter() - start, records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_parallel.json")
    parser.add_argument("--jobs", type=int,
                        default=int(os.environ.get("REPRO_JOBS", "2")))
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--cache-dir", default=None,
                        help="disk-cache directory for phases 3-4 "
                             "(default: a fresh temp dir)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail if parallel speedup is below this "
                             "(CI gate; default 0 = report only)")
    parser.add_argument("--min-cache-speedup", type=float, default=0.0,
                        help="fail if warm-cache speedup is below this "
                             "(CI gate; default 0 = report only)")
    args = parser.parse_args(argv)

    specs = smoke_specs(args.scale)
    failures = []

    # 1+2: serial vs pooled, both cold, no disk cache
    diskcache.configure(None)
    pairs = []
    for _ in range(PAIRS):
        serial_seconds, records = timed(specs, jobs=1)
        parallel_seconds, pooled = timed(specs, jobs=args.jobs)
        if not pairs:
            serial_records, parallel_records = records, pooled
        pairs.append((serial_seconds, parallel_seconds))
    # the pair holding the median ratio reports its seconds
    pairs.sort(key=lambda pair: pair[1] / pair[0])
    serial_seconds, parallel_seconds = pairs[len(pairs) // 2]
    for spec, ser, par in zip(specs, serial_records, parallel_records):
        cell = f"{spec.workload}.{spec.machine}"
        if ser.failed or not ser.verified:
            failures.append(f"{cell}: serial status={ser.status} "
                            f"verified={ser.verified}")
        if deterministic_view(ser.stats) != deterministic_view(par.stats) \
                or ser.status != par.status or ser.ipc != par.ipc:
            failures.append(f"{cell}: serial and parallel runs diverge")
    if aggregate_stats(serial_records, deterministic=True) \
            != aggregate_stats(parallel_records, deterministic=True):
        failures.append("merged stats documents diverge")
    equivalent = not any("diverge" in f for f in failures)

    # 3+4: disk cache cold write-through, then warm read-back
    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-bench-")
    cache = diskcache.configure(cache_dir)
    cache.clear()
    cold_seconds, __ = timed(specs, jobs=1)
    warm_seconds, warm_records = timed(specs, jobs=1)
    diskcache.reset()
    for spec, ser, warm in zip(specs, serial_records, warm_records):
        if deterministic_view(ser.stats) != deterministic_view(warm.stats):
            failures.append(f"{spec.workload}.{spec.machine}: "
                            "cached record diverges from fresh run")

    def speedup(base, other):
        return round(base / other, 3) if other > 0 else 0.0

    doc = {
        "cells": len(specs),
        "scale": args.scale,
        "jobs": args.jobs,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "parallel_speedup": speedup(serial_seconds, parallel_seconds),
        "parallel_speedups": sorted(speedup(*pair) for pair in pairs),
        "cache_cold_seconds": round(cold_seconds, 4),
        "cache_warm_seconds": round(warm_seconds, 4),
        "cache_speedup": speedup(cold_seconds, warm_seconds),
        "equivalent": equivalent,
        "failures": failures,
    }
    if args.min_speedup and doc["parallel_speedup"] < args.min_speedup:
        failures.append(f"parallel speedup {doc['parallel_speedup']}x "
                        f"< required {args.min_speedup}x")
    if args.min_cache_speedup \
            and doc["cache_speedup"] < args.min_cache_speedup:
        failures.append(f"warm-cache speedup {doc['cache_speedup']}x "
                        f"< required {args.min_cache_speedup}x")
    doc["failures"] = failures

    write_json(args.output, doc)
    print(f"{len(specs)} cells at scale {args.scale}: "
          f"serial {serial_seconds:.2f}s, "
          f"jobs={args.jobs} {parallel_seconds:.2f}s "
          f"({doc['parallel_speedup']}x); "
          f"disk cache cold {cold_seconds:.2f}s, "
          f"warm {warm_seconds:.2f}s ({doc['cache_speedup']}x)")
    return exit_code(failures)


if __name__ == "__main__":
    sys.exit(main())
