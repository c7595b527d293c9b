#!/usr/bin/env python
"""CI verification bench: lockstep overhead and torture throughput.

Times one workload on both engines plain vs under the lockstep oracle
(the ISS stepping once per commit plus full register/memory-write
comparison) and a fixed-seed torture batch, and writes
``BENCH_verify.json``.

Every cell is also a correctness check: lockstep runs must halt
without divergence, retire the same instruction count as the plain
run, and the torture batch must come back all-ok. The wall-clock
overhead ratio is informational by default; ``--max-overhead`` turns
it into a gate (see docs/VERIFICATION.md).

Usage: ``python tools/bench_verify.py [-o out.json]``
(``src/`` is put on ``sys.path`` by ``benchkit``).
"""

import argparse
import sys
import time

from benchkit import exit_code, write_json  # puts src/ on sys.path

from repro.baseline import OoOConfig, OoOCore
from repro.core import F4C2, DiAGProcessor
from repro.verify import run_lockstep, run_torture
from repro.workloads import get_workload

WORKLOAD = "nn"
TORTURE_SEED = 0
TORTURE_COUNT = 10
TORTURE_OPS = 30


def _instance(scale):
    return get_workload(WORKLOAD)().build(scale=scale, threads=1,
                                          simt=False)


def _plain(machine, scale):
    inst = _instance(scale)
    if machine == "diag":
        proc = DiAGProcessor(F4C2, inst.program)
        inst.setup(proc.memory)
        start = time.perf_counter()
        result = proc.run()
    else:
        core = OoOCore(OoOConfig(), inst.program)
        inst.setup(core.hierarchy.memory)
        start = time.perf_counter()
        result = core.run()
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "retired": result.instructions,
            "halted": result.halted}


def _lockstep(machine, scale):
    inst = _instance(scale)
    start = time.perf_counter()
    result = run_lockstep(inst.program, machine=machine,
                          setup=inst.setup)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "retired": result.retired,
            "halted": result.halted}


def best_of(fn, machine, scale, reps):
    best = None
    for _ in range(reps):
        out = fn(machine, scale)
        if best is None or out["seconds"] < best["seconds"]:
            best = out
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_verify.json")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--max-overhead", type=float, default=0.0,
                        help="fail if lockstep wall time exceeds this "
                             "multiple of the plain run on either "
                             "machine (default 0 = report only)")
    args = parser.parse_args(argv)

    failures = []
    lockstep = {}
    for machine in ("diag", "ooo"):
        plain = best_of(_plain, machine, args.scale, args.reps)
        locked = best_of(_lockstep, machine, args.scale, args.reps)
        if not plain["halted"] or not locked["halted"]:
            failures.append(f"{machine}: run did not halt")
        if plain["retired"] != locked["retired"]:
            failures.append(
                f"{machine}: lockstep retired {locked['retired']} "
                f"vs plain {plain['retired']}")
        overhead = (locked["seconds"] / plain["seconds"]
                    if plain["seconds"] > 0 else 0.0)
        lockstep[machine] = {
            "plain_seconds": round(plain["seconds"], 4),
            "lockstep_seconds": round(locked["seconds"], 4),
            "overhead": round(overhead, 3),
            "retired": plain["retired"],
        }
        print(f"{WORKLOAD}.{machine}: plain "
              f"{plain['seconds']:.2f}s, lockstep "
              f"{locked['seconds']:.2f}s ({overhead:.2f}x)")
        if args.max_overhead and overhead > args.max_overhead:
            failures.append(f"{machine}: lockstep overhead "
                            f"{overhead:.2f}x > {args.max_overhead}x")

    start = time.perf_counter()
    report = run_torture(TORTURE_SEED, TORTURE_COUNT, ops=TORTURE_OPS,
                         jobs=args.jobs)
    torture_seconds = time.perf_counter() - start
    cells = len(report.outcomes)
    if not report.ok:
        for outcome in report.failures[:5]:
            failures.append(f"torture {outcome.spec.workload}: "
                            f"{outcome.status}")
    print(f"torture: {report.summary()} in {torture_seconds:.2f}s "
          f"({cells / torture_seconds:.1f} cells/s)")

    doc = {
        "workload": WORKLOAD,
        "scale": args.scale,
        "reps": args.reps,
        "lockstep": lockstep,
        "torture": {
            "seed": TORTURE_SEED,
            "count": TORTURE_COUNT,
            "ops": TORTURE_OPS,
            "cells": cells,
            "seconds": round(torture_seconds, 4),
            "cells_per_second": round(cells / torture_seconds, 2)
            if torture_seconds > 0 else 0.0,
            "counts": report.counts(),
        },
        "failures": failures,
    }
    write_json(args.output, doc)
    return exit_code(failures)


if __name__ == "__main__":
    sys.exit(main())
