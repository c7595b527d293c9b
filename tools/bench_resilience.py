#!/usr/bin/env python
"""CI resilience bench: checkpoint I/O cost and journal overhead.

Measures, and writes ``BENCH_resilience.json``:

* **checkpoint**: save/restore latency and payload size for a DiAG
  processor and an OoO core paused mid-run on a real workload, plus
  the split-vs-uninterrupted equivalence check (the docs/RESILIENCE.md
  §1 contract — divergence is always a failure);
* **journal**: wall-time overhead of write-ahead journaling a smoke
  sweep versus running it bare, and the replay time of a full
  ``resume`` (every cell a journal hit, no simulation).

Everything is report-only except the equivalence checks: this bench
gates correctness, not speed (a cold CI runner's fsync latency is not
a regression).

Usage: ``python tools/bench_resilience.py [-o out.json]``
(``src/`` is put on ``sys.path`` by ``benchkit``).
"""

import argparse
import os
import sys
import tempfile
import time

from benchkit import exit_code, write_json  # puts src/ on sys.path

from repro.baseline import OoOConfig, OoOCore
from repro.core import CONFIG_PRESETS, DiAGProcessor
from repro.harness import RunSpec, clear_cache, run_specs
from repro.obs import (
    collect_diag,
    collect_ooo,
    deterministic_view,
)
from repro.obs.resilience import (
    JOURNAL_HITS,
    reset_resilience,
    resilience_snapshot,
)
from repro.workloads import get_workload

WORKLOAD = "nn"
SCALE = 0.2
SWEEP_WORKLOADS = ("nn", "hotspot", "srad", "bfs")


def build_sim(machine):
    program = get_workload(WORKLOAD)().build(
        scale=SCALE, threads=1, simt=False).program
    if machine == "diag":
        return DiAGProcessor(CONFIG_PRESETS["F4C2"], program)
    return OoOCore(OoOConfig(), program)


def stats_view(machine, sim, result):
    if machine == "diag":
        doc = collect_diag(result, sim.hierarchy)
    else:
        doc = collect_ooo(result, [sim.hierarchy])
    return deterministic_view(doc.as_dict())


def bench_checkpoint(machine, failures):
    full = build_sim(machine)
    full_result = full.run()
    total = full_result.cycles

    sim = build_sim(machine)
    sim.run(max_cycles=total // 2)
    start = time.perf_counter()
    ckpt = sim.save_state()
    save_seconds = time.perf_counter() - start
    start = time.perf_counter()
    restored = type(sim).restore_state(ckpt)
    restore_seconds = time.perf_counter() - start
    result = restored.run()

    if result.cycles != total or stats_view(machine, restored, result) \
            != stats_view(machine, full, full_result):
        failures.append(f"{machine}: split run diverges from "
                        "uninterrupted run")
    return {
        "cycle": ckpt.cycle,
        "total_cycles": total,
        "payload_bytes": len(ckpt.payload),
        "save_ms": round(save_seconds * 1e3, 3),
        "restore_ms": round(restore_seconds * 1e3, 3),
    }


def timed_sweep(specs, journal=None, resume=False):
    clear_cache()
    start = time.perf_counter()
    records = run_specs(specs, jobs=1, journal=journal, resume=resume)
    return time.perf_counter() - start, records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output",
                        default="BENCH_resilience.json")
    args = parser.parse_args(argv)
    failures = []

    ckpt = {machine: bench_checkpoint(machine, failures)
            for machine in ("diag", "ooo")}

    # journal overhead + resume replay on a smoke sweep
    specs = [RunSpec.diag(name, config="F4C2", scale=SCALE)
             for name in SWEEP_WORKLOADS]
    bare_seconds, bare_records = timed_sweep(specs)
    journal_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-bench-"), "sweep.jsonl")
    journaled_seconds, journaled_records = timed_sweep(
        specs, journal=journal_path)
    reset_resilience()
    replay_seconds, replayed_records = timed_sweep(
        specs, journal=journal_path, resume=True)
    hits = resilience_snapshot()[JOURNAL_HITS]

    for spec, bare, journaled, replayed in zip(
            specs, bare_records, journaled_records, replayed_records):
        views = [deterministic_view(r.stats)
                 for r in (bare, journaled, replayed)]
        if any(view != views[0] for view in views[1:]):
            failures.append(f"{spec.workload}: bare / journaled / "
                            "replayed records diverge")
    if hits != len(specs):
        failures.append(f"resume replayed {hits}/{len(specs)} cells "
                        "from the journal")

    doc = {
        "checkpoint": ckpt,
        "journal": {
            "cells": len(specs),
            "bare_seconds": round(bare_seconds, 4),
            "journaled_seconds": round(journaled_seconds, 4),
            "overhead_ratio": round(journaled_seconds / bare_seconds, 3)
            if bare_seconds > 0 else 0.0,
            "resume_replay_seconds": round(replay_seconds, 4),
            "journal_hits": int(hits),
        },
        "failures": failures,
    }
    write_json(args.output, doc)

    for machine, stats in ckpt.items():
        print(f"{machine}: checkpoint at cycle {stats['cycle']} "
              f"{stats['payload_bytes']} bytes, "
              f"save {stats['save_ms']}ms, "
              f"restore {stats['restore_ms']}ms")
    print(f"journal: {len(specs)} cells bare {bare_seconds:.2f}s, "
          f"journaled {journaled_seconds:.2f}s "
          f"({doc['journal']['overhead_ratio']}x), "
          f"resume replay {replay_seconds:.3f}s")
    return exit_code(failures)


if __name__ == "__main__":
    sys.exit(main())
