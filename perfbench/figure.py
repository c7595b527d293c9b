"""``figure``: the Fig 9a/10a single-thread cells, serially and cold.

Why: almost all host time is in the DiAG ring (``core``) and the OoO
engine (``baseline``); the workload never touches ``iss``, the pool,
``diskcache`` or ``service``. Engine-speed changes show here, and every
other change should read "no change".

One pass is the whole cell set: every kernel below on DiAG F4C32 and on
the OoO baseline at one scale, each through ``run_specs(jobs=1)`` with
the run memo cleared first (the disk cache is off), so every cell builds
and simulates from scratch. A pass is timed cell by cell, with a
calibration sample between cells. The seed shuffles the cell order of
every pass; the cell set is fixed, so a pass costs the same whatever the
seed.
"""

import math
import random

from common import (Phase, engine_record, measure, record_phases,
                    run_passes)

#: (kernel, suite): two of each CATEGORY (memory, control, compute,
#: mixed), half Rodinia, half SPEC
KERNELS = (("kmeans", "rodinia"), ("nn", "rodinia"),
           ("btree", "rodinia"), ("pathfinder", "rodinia"),
           ("mcf", "spec"), ("deepsjeng", "spec"), ("xz", "spec"),
           ("povray", "spec"))

SCALE = 0.25

#: paper Fig 9a / 10a F4C32 average speed-ups over the OoO baseline
PAPER_SPEEDUP = {"rodinia": 1.12, "spec": 0.97}


def setup(seed, tmp):
    """Workload assembly: build every kernel's program once and make the
    cell list."""
    from repro.harness import RunSpec
    from repro.workloads import get_workload

    specs, categories = [], {}
    for name, _suite in KERNELS:
        cls = get_workload(name)
        cls().build(scale=SCALE)
        categories[name] = cls.CATEGORY
        specs.append(RunSpec.diag(name, config="F4C32", scale=SCALE))
        specs.append(RunSpec.ooo(name, scale=SCALE))
    return {"specs": specs, "categories": categories,
            "rng": random.Random(seed)}


def run(state, cal, seconds, tracer):
    from repro.harness import clear_cache, run_specs

    phase = Phase()
    specs = state["specs"]
    first = {}
    detail = phase.detail
    detail.update(cell_ms=[], records=[], exec_s=0.0)

    def cell(spec, root):
        if root is None:
            return run_specs([spec], jobs=1)[0]
        record, span = tracer.call(
            "harness.cell", root, lambda: run_specs([spec], jobs=1)[0])
        tracer.derive(span, record_phases(record.stats, record.machine))
        return record

    def one_pass(index):
        clear_cache()
        total = raw_total = 0.0
        instructions = 0
        for spec in state["rng"].sample(specs, len(specs)):
            record, raw, factor = measure(
                cal, tracer, lambda root: cell(spec, root))
            total += raw * factor
            raw_total += raw
            detail["cell_ms"].append(raw * factor * 1000.0)
            detail["records"].append(engine_record(
                record.machine, record.cycles, record.instructions,
                record.stats, factor))
            detail["exec_s"] += factor * record.stats.get(
                "host.phase.total.seconds", 0.0)
            phase.attempted += 1
            instructions += record.instructions
            if record.status != "ok" or not record.verified:
                phase.failed += 1
                phase.fail(f"{spec.machine}/{spec.workload}: status="
                           f"{record.status} verified={record.verified}"
                           f" {record.error or ''}")
            key = (spec.machine, spec.workload)
            sim = (record.cycles, record.instructions)
            if index == 0:
                first[key] = sim
            elif first.get(key) != sim:
                phase.fail(f"{key}: simulated (cycles, instructions) "
                           f"{sim} differs from the first pass "
                           f"{first.get(key)}")
        phase.add_pass(total, raw_total, instructions)

    run_passes(seconds, one_pass)
    phase.sim = {"cycles": sum(c for c, _ in first.values()),
                 "instructions": sum(i for _, i in first.values())}
    detail["capacity_s"] = sum(phase.passes)
    detail["paper_err"] = paper_err(first)
    return phase


def paper_err(sims):
    """Mean over the two suites of |geomean(OoO cycles / DiAG cycles) -
    paper average| / paper average."""
    errs = []
    for suite, paper in PAPER_SPEEDUP.items():
        logs = [math.log(sims[("ooo", name)][0] / sims[("diag", name)][0])
                for name, s in KERNELS if s == suite]
        errs.append(abs(math.exp(sum(logs) / len(logs)) - paper) / paper)
    return sum(errs) / len(errs)


def properties(state, phase):
    counts = {}
    for name in state["categories"].values():
        counts[name] = counts.get(name, 0) + 1
    total = sum(counts.values())
    return {f"category.{k}": v / total for k, v in sorted(counts.items())}


def layers(out, phase, passes):
    pass


def teardown(state):
    pass
