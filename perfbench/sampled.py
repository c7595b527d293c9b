"""``sampled``: ``run_sampled`` on DiAG over two long programs, serially.

Why: it uses the same ring engine as ``figure``, but only in short
measurement windows; most of each run is the ISS fast-forwarding
between windows (``host.phase.ff.seconds`` is the larger part). An
``iss`` superblock gain shows here and not in ``figure``; a ring gain
shows here only in proportion to the window share.

One pass runs both programs with the run memo cleared first. Each
program's schedule puts a fixed number of windows in it for every phase
offset the seed can pick, so a pass costs the same whatever the seed;
the seed picks the phase offset (where the windows land) and the
program order.
"""

import random

from common import Phase, measure, run_passes

#: (kernel, scale, period, windows): a run with exactly ``windows``
#: windows at any phase in [0, MAX_PHASE] (hotspot at scale 5 retires
#: 227,735 instructions, pathfinder at scale 5 retires 316,168), where
#: fast-forward takes more host time than the windows
PROGRAMS = (("hotspot", 5.0, 100_000, 3), ("pathfinder", 5.0, 250_000, 2))
MAX_PHASE = 20_000


def setup(seed, tmp):
    """Workload assembly: build each program once and draw the
    schedule."""
    from repro.workloads import get_workload

    rng = random.Random(seed)
    for name, scale, _period, _windows in PROGRAMS:
        get_workload(name)().build(scale=scale)
    return {"rng": rng, "phase": rng.randrange(0, MAX_PHASE + 1)}


def run(state, cal, seconds, tracer):
    from repro.harness import clear_cache
    from repro.sampling import SamplingParams, run_sampled

    phase = Phase()
    first = {}
    detail = phase.detail
    for key in ("ff_s", "window_s", "iss_instructions", "windows",
                "detail_cycles", "exec_s"):
        detail[key] = 0
    detail["ci95_rel"] = []
    detail["cell_ms"] = []

    def sampled(name, scale, period, _windows):
        return run_sampled(
            name, machine="diag", config="F4C32", scale=scale,
            params=SamplingParams(period=period, phase=state["phase"]))

    def program(args, root):
        if root is None:
            return sampled(*args)
        record, span = tracer.call("sampling.run", root,
                                   lambda: sampled(*args))
        stats = record.stats
        tracer.derive(span, [
            ("workloads.build", stats.get("host.phase.build.seconds", 0)),
            ("iss.ff", stats.get("host.phase.ff.seconds", 0)),
            ("sampling.window", stats.get("host.phase.window.seconds", 0)),
            ("workloads.verify",
             stats.get("host.phase.verify.seconds", 0))])
        return record

    def one_pass(index):
        clear_cache()
        total = raw_total = 0.0
        instructions = 0
        for args in state["rng"].sample(PROGRAMS, len(PROGRAMS)):
            record, raw, factor = measure(
                cal, tracer, lambda root: program(args, root))
            total += raw * factor
            raw_total += raw
            stats = record.stats
            phase.attempted += 1
            instructions += record.instructions
            detail["cell_ms"].append(raw * factor * 1000.0)
            detail["ff_s"] += stats.get("host.phase.ff.seconds", 0) * factor
            detail["window_s"] += \
                stats.get("host.phase.window.seconds", 0) * factor
            detail["iss_instructions"] += record.instructions
            detail["exec_s"] += \
                stats.get("host.phase.total.seconds", 0) * factor
            detail["windows"] += stats.get("sampling.windows", 0)
            detail["detail_cycles"] += stats.get("sampling.detail_cycles", 0)
            detail["ci95_rel"].append(stats.get("sampling.ipc_ci95_rel", 0))
            windows = stats.get("sampling.windows", 0)
            if record.status != "ok" or not record.verified \
                    or windows != args[3]:
                phase.failed += 1
                phase.fail(f"sampled {args[0]}: status={record.status} "
                           f"verified={record.verified} windows="
                           f"{windows} {record.error or ''}")
            sim = (record.instructions, record.cycles,
                   stats.get("sampling.detail_cycles"))
            if index == 0:
                first[args[0]] = sim
            elif first.get(args[0]) != sim:
                phase.fail(f"sampled {args[0]}: (instructions, estimated "
                           f"cycles, window cycles) {sim} differs from "
                           f"the first pass {first.get(args[0])}")
        phase.add_pass(total, raw_total, instructions)

    run_passes(seconds, one_pass)
    detail["capacity_s"] = sum(phase.passes)
    phase.sim = {"instructions": sum(s[0] for s in first.values()),
                 "cycles": sum(s[1] for s in first.values()),
                 "window_cycles": sum(s[2] for s in first.values())}
    return phase


def properties(state, phase):
    return {"schedule.phase": state["phase"],
            "schedule.windows": sum(p[3] for p in PROGRAMS)}


def layers(out, phase, passes):
    detail = phase.detail
    out["iss.kips"] = detail["iss_instructions"] / detail["ff_s"] / 1e3
    out["sampling.windows"] = detail["windows"] / passes
    out["sampling.ci95_rel"] = sum(detail["ci95_rel"]) \
        / len(detail["ci95_rel"])
    out["core.sim_cycles"] = detail["detail_cycles"] / passes


def teardown(state):
    pass
