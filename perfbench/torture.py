"""``torture``: seeded ``run_torture`` campaigns at ``jobs=nproc``.

Why: each cell is a ~10 ms lockstep run, so per-cell pool dispatch,
pickling and result handling dominate. It is the only workload on the
``harness.parallel`` batch-pool path and on ``verify`` lockstep, and it
runs the batched-ISS prescreen. A change to the execution ladder shows
here.

One pass is CHUNKS campaigns of PROGRAMS seeded programs each; every
program runs on both engines x fast-forward on/off x SIMT on/off (8
lockstep cells), after the batched-ISS prescreen of the campaign's
programs. Campaign ``i`` of a run uses base seed ``seed * 1000 + i``.
Calibration samples are taken between campaigns, while no pool exists.

Both the untraced and the traced phase call ``run_torture``; the traced
one turns on the program's telemetry stream and builds its spans from
the events (see :func:`campaign_spans`).
"""

import os
import time

from common import Phase, measure, nproc, run_passes

PROGRAMS = 5
CHUNKS = 4


def setup(seed, tmp):
    """Workload assembly: the campaign base seeds (programs are
    generated inside each campaign, as a user's campaign does)."""
    import repro.verify.campaign  # noqa: F401  (import cost is set-up)

    return {"seeds": [seed * 1000 + i for i in range(1000)],
            "jobs": nproc(), "tmp": tmp}


def run(state, cal, seconds, tracer):
    from repro.obs import telemetry
    from repro.verify.campaign import run_torture

    phase = Phase()
    jobs = state["jobs"]
    detail = phase.detail
    # exec_s / capacity_s: raw seconds cells ran in workers, and
    # workers x raw seconds of run_specs (traced runs only)
    detail.update(cell_ms=[], cells=0, divergences=0, exec_s=0.0,
                  capacity_s=0.0, prescreen_instructions=0,
                  prescreen_s=0.0)
    roots = []

    def campaign(cseed, root):
        roots.append(root)
        report = run_torture(cseed, PROGRAMS, jobs=jobs)
        return report.outcomes, report.prescreen

    def one_pass(index):
        total = raw_total = 0.0
        retired = cycles = cells = 0
        for chunk in range(CHUNKS):
            cseed = state["seeds"][index * CHUNKS + chunk]
            if tracer is not None:
                # the program's own telemetry stream; pool workers
                # join it through the environment
                stream = telemetry.configure(os.path.join(
                    state["tmp"], f"telemetry-{cseed}.jsonl")).path
            try:
                (outcomes, pre), raw, factor = measure(
                    cal, tracer, lambda root: campaign(cseed, root))
            finally:
                if tracer is not None:
                    telemetry.reset()
            total += raw * factor
            raw_total += raw
            if tracer is not None:
                cell_raw = campaign_spans(
                    tracer, roots[-1], telemetry.read_events(stream),
                    pre, jobs, detail)
                detail["exec_s"] += sum(cell_raw)
                detail["cell_ms"].extend(x * factor * 1e3
                                         for x in cell_raw)
            detail["prescreen_instructions"] += pre.instructions
            detail["prescreen_s"] += pre.seconds * factor
            if pre.anomalies:
                phase.fail(f"campaign {cseed}: prescreen anomalies "
                           f"{pre.anomalies[:3]}")
            for outcome in outcomes:
                phase.attempted += 1
                cells += 1
                retired += outcome.retired
                cycles += outcome.cycles
                if outcome.status == "divergence":
                    detail["divergences"] += 1
                if not outcome.ok:
                    phase.failed += 1
                    phase.fail(f"{outcome.spec.workload}: "
                               f"{outcome.status} {outcome.detail[:200]}")
        detail["cells"] += cells
        phase.add_pass(total, raw_total, retired)
        if index == 0:
            phase.sim = {"retired": retired, "cycles": cycles,
                         "cells": cells}

    run_passes(seconds, one_pass)
    return phase


def campaign_spans(tracer, root, events, pre, jobs, detail):
    """Spans of one campaign from its telemetry stream: the prescreen
    (it ends at the ``prescreen`` event and lasted ``pre.seconds``),
    ``run_specs`` (``campaign_begin`` to ``campaign_end``) and one
    ``verify.cell`` per ``started`` event. A worker emits ``started``
    and nothing at the end of a cell, so a cell ends at the next
    ``started`` of the same worker pid, or at its ``finished`` event
    if that comes first; the time a worker spends returning one result
    and taking the next task is counted in the cell. Returns the raw
    seconds of every cell."""
    # telemetry stamps wall-clock time; spans use perf_counter
    offset = time.time() - time.perf_counter()
    first, started, ended = {}, [], {}
    for ev in events:
        kind = ev["ev"]
        when = ev["ts"] - offset
        if kind in ("prescreen", "campaign_begin", "campaign_end"):
            first.setdefault(kind, when)
        elif kind == "started":
            started.append((ev["pid"], when, ev.get("run")))
        elif kind in ("finished", "failed"):
            ended[ev.get("run")] = when
    if "prescreen" in first:
        tracer.add("iss.prescreen", first["prescreen"] - pre.seconds,
                   first["prescreen"], root)
    span = tracer.add("harness.run_specs", first["campaign_begin"],
                      first["campaign_end"], root)
    detail["capacity_s"] += jobs * (span.end - span.start)
    started.sort()
    cell_raw = []
    for i, (pid, start, run_id) in enumerate(started):
        end = ended.get(run_id, span.end)
        if i + 1 < len(started) and started[i + 1][0] == pid:
            end = min(end, started[i + 1][1])
        cell = tracer.add("verify.cell", start, end, span, req=run_id)
        cell_raw.append(cell.end - cell.start)
    return cell_raw


def properties(state, phase):
    return {"jobs": state["jobs"], "campaigns_per_pass": CHUNKS,
            "programs_per_campaign": PROGRAMS,
            "cells_per_pass": CHUNKS * PROGRAMS * 8}


def layers(out, phase, passes):
    detail = phase.detail
    out["iss.prescreen_kips"] = (detail["prescreen_instructions"]
                                 / detail["prescreen_s"] / 1e3)
    out["verify.cells"] = detail["cells"] / passes
    out["verify.divergences"] = detail["divergences"] / passes


def teardown(state):
    pass
