#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Workloads (see BENCHMARK.json and
each module's docstring): ``figure``, ``sampled``, ``torture`` and
``service``.

``--trace 0`` prints the end-to-end metrics, all measured with tracing
off: ``setup_s`` (median of seven set-ups, each a fresh interpreter from
start to ready: ``import repro``, workload assembly and, for the
service, a started service with a warm pool), ``wall_s`` (median
seconds of one pass of the workload's fixed work), ``sim_kips``,
``ok_ratio`` and ``peak_rss_mb``. ``--trace 1`` first repeats the
untraced phase as a reference, then runs a traced phase and prints the
per-layer metrics; the spans go to ``.perfbench_out/``.

Every host time is in calibrated seconds (see ``calib.py``). Every
output is checked: a failed or unverified run, a torture divergence, a
service response that does not end in a result, a served record that
differs from a local run, or simulated statistics that differ between
passes make ``correct`` false and the exit code 1. The simulated totals
of each workload's first pass are printed, so a speed-only change can be
seen to leave them identical.
"""

import argparse
import importlib
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figure", "sampled", "torture", "service")
SETUPS = 7


def per_layer_names():
    """``[(name, unit)]`` of the per-layer metrics, in output order, as
    BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


#: span name -> per-layer seconds metric (self time)
SPAN_METRIC = {
    "core.run": "core.run_s", "baseline.run": "baseline.run_s",
    "iss.ff": "iss.ff_s", "iss.prescreen": "iss.prescreen_s",
    "sampling.window": "sampling.window_s",
    "sampling.run": "sampling.self_s",
    "workloads.build": "workloads.build_s",
    "workloads.verify": "workloads.verify_s",
    "harness.cell": "harness.self_s",
    "harness.run_specs": "harness.self_s",
    "service.request": "service.self_s",
    "verify.cell": "verify.self_s",
    "unattributed": "trace.unattributed_s",
}


def say(text):
    print(text, flush=True)


def clean_env(tmp):
    """No inherited knob may change what the program does, and temp
    files stay inside the checkout."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["TMPDIR"] = tmp


def workload_module(name):
    return importlib.import_module(name)


def run_phase(name, seed, seconds, cal, tmp, tracer=None):
    from repro.obs.resilience import resilience

    module = workload_module(name)
    state = module.setup(seed, tmp)
    before = resilience().as_dict()
    cal.last = None
    try:
        phase = module.run(state, cal, seconds, tracer)
        phase.detail["properties"] = module.properties(state, phase)
    finally:
        module.teardown(state)
    after = resilience().as_dict()
    for key in ("harness.retries", "harness.quarantined"):
        phase.detail[key] = after.get(key, 0) - before.get(key, 0)
    return phase


def measure_setups(args, cal):
    """Set-up time: a fresh interpreter from exec to "ready", each
    bracketed by calibration samples taken while the parent is idle."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUPS):
        def once():
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    cwd=ROOT, text=True)
            try:
                line = proc.stdout.readline().strip()
                ready = time.perf_counter() - start
                proc.stdout.read()
            finally:
                code = proc.wait(timeout=120)
            if line != "READY" or code != 0:
                raise RuntimeError(f"set-up run failed (exit {code})")
            return ready

        ready, _, factor = cal.bracket(once)
        times.append(ready * factor)
    return times


def end_to_end(phase, setups):
    from common import peak_rss_mb

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (phase.wall_s(), "s"),
        "sim_kips": (phase.sim_kips(), "kinstr/s"),
        "ok_ratio": (1.0 - phase.failed / phase.attempted, "fraction"),
        "peak_rss_mb": (sum(peak_rss_mb()), "MiB"),
    }


def per_layer(module, phase, ref, tracer, cal):
    """Metrics every workload shares; the module adds its own."""
    from common import percentile

    detail = phase.detail
    passes = len(phase.passes)
    selfs, total = tracer.self_times()
    names = per_layer_names()
    out = {metric: 0.0 for metric, _ in names}
    for span, seconds in selfs.items():
        out[SPAN_METRIC[span]] += seconds / passes
    out["trace.wall_s"] = total / passes
    out["trace.raw_wall_s"] = sum(phase.raw) / passes
    out["trace.overhead_share"] = phase.wall_s() / ref.wall_s() - 1.0
    out["calib.spread"] = cal.spread()

    records = detail.get("records", [])   # common.engine_record tuples
    for layer, machine in (("core", "diag"), ("baseline", "ooo")):
        out[f"{layer}.share"] = selfs.get(f"{layer}.run", 0.0) / total
        mine = [r for r in records if r[0] == machine]
        seconds = sum(r[3] for r in mine)
        out[f"{layer}.sim_cycles"] = sum(r[1] for r in mine) / passes
        if seconds > 0:
            out[f"{layer}.kips"] = sum(r[2] for r in mine) / seconds / 1e3
    for name, col in (("memory.l1d_miss_rate", 4),
                      ("memory.l2_miss_rate", 6)):
        hits = sum(r[col] for r in records)
        misses = sum(r[col + 1] for r in records)
        if hits + misses:
            out[name] = misses / (hits + misses)

    out["harness.cell_p50_ms"] = percentile(detail["cell_ms"], 0.5) or 0.0
    for key in ("harness.retries", "harness.quarantined"):
        out[key] = detail[key] / passes
    # 1 - (seconds spent executing runs) / (workers x wall seconds)
    if detail.get("capacity_s"):
        out["harness.pool_overhead_share"] = \
            1.0 - detail["exec_s"] / detail["capacity_s"]
    module.layers(out, phase, passes)
    return {metric: (out[metric], unit) for metric, unit in names}


def report(args, phase, metrics, setups=None):
    from common import peak_rss_mb

    say(f"workload={args.workload} seed={args.seed} passes="
        f"{len(phase.passes)} attempted={phase.attempted} "
        f"failed={phase.failed}")
    say("raw pass seconds: " + " ".join(f"{x:.3f}" for x in phase.raw))
    say("calibrated pass seconds: "
        + " ".join(f"{x:.3f}" for x in phase.passes))
    if setups:
        say("calibrated set-up seconds: "
            + " ".join(f"{x:.3f}" for x in setups))
    say("simulated totals (first pass): "
        + json.dumps(phase.sim, sort_keys=True))
    props = phase.detail.get("properties", {})
    say("workload properties: " + json.dumps(props, sort_keys=True))
    own, child = peak_rss_mb()
    say(f"peak rss (self, largest child): {own:.1f} MiB, {child:.1f} MiB")
    if "paper_err" in phase.detail:
        say(f"paper_err (F4C32 geomean speed-up vs paper averages): "
            f"{phase.detail['paper_err']:.4f}")
    for name, (value, unit) in metrics.items():
        say(f"  {name:30s} {value:14.6g} {unit}")
    for error in phase.errors[:20]:
        say(f"CHECK FAILED: {error}")


def accounting(metrics):
    """Layer self times plus unattributed time against the traced
    wall time (per pass)."""
    parts = {SPAN_METRIC[k]: metrics[SPAN_METRIC[k]][0]
             for k in SPAN_METRIC}
    total = sum(parts.values())
    say("traced wall per pass: " + ", ".join(
        f"{k}={v:.3f}" for k, v in parts.items() if v)
        + f" -> sum {total:.3f} s vs trace.wall_s "
        f"{metrics['trace.wall_s'][0]:.3f} s")


def stop_children():
    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.terminate()
            child.join(10)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    tmp = os.path.join(tmp_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    clean_env(tmp)
    try:
        if args.setup_only:
            module = workload_module(args.workload)
            state = module.setup(args.seed, tmp)
            say("READY")
            module.teardown(state)
            return 0
        return benchmark(args, tmp)
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it


def benchmark(args, tmp):
    from calib import Calibrator
    from spans import Tracer

    cal = Calibrator()
    if args.trace:
        ref = run_phase(args.workload, args.seed, args.seconds, cal, tmp)
        tracer = Tracer()
        phase = run_phase(args.workload, args.seed, args.seconds, cal,
                          tmp, tracer)
        phase.errors = ref.errors + phase.errors
        metrics = per_layer(workload_module(args.workload), phase, ref,
                            tracer, cal)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.json"))
        report(args, phase, metrics)
        accounting(metrics)
    else:
        setups = measure_setups(args, cal)
        phase = run_phase(args.workload, args.seed, args.seconds, cal, tmp)
        metrics = end_to_end(phase, setups)
        report(args, phase, metrics, setups)
    correct = not phase.errors
    print(json.dumps({
        "correct": correct, "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}),
        flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
