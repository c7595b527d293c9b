#!/usr/bin/env python3
"""The benchmark's trend history and the gate over it.

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 \\
        --trace 0 > run.txt
    python3 tools/perf_history.py add run.txt [more.txt ...]
    python3 tools/perf_history.py check

``add`` appends one row per saved ``perfbench/run.py --trace 0`` stdout
to ``benchmarks/perf_history.jsonl``. A row holds the git sha of the
checkout ``add`` runs in (with ``-dirty`` when ``src/`` or
``perfbench/`` differ from it), so run it from the checkout that was
measured; the workload and seed from the run's ``workload=... seed=...``
line; the end-to-end metrics from its final JSON line; and the host's
fingerprint (CPU model, nproc, Python and numpy versions). A run whose
``correct`` is false, or output that is not a ``--trace 0`` result, is
refused, and then no row of that call is written.

``check`` times nothing; it reads the history and ``BENCHMARK.json``.
For each workload and host, the median of the newest sha's rows is
compared with the median of up to ``WINDOW`` rows of earlier shas from
the same host, so one noisy run among a change's rows does not decide
the gate (a sha with one row is that row). It fails when an end-to-end
metric is worse than the earlier median by more than the metric's
``bound``, in the metric's ``better`` direction. Fewer than
``MIN_PRIORS`` earlier rows is a ``skip``, never a failure.
(docs/PERFORMANCE.md §6, docs/OBSERVABILITY.md §6.5.)
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

from bench import REPO, exit_code

HISTORY = os.path.join(REPO, "benchmarks", "perf_history.jsonl")
BENCHMARK = os.path.join(REPO, "BENCHMARK.json")

#: earlier shas' like-host rows the newest sha's rows are compared
#: with, at most
WINDOW = 8

#: earlier shas' like-host rows needed before a workload is checked
MIN_PRIORS = 3


def benchmark_metrics(benchmark=BENCHMARK):
    """``(workloads, {metric: (better, bound)})`` from BENCHMARK.json,
    in its order."""
    with open(benchmark) as handle:
        doc = json.load(handle)
    return ([w["name"] for w in doc["workloads"]],
            {m["name"]: (m["better"], m["bound"])
             for m in doc["end_to_end"]})


def host():
    """The fingerprint rows are grouped by: like-host rows share it."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    nproc = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu": cpu, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy}


def code_sha(cwd=None):
    """HEAD of the checkout at ``cwd``, ``-dirty`` when its measured
    code (``src/``, ``perfbench/``) differs from HEAD."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=cwd, check=True,
                              capture_output=True, text=True).stdout
    try:
        sha = git("rev-parse", "HEAD").strip()
        dirty = git("status", "--porcelain", "--untracked-files=no",
                    "--", "src", "perfbench").strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + "-dirty" if dirty else sha


def parse_run(text, names):
    """``(workload, seed, {metric: value})`` of one saved ``--trace 0``
    stdout, for the end-to-end metrics ``names``; ``ValueError`` for a
    run that was not correct or is not such a result."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = next((line for line in lines
                   if line.startswith("workload=")), None)
    if header is None:
        raise ValueError("no 'workload=... seed=...' line")
    fields = dict(part.split("=", 1) for part in header.split()
                  if "=" in part)
    try:
        workload, seed = fields["workload"], int(fields["seed"])
        result = json.loads(lines[-1])
        values = result["metrics"]
    except (KeyError, ValueError, TypeError):
        raise ValueError("no result JSON line") from None
    if result.get("correct") is not True:
        raise ValueError("the run is not correct")
    missing = [name for name in names if name not in values]
    if missing:
        raise ValueError(f"no end-to-end metric {', '.join(missing)} "
                         f"(not a --trace 0 run)")
    return workload, seed, {name: values[name]["value"]
                            for name in names}


def add(paths, history=HISTORY, benchmark=BENCHMARK, cwd=None):
    """Append one row per saved run in ``paths``; all or none. Returns
    the rows; ``ValueError`` names the first file refused."""
    _, metrics = benchmark_metrics(benchmark)
    sha, fingerprint = code_sha(cwd), host()
    rows = []
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        try:
            workload, seed, values = parse_run(text, list(metrics))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        rows.append({"sha": sha, "workload": workload, "seed": seed,
                     "metrics": values, "host": fingerprint})
    with open(history, "a") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return rows


def load(history=HISTORY):
    """The rows of ``history``, oldest first."""
    try:
        with open(history) as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return []


def _host_label(fingerprint):
    return (f"{fingerprint['cpu']} x{fingerprint['nproc']}, "
            f"Python {fingerprint['python']}, "
            f"numpy {fingerprint['numpy']}")


def check(history=HISTORY, benchmark=BENCHMARK):
    """``{"ok": [...], "skip": [...], "fail": [...]}``, one line each:
    for every (workload, host), the median of the newest sha's rows
    against the median of earlier shas' like-host rows."""
    workloads, metrics = benchmark_metrics(benchmark)
    groups = {}
    for row in load(history):
        key = (row["workload"], json.dumps(row["host"], sort_keys=True))
        groups.setdefault(key, []).append(row)
    report = {"ok": [], "skip": [], "fail": []}
    for workload in workloads:
        if not any(w == workload for w, _ in groups):
            report["skip"].append(f"{workload}: no rows")
    for (workload, _), rows in groups.items():
        sha = rows[-1]["sha"]
        newest = [row for row in rows if row["sha"] == sha]
        priors = [row for row in rows if row["sha"] != sha][-WINDOW:]
        where = f"{workload} on {_host_label(newest[-1]['host'])}"
        if len(priors) < MIN_PRIORS:
            report["skip"].append(
                f"{where}: {len(priors)} earlier like-host row(s), "
                f"fewer than {MIN_PRIORS}")
            continue
        changes = []
        for name, (better, bound) in metrics.items():
            value = statistics.median(row["metrics"][name]
                                      for row in newest)
            median = statistics.median(row["metrics"][name]
                                       for row in priors)
            worse = value - median if better == "lower" \
                else median - value
            share = worse / abs(median) if median else float(worse > 0)
            changes.append(f"{name} {value:.4g} ({share:+.1%})")
            if worse > bound * abs(median):
                report["fail"].append(
                    f"{where}: {name} {value:.4g} is {share:.1%} worse "
                    f"than the median {median:.4g} of {len(priors)} "
                    f"earlier like-host rows (bound {bound:.0%}, "
                    f"{better} is better; median of {len(newest)} "
                    f"row(s) of sha {sha[:12]}, seeds "
                    f"{', '.join(str(row['seed']) for row in newest)})")
        report["ok"].append(f"{where}: {len(newest)} row(s) of sha "
                            f"{sha[:12]} worse (+) than the median of "
                            f"{len(priors)} earlier rows by: "
                            + ", ".join(changes))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    add_p = verbs.add_parser("add", help="append saved perfbench "
                                         "--trace 0 runs as rows")
    add_p.add_argument("runs", nargs="+", metavar="RUN",
                       help="a saved perfbench/run.py --trace 0 stdout")
    verbs.add_parser("check", help="gate the newest sha's rows of "
                                   "each workload and host")
    args = parser.parse_args(argv)

    if args.verb == "add":
        try:
            rows = add(args.runs)
        except ValueError as exc:
            return exit_code([f"refused {exc}"])
        for row in rows:
            print(f"added {row['workload']} seed {row['seed']} "
                  f"(sha {row['sha'][:12]}) to {HISTORY}")
        return 0
    report = check()
    for kind in ("ok", "skip"):
        for line in report[kind]:
            print(f"{kind}: {line}")
    return exit_code(report["fail"])


if __name__ == "__main__":
    sys.exit(main())
