#!/usr/bin/env python
"""CI chaos smoke: SIGKILL a campaign mid-flight, resume, diff.

Runs a fixed-seed torture campaign three ways:

1. **reference** — undisturbed, stdout captured;
2. **chaos**     — same campaign with ``--journal``, SIGKILLed the
   moment the write-ahead journal holds at least one completed cell;
3. **resume**    — same command with ``--resume``, stdout captured.

The chaos run's pool workers must die with it: a worker of a SIGKILLed
owner left blocked on the call queue is a leak (the pool's
parent-death check, docs/RESILIENCE.md §3). Their pids are read from
``/proc`` just before the kill; a note replaces the check where there
is no ``/proc``.

The resumed stdout must be **byte-identical** to the reference — the
crash-safety contract of docs/RESILIENCE.md §2 (resilience counters go
to stderr precisely so they cannot perturb this comparison). The
resume must also actually *be* a resume: its stderr has to report
journal hits for every journaled cell, and the resumed run's telemetry
stream (``--telemetry``; docs/OBSERVABILITY.md §6) has to mark the
journal-replayed prefix with ``replayed`` events — never ``started`` —
while still forming one coherent campaign (begin/end markers, every
cell accounted for).

Usage: ``python tools/chaos_smoke.py [--count 8] [--jobs 2]``
(``src/`` is put on ``sys.path``/``PYTHONPATH`` by ``benchkit``).
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from benchkit import SRC, exit_code  # puts src/ on sys.path


def campaign_cmd(args, extra=()):
    return [sys.executable, "-m", "repro", "verify", "torture",
            "--seed", str(args.seed), "--count", str(args.count),
            "--machine", "diag", "--ff", "on", "--simt", "off",
            "--ops", str(args.ops), "--jobs", str(args.jobs),
            *extra]


def run(cmd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def journal_lines(path):
    try:
        with open(path) as handle:
            return sum(1 for __ in handle)
    except OSError:
        return 0


def proc_stat(pid):
    """``(state, ppid, start time)`` of ``pid`` from ``/proc``, or None
    once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[19])


def children(pid):
    """``{child pid: start time}`` of ``pid``'s children."""
    out = {}
    for entry in os.listdir("/proc"):
        stat = proc_stat(entry) if entry.isdigit() else None
        if stat is not None and stat[1] == pid:
            out[int(entry)] = stat[2]
    return out


def survivors(workers, timeout=10.0):
    """The pids of ``workers`` still running after ``timeout`` s (a
    zombie, or a pid reused by a process started later, is gone)."""
    deadline = time.monotonic() + timeout
    while True:
        alive = []
        for pid, start in workers.items():
            stat = proc_stat(pid)
            if stat is not None and stat[0] not in "ZX" \
                    and stat[2] == start:
                alive.append(pid)
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def check_telemetry(path, killed_at):
    """The resumed run's telemetry must be one coherent campaign with
    the journal-replayed prefix marked ``replayed``, not ``started``."""
    from repro.obs.telemetry import read_events

    events = read_events(path)
    if not events:
        return [f"resumed run produced no telemetry at {path}"]
    failures = []
    kinds = [ev["ev"] for ev in events]
    for marker in ("campaign_begin", "campaign_end"):
        if kinds.count(marker) != 1:
            failures.append(f"resumed telemetry has "
                            f"{kinds.count(marker)} {marker} events "
                            f"(want exactly 1)")
    replayed = {ev.get("run") for ev in events
                if ev["ev"] == "replayed"}
    if killed_at and len(replayed) < killed_at:
        failures.append(f"resumed telemetry marks {len(replayed)} "
                        f"cells replayed, journal held {killed_at}")
    started = {ev.get("run") for ev in events
               if ev["ev"] == "started"}
    overlap = replayed & started
    if overlap:
        failures.append("replayed cells were re-executed: "
                        + ", ".join(sorted(overlap)))
    done = {ev.get("run") for ev in events
            if ev["ev"] in ("finished", "failed")} | replayed
    begin = next(ev for ev in events if ev["ev"] == "campaign_begin")
    if begin.get("cells") is not None \
            and len(done) != begin["cells"]:
        failures.append(f"resumed telemetry accounts for {len(done)} "
                        f"of {begin['cells']} cells")
    print(f"resume telemetry: {len(events)} events, "
          f"{len(replayed)} replayed, {len(started)} fresh")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--ops", type=int, default=24)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--kill-after", type=int, default=1,
                        help="SIGKILL once the journal holds this many "
                             "cells (default 1)")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="keep the journal + telemetry streams "
                             "here (default: a temp dir); CI uploads "
                             "them as artifacts")
    args = parser.parse_args(argv)
    failures = []

    if args.workdir:
        workdir = args.workdir
        os.makedirs(workdir, exist_ok=True)
    else:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    journal = os.path.join(workdir, "campaign.jsonl")
    chaos_telemetry = os.path.join(workdir, "chaos-telemetry.jsonl")
    resume_telemetry = os.path.join(workdir, "resume-telemetry.jsonl")

    # 1. the undisturbed reference
    reference = run(campaign_cmd(args))
    if reference.returncode != 0:
        print(reference.stdout)
        print(reference.stderr, file=sys.stderr)
        return exit_code(["reference campaign failed"])

    # 2. chaos: journal on, SIGKILL mid-flight
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        campaign_cmd(args, ("--journal", journal,
                            "--telemetry", chaos_telemetry)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    deadline = time.monotonic() + 120
    while journal_lines(journal) < args.kill_after \
            and proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            return exit_code([f"journal never reached "
                              f"{args.kill_after} cells"])
        time.sleep(0.02)
    killed_at = journal_lines(journal)
    if proc.poll() is None:
        workers = children(proc.pid) if os.path.isdir("/proc") else None
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        print(f"killed campaign with {killed_at} cells journaled")
        if workers is None:
            print("note: no /proc; pool-worker survival not checked")
        elif not workers and args.jobs > 1:
            failures.append("killed campaign had no pool workers to "
                            "check")
        else:
            alive = survivors(workers)
            print(f"pool workers of the killed campaign: {len(workers)}"
                  f", surviving: {len(alive)}")
            if alive:
                failures.append(
                    "pool workers outlived the killed campaign: "
                    + ", ".join(str(pid) for pid in sorted(alive)))
                for pid in alive:
                    os.kill(pid, signal.SIGKILL)
    else:
        # tiny campaign raced to completion; the resume check below
        # still validates replay, just without a real crash
        print("note: campaign finished before the kill "
              f"({killed_at} cells journaled)")

    # 3. resume and diff
    resumed = run(campaign_cmd(args, ("--journal", journal, "--resume",
                                      "--telemetry",
                                      resume_telemetry)))
    if resumed.returncode != 0:
        failures.append("resumed campaign failed "
                        f"(rc={resumed.returncode})")
    if resumed.stdout != reference.stdout:
        failures.append("resumed stdout differs from the reference")
        print("--- reference ---")
        print(reference.stdout)
        print("--- resumed ---")
        print(resumed.stdout)
    hits = re.search(r"journal\.hits=(\d+)", resumed.stderr)
    if killed_at and (hits is None or int(hits.group(1)) < killed_at):
        failures.append(
            f"expected >= {killed_at} journal hits on resume, "
            f"stderr said: {resumed.stderr.strip()!r}")
    failures.extend(check_telemetry(resume_telemetry, killed_at))

    print(f"reference: {reference.stdout.strip().splitlines()[0]}")
    print(f"resume journal hits: "
          f"{hits.group(1) if hits else 'none reported'}")
    if not failures:
        print("chaos smoke OK: kill + resume is byte-identical")
    return exit_code(failures)


if __name__ == "__main__":
    sys.exit(main())
