"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — available workloads and configurations
* ``run <workload> [options]``  — run one workload on DiAG + baseline
* ``stats <workload> [options]``— dump the full stats document
* ``trace <workload> [options]``— write a Chrome/Perfetto event trace
* ``experiment <id> [options]`` — regenerate a paper table/figure
* ``fpga``                      — run the I4C2 bring-up suite (§6.2)
* ``sweep <knob> <workload>``   — design-space sensitivity sweep
* ``faults [workload]``         — transient fault-injection campaign
* ``cache stats|clear|verify``  — administer the on-disk run cache
* ``serve``                     — HTTP/JSON run service (docs/SERVICE.md)
* ``verify lockstep|torture|shrink|corpus`` — differential lockstep
  verification against the ISS golden model (docs/VERIFICATION.md)

``sweep`` and ``faults`` accept ``--jobs N`` (or the ``REPRO_JOBS``
environment variable) to shard runs across worker processes; output is
identical for any N (see docs/PARALLEL.md). ``sweep``, ``faults`` and
``verify torture`` additionally accept ``--journal [PATH]`` /
``--resume`` for crash-safe resumable campaigns, and print a one-line
resilience summary to stderr whenever the harness had to retry,
requeue or quarantine anything (docs/RESILIENCE.md). The same three
commands take ``--telemetry [PATH]`` (structured JSONL run-event
stream), ``--progress`` (live status line folded from that stream) and
``--metrics-port N`` (OpenMetrics HTTP exposition); ``repro trace
--campaign <telemetry.jsonl>`` merges a stream into one campaign-level
Chrome trace (docs/OBSERVABILITY.md §6). Everything the CLI does is
also available as a library; see README.md.
"""

import argparse
import json
import sys
from dataclasses import replace

from repro.core import CONFIG_PRESETS
from repro.machines import MACHINES

EXPERIMENTS = ("table1", "table2", "table3", "fig9a", "fig9b", "fig10a",
               "fig10b", "fig11", "fig12", "stalls", "headline")


def _cmd_list(args):
    from repro.workloads import all_workloads

    print("workloads:")
    for name, cls in sorted(all_workloads().items()):
        flags = [cls.CATEGORY]
        if cls.SIMT_CAPABLE:
            flags.append("simt")
        if cls.MT_CAPABLE:
            flags.append("mt")
        print(f"  {name:14s} [{cls.SUITE:7s}] {', '.join(flags)}")
    print("\nDiAG configurations (paper Table 2):")
    for name, cfg in CONFIG_PRESETS.items():
        print(f"  {name:6s} {cfg.isa:8s} {cfg.total_pes:4d} PEs "
              f"({cfg.num_clusters} clusters x {cfg.pes_per_cluster})")
    print("\nexperiments:", ", ".join(EXPERIMENTS))
    return 0


def _describe(record):
    """One result line; failures show their status (and error) rather
    than being conflated with a verification failure."""
    line = (f"{record.cycles:8d} cycles  IPC {record.ipc:5.2f}  "
            f"{record.energy_j * 1e6:8.2f} uJ  "
            f"verified={record.verified}")
    if record.failed:
        line += f"  status={record.status}"
        if record.error:
            line += f" ({record.error})"
    return line


def _host_line(record):
    """Host-side simulator throughput (``sim.host.*`` gauges)."""
    kips = record.stat("sim.host.kips")
    line = (f"host: {kips:8.1f} KIPS  "
            f"({record.stat('sim.host.run_seconds'):.2f}s in engine)")
    iss_kips = record.stat("iss.host.kips", None)
    if iss_kips is not None:
        line += f"  iss: {iss_kips:.1f} KIPS"
    return line


def _stall_line(record):
    """Stall-reason breakdown from the shared ``core.stall.*`` counters."""
    cycles = record.stat("core.cycles") or record.cycles
    parts = []
    for reason in ("memory", "control", "other"):
        stalls = record.stat(f"core.stall.{reason}")
        pct = 100.0 * stalls / cycles if cycles else 0.0
        parts.append(f"{reason} {pct:4.1f}%")
    return "stalls: " + "  ".join(parts)


def _cache_line(record):
    """Hit rates from the shared ``mem.*`` counters."""
    parts = []
    for level in ("l1i", "l1d", "l2"):
        hits = record.stat(f"mem.{level}.hits")
        misses = record.stat(f"mem.{level}.misses")
        total = hits + misses
        rate = 100.0 * hits / total if total else 100.0
        parts.append(f"{level} {rate:5.1f}%")
    return "cache hit: " + "  ".join(parts)


def _record_doc(record):
    """Machine-readable document for one run (stable top-level keys +
    the full flat stats namespace under ``stats``)."""
    return {
        "workload": record.workload,
        "machine": record.machine,
        "config": record.config,
        "threads": record.threads,
        "cycles": record.cycles,
        "instructions": record.instructions,
        "ipc": record.ipc,
        "status": record.status,
        "verified": record.verified,
        "energy_j": record.energy_j,
        "wall_seconds": record.wall_seconds,
        "stats": record.stats,
    }


def _emit_json(doc, dest):
    """Write ``doc`` as JSON to ``dest`` ('-' = stdout)."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {dest}", file=sys.stderr)


def _sampling_params(args):
    """Build validated :class:`SamplingParams` from ``--sample-*``."""
    from repro.sampling import SamplingParams
    return SamplingParams(
        period=args.sample_period, window=args.sample_window,
        warmup=args.warmup, phase=args.sample_phase,
        max_windows=args.max_windows,
        warm_lines=args.warm_lines).validate()


def _machines(choice):
    """``--machine``'s selection: one name, or every machine in the
    table (in table order) for ``both``."""
    return list(MACHINES) if choice == "both" else [choice]


def _sampled_line(record):
    """The CI-bound estimate line for a sampled record, or None."""
    windows = record.stat("sampling.windows")
    if not windows:
        return None
    mean = record.stat("sampling.ipc_mean")
    ci = record.stat("sampling.ipc_ci95")
    coverage = record.stat("sampling.coverage")
    return (f"ipc {mean:.3f} ± {ci:.3f} (95% CI, {windows} windows, "
            f"{100.0 * coverage:.1f}% coverage)")


def _run_machines(args, tracer=None):
    """Run the workload on the machine(s) ``args.machine`` selects,
    sampled with ``--sampled`` (ISS fast path + detailed windows,
    repro.sampling); returns ``{machine_name: RunRecord}`` in run
    order, the baseline first."""
    from repro.harness import run_machine
    from repro.sampling import run_sampled

    sampled = getattr(args, "sampled", False)
    if sampled and args.threads != 1:
        raise SystemExit("--sampled models one hardware thread; "
                         "drop --threads")
    params = _sampling_params(args) if sampled else None
    simt = getattr(args, "simt", False)
    no_ff = getattr(args, "no_fast_forward", False)
    records = {}
    for name in sorted(_machines(args.machine),
                       key=lambda name: not MACHINES[name].baseline):
        entry = MACHINES[name]
        if sampled:
            records[name] = run_sampled(
                args.workload, machine=name, config=args.config,
                scale=args.scale, simt=simt, params=params)
            continue
        config, overrides = args.config, None
        if no_ff and entry.overridable:
            overrides = {"fast_forward": False}
        elif no_ff:   # the baseline takes a whole config object
            config = replace(entry.config(), fast_forward=False)
        records[name] = run_machine(
            name, args.workload, config=config, scale=args.scale,
            threads=args.threads, simt=simt, max_cycles=args.max_cycles,
            config_overrides=overrides, tracer=tracer)
    return records


def _cmd_run(args):
    records = _run_machines(args)
    if args.json is not None:
        docs = {name: _record_doc(rec) for name, rec in records.items()}
        doc = next(iter(docs.values())) if len(docs) == 1 else docs
        _emit_json(doc, args.json)
        return 0 if all(r.verified for r in records.values()) else 1
    sampled = getattr(args, "sampled", False)
    mode = " [sampled]" if sampled else ""
    print(f"workload {args.workload} (scale {args.scale}, "
          f"{args.threads} thread(s)){mode}:")

    def detail(rec):
        if sampled:
            line = _sampled_line(rec)
            if line:
                print(f"             {line}")
            iss_kips = rec.stat("iss.host.kips", None)
            if iss_kips is not None:
                print(f"             iss: {iss_kips:8.1f} KIPS  "
                      f"({rec.stat('iss.host.run_seconds', 0.0):.2f}s "
                      f"functional)")
            return
        print(f"             {_stall_line(rec)}")
        print(f"             {_cache_line(rec)}")
        print(f"             {_host_line(rec)}")

    for name, rec in records.items():
        baseline = MACHINES[name].baseline
        label = "baseline " if baseline else f"DiAG {args.config:5s}"
        print(f"  {label}: {_describe(rec)}")
        detail(rec)
    runs = list(records.values())
    if len(runs) == 2 and runs[1].cycles and not any(r.failed
                                                     for r in runs):
        base, diag = runs
        print(f"  speedup {base.cycles / diag.cycles:.2f}x   "
              f"energy efficiency "
              f"{base.energy_j / diag.energy_j:.2f}x")
    return 0 if all(r.verified for r in records.values()) else 1


def _cmd_stats(args):
    from repro.obs import (format_flat, openmetrics_flat,
                           resilience_snapshot)

    records = _run_machines(args)
    fmt = args.format
    if fmt == "text" and args.json is not None:
        fmt = "json"  # back-compat spelling of --format json

    def narrow(flat):
        """Apply ``--filter PREFIX`` to a flat stats dump."""
        if not args.filter:
            return flat
        return {name: value for name, value in flat.items()
                if name.startswith(args.filter)}

    if fmt == "json":
        docs = {name: _record_doc(rec) for name, rec in records.items()}
        for doc in docs.values():
            doc["stats"] = narrow(doc["stats"])
        doc = next(iter(docs.values())) if len(docs) == 1 else docs
        doc["resilience"] = resilience_snapshot()
        _emit_json(doc, args.json if args.json is not None else "-")
    elif fmt == "openmetrics":
        # one exposition document: per-machine stats namespaced by
        # engine, resilience counters appended, single # EOF
        combined = {}
        for name, rec in records.items():
            for key, value in narrow(rec.stats).items():
                combined[f"{name}.{key}"] = value
        combined.update(narrow(resilience_snapshot()))
        sys.stdout.write(openmetrics_flat(combined))
    else:
        for name, rec in records.items():
            print(f"==> {args.workload} on {name} "
                  f"({rec.config}, status={rec.status})")
            print(format_flat(narrow(rec.stats)))
        print("==> harness resilience (host-side; excluded from "
              "byte-identity, see docs/RESILIENCE.md)")
        print(format_flat(narrow(resilience_snapshot())))
    return 0 if all(not r.failed for r in records.values()) else 1


def _trace_campaign(args):
    """``repro trace --campaign <telemetry.jsonl>``: merge a campaign
    telemetry stream into one Chrome trace (worker Gantt)."""
    from repro.obs import campaign_trace, read_events

    events = read_events(args.campaign)
    if not events:
        print(f"no telemetry events in {args.campaign}",
              file=sys.stderr)
        return 1
    doc = campaign_trace(events, max_events=args.max_events)
    with open(args.output, "w") as handle:
        json.dump(doc, handle)
    trace_events = doc.get("traceEvents", [])
    spans = sum(1 for ev in trace_events if ev.get("ph") == "X")
    workers = len({ev.get("pid") for ev in events})
    print(f"wrote {args.output}: {len(trace_events)} trace events "
          f"({spans} spans) from {len(events)} telemetry events "
          f"across {workers} process(es)")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_trace(args):
    from repro.obs import EventTracer

    if args.campaign is not None:
        return _trace_campaign(args)
    if args.workload is None:
        print("trace: a workload (or --campaign PATH) is required",
              file=sys.stderr)
        return 2
    tracer = EventTracer(max_events=args.max_events)
    records = _run_machines(args, tracer=tracer)
    tracer.write(args.output)
    machines = "+".join(records)
    print(f"wrote {args.output}: {len(tracer.events())} events "
          f"({tracer.emitted} emitted, {tracer.dropped} dropped) "
          f"from {machines}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    for name, rec in records.items():
        if rec.failed:
            print(f"warning: {name} run status={rec.status}"
                  + (f" ({rec.error})" if rec.error else ""),
                  file=sys.stderr)
    return 0 if all(not r.failed for r in records.values()) else 1


def _cmd_experiment(args):
    from repro import harness

    runner = getattr(harness, f"run_{args.id}", None)
    if args.id == "stalls":
        runner = harness.run_stall_breakdown
    if runner is None:
        print(f"unknown experiment '{args.id}'; one of: "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    kwargs = {} if args.id in ("table2", "table3") \
        else {"scale": args.scale}
    result = runner(**kwargs)
    print(harness.render_experiment(args.id, result))
    return 0


def _journal_arg(args):
    """Resolve ``--journal``/``--resume`` into run_specs' ``journal``
    argument (``--resume`` alone implies an auto-named journal)."""
    journal = getattr(args, "journal", None)
    if journal is None and getattr(args, "resume", False):
        journal = True
    return journal


def _emit_resilience(monitor=None):
    """One-line harness-resilience summary on stderr (stdout stays
    byte-identical across retries/resumes; docs/RESILIENCE.md).

    The line always carries the campaign cache-hit ratio and the ETA
    source (docs/OBSERVABILITY.md §6). A monitored campaign
    (``--progress``/``--telemetry``/``--metrics-port``) reports them
    from the telemetry fold and always prints; an unmonitored one
    stays quiet unless a resilience counter fired."""
    from repro.obs import resilience_summary
    from repro.obs.progress import summary_extras

    if monitor is None and resilience_summary() is None:
        return
    line = resilience_summary(extra=summary_extras(monitor))
    if line:
        print(line, file=sys.stderr)


def _campaign_monitor(args, label):
    """Honour ``--progress`` / ``--telemetry`` / ``--metrics-port``.

    Returns ``(monitor, server)`` — a bound
    :class:`repro.obs.ProgressRenderer` (quiet unless ``--progress``)
    plus an optional running :class:`repro.obs.MetricsServer`, or
    ``(None, None)`` when none of the flags were given. The caller
    threads ``monitor`` into the campaign as ``progress=`` and must
    call :func:`_finish_monitor` afterwards."""
    want_progress = getattr(args, "progress", False)
    stream_arg = getattr(args, "telemetry", None)
    port = getattr(args, "metrics_port", None)
    if not want_progress and stream_arg is None and port is None:
        return None, None
    from repro.obs import (MetricsServer, ProgressRenderer,
                           StatsRegistry, resilience, telemetry)

    bus = telemetry.configure(
        path=None if stream_arg in (None, True) else stream_arg)
    print(f"telemetry: {bus.path}", file=sys.stderr)
    monitor = ProgressRenderer(label=label,
                               quiet=not want_progress).bind(bus)
    server = None
    if port is not None:
        def provider():
            # read-only fold of state the harness thread updates; the
            # exposition is at most one poll interval stale
            reg = StatsRegistry()
            reg.merge(resilience())
            reg.merge(monitor.progress.to_registry())
            return reg.to_openmetrics()

        server = MetricsServer(provider, port=port).start()
        print(f"metrics: http://127.0.0.1:{server.port}/metrics",
              file=sys.stderr)
    return monitor, server


def _finish_monitor(monitor, server):
    if monitor is not None:
        monitor.finish()
    if server is not None:
        server.close()


def _cmd_sweep(args):
    from repro.harness.sweeps import ALL_SWEEPS

    monitor, server = _campaign_monitor(args, f"sweep {args.knob}")
    sweep = ALL_SWEEPS[args.knob]
    try:
        result = sweep(args.workload, scale=args.scale, jobs=args.jobs,
                       journal=_journal_arg(args), resume=args.resume,
                       progress=monitor)
    finally:
        _finish_monitor(monitor, server)
    print(result.render())
    _emit_resilience(monitor)
    return 0 if result.all_verified() else 1


def _cmd_cache(args):
    from repro.harness import diskcache

    cache = diskcache.configure(args.dir) if args.dir \
        else diskcache.active()
    if cache is None:
        print("disk cache disabled (set REPRO_DISK_CACHE or pass "
              "--dir; see docs/PARALLEL.md)", file=sys.stderr)
        return 2
    if args.action == "stats":
        for name, value in cache.stats().items():
            print(f"{name:12s} {value}")
    elif args.action == "clear":
        print(f"removed {cache.clear()} cached run(s) from "
              f"{cache.root}")
    else:  # verify
        repair = getattr(args, "repair", False)
        outcome = cache.verify(repair=repair)
        state = "removed" if repair else "use --repair to remove"
        print(f"checked {outcome['checked']} entries: "
              f"{outcome['ok']} ok, {outcome['corrupt']} "
              f"corrupt ({state})")
        return 0 if outcome["corrupt"] == 0 else 1
    return 0


def _cmd_serve(args):
    """``repro serve``: the asyncio HTTP/JSON run service — run specs
    in, deduped + cached + fair-queued execution out, progress
    streamed as chunked JSON lines (docs/SERVICE.md)."""
    import asyncio

    from repro.harness import diskcache
    from repro.service.app import Service

    cache = None
    if args.cache is not None:
        cache = diskcache.DiskCache(args.cache, remote=args.remote)
    elif args.remote is not None:
        root = diskcache._resolve_root() or diskcache.default_root()
        cache = diskcache.DiskCache(root, remote=args.remote)

    async def _main():
        service = Service(
            host=args.host, port=args.port, workers=args.jobs or 2,
            cache=cache, rate=args.rate, burst=args.burst,
            queue_depth=args.queue_depth, timeout=args.timeout,
            retries=args.retries, telemetry_path=args.telemetry
            if args.telemetry not in (None, True) else None)
        await service.start()
        print(f"repro service: http://{args.host}:{service.port}  "
              f"(workers={service.scheduler.workers}, "
              f"cache={'on' if service.cache else 'off'})",
              file=sys.stderr)
        print(f"telemetry: {service.bus.path}", file=sys.stderr)
        try:
            await asyncio.Event().wait()
        finally:
            await service.aclose()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_faults(args):
    from repro.faults import CampaignError, run_campaign
    from repro.workloads import all_workloads

    if args.workload not in all_workloads():
        print(f"unknown workload '{args.workload}'; one of: "
              f"{', '.join(sorted(all_workloads()))}", file=sys.stderr)
        return 2
    monitor, server = _campaign_monitor(args, f"faults {args.workload}")
    try:
        report = run_campaign(args.workload, machine=args.machine,
                              config=args.config, scale=args.scale,
                              trials=args.trials, seed=args.seed,
                              jobs=args.jobs,
                              journal=_journal_arg(args),
                              resume=args.resume, progress=monitor)
    except CampaignError as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        _finish_monitor(monitor, server)
    print(report.summary())
    _emit_resilience(monitor)
    return 0


def _cmd_fpga(args):
    from repro.core.fpga import run_fpga_proof

    report = run_fpga_proof()
    print(report.summary())
    return 0 if report.all_passed else 1


def _verify_lockstep(args):
    from repro.core.watchdog import SimulationHang
    from repro.verify import Divergence, run_lockstep
    from repro.workloads import all_workloads, get_workload

    if args.workload not in all_workloads():
        print(f"unknown workload '{args.workload}'; one of: "
              f"{', '.join(sorted(all_workloads()))}", file=sys.stderr)
        return 2
    inst = get_workload(args.workload)().build(scale=args.scale)
    failed = False
    for machine in _machines(args.machine):
        try:
            result = run_lockstep(
                inst.program, machine=machine, config=args.config,
                fast_forward=not args.no_fast_forward,
                max_cycles=args.max_cycles, setup=inst.setup)
        except Divergence as exc:
            print(f"{machine:5s} DIVERGED\n{exc}")
            failed = True
            continue
        except SimulationHang as exc:
            print(f"{machine:5s} HUNG: {exc}")
            failed = True
            continue
        print(f"{machine:5s} lockstep ok: {result.retired} retired / "
              f"{result.cycles} cycles, state identical at every "
              f"commit")
    return 1 if failed else 0


def _verify_torture(args):
    from repro.verify import run_torture
    from repro.verify.campaign import shrink_failures

    machines = _machines(args.machine)
    ff_modes = {"both": (True, False), "on": (True,),
                "off": (False,)}[args.ff]
    simt_modes = {"both": (False, True), "on": (True,),
                  "off": (False,)}[args.simt]
    monitor, server = _campaign_monitor(args, "torture")
    try:
        report = run_torture(args.seed, args.count, machines=machines,
                             ff_modes=ff_modes, simt_modes=simt_modes,
                             ops=args.ops, jobs=args.jobs,
                             max_cycles=args.max_cycles,
                             journal=_journal_arg(args),
                             resume=args.resume, progress=monitor)
    finally:
        _finish_monitor(monitor, server)
    if report.prescreen is not None:
        pre = report.prescreen
        # stderr: the wall-clock KIPS figure must never perturb the
        # byte-identical stdout contract of journaled resume
        print(f"iss prescreen: {pre.programs} programs, "
              f"{pre.instructions} instructions, "
              f"{pre.kips:.1f} KIPS, "
              f"{len(pre.anomalies)} anomalies", file=sys.stderr)
    print(f"torture seed={args.seed}: {report.summary()}")
    _emit_resilience(monitor)
    for outcome in report.failures[:10]:
        print(f"--- {outcome.spec.workload} [{outcome.status}]")
        print("\n".join(outcome.detail.splitlines()[:12]))
    if report.failures and args.shrink:
        for path in shrink_failures(report):
            print(f"shrunk reproducer written: {path}")
    return 0 if report.ok else 1


def _verify_shrink(args):
    from repro.verify import generate, shrink_program, write_reproducer
    from repro.verify.campaign import SEED_STRIDE, SIMT_CONFIG
    from repro.verify.shrink import CORPUS_DIR, divergence_predicate

    program_seed = args.seed * SEED_STRIDE + args.index
    program = generate(program_seed, ops=args.ops, simt=args.simt)
    config = SIMT_CONFIG if args.simt else "F4C2"
    predicate = divergence_predicate(
        args.machine, config=config,
        fast_forward=not args.no_fast_forward)
    if not predicate(program):
        print(f"seed {args.seed} index {args.index} does not diverge "
              f"on {args.machine}; nothing to shrink")
        return 1
    shrunk = shrink_program(program, predicate)
    path = write_reproducer(args.out or CORPUS_DIR, shrunk,
                            args.machine, config=config,
                            fast_forward=not args.no_fast_forward)
    print(f"{len(program.ops)} -> {len(shrunk.ops)} op groups; "
          f"wrote {path}")
    return 0


def _verify_corpus(args):
    from repro.verify.shrink import CORPUS_DIR, replay_corpus

    directory = args.dir or CORPUS_DIR
    results = replay_corpus(directory)
    if not results:
        print(f"no corpus files under {directory}")
        return 0
    failures = [r for r in results if r[3] is not None]
    for path, machine, ff, error in failures:
        print(f"FAIL {path} [{machine}, ff={'on' if ff else 'off'}]")
        print("\n".join(str(error).splitlines()[:8]))
    print(f"corpus: {len(results)} replays, "
          f"{len(failures)} failures")
    return 1 if failures else 0


def _cmd_verify(args):
    return {"lockstep": _verify_lockstep,
            "torture": _verify_torture,
            "shrink": _verify_shrink,
            "corpus": _verify_corpus}[args.action](args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiAG (ASPLOS 2021) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    machines, configs = tuple(MACHINES), tuple(CONFIG_PRESETS)

    sub.add_parser("list", help="list workloads / configs / experiments")

    def add_machine_opts(p, default_machine="both", simt=True,
                         workload_optional=False):
        if workload_optional:
            p.add_argument("workload", nargs="?", default=None)
        else:
            p.add_argument("workload")
        p.add_argument("--machine", default=default_machine,
                       choices=("both", *machines),
                       help="engine(s) to run "
                            f"(default: {default_machine})")
        p.add_argument("--config", default="F4C16",
                       choices=configs)
        p.add_argument("--scale", type=float, default=0.5)
        p.add_argument("--threads", type=int, default=1)
        if simt:
            p.add_argument("--simt", action="store_true")
        p.add_argument("--max-cycles", type=int, default=None,
                       help="cycle budget (exhaustion reports "
                            "status=timed_out)")
        p.add_argument("--no-fast-forward", action="store_true",
                       help="disable event-driven cycle skipping "
                            "(results are identical either way; see "
                            "docs/PERFORMANCE.md)")

    run_p = sub.add_parser("run", help="run one workload")
    add_machine_opts(run_p)
    run_p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit the full stats document as JSON to "
                            "PATH (stdout if omitted)")
    run_p.add_argument("--sampled", action="store_true",
                       help="sampled simulation: ISS functional fast "
                            "path + periodic detailed timing windows; "
                            "IPC is reported as a point estimate with "
                            "a 95%% confidence interval "
                            "(docs/SAMPLING.md)")
    run_p.add_argument("--sample-period", type=int, default=50_000,
                       metavar="N",
                       help="instructions between window starts "
                            "(default 50000)")
    run_p.add_argument("--sample-window", type=int, default=2_000,
                       metavar="N",
                       help="instructions measured per window "
                            "(default 2000)")
    run_p.add_argument("--warmup", type=int, default=1_000, metavar="N",
                       help="warm-start prefix per window, stats gated "
                            "off (default 1000)")
    run_p.add_argument("--sample-phase", type=int, default=0,
                       metavar="N",
                       help="offset of the first window (default 0)")
    run_p.add_argument("--max-windows", type=int, default=0,
                       metavar="N",
                       help="stop measuring after N windows "
                            "(0 = no limit)")
    run_p.add_argument("--warm-lines", type=int, default=4096,
                       metavar="N",
                       help="functional cache warming: prime each "
                            "window with the last N touched lines "
                            "(0 disables)")

    stats_p = sub.add_parser(
        "stats", help="run and dump the full stats document "
                      "(gem5-style text, or --json)")
    add_machine_opts(stats_p, default_machine="diag")
    stats_p.add_argument("--json", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="JSON instead of text (stdout if PATH "
                              "omitted); same as --format json")
    stats_p.add_argument("--format", default="text",
                         choices=("text", "json", "openmetrics"),
                         help="output format (openmetrics: Prometheus"
                              "-scrapable text exposition)")
    stats_p.add_argument("--filter", default=None, metavar="PREFIX",
                         help="only stats whose dotted name starts "
                              "with PREFIX (e.g. core.stall)")

    trace_p = sub.add_parser(
        "trace", help="run with the event tracer and write a Chrome "
                      "trace_event JSON (Perfetto-loadable)")
    add_machine_opts(trace_p, default_machine="diag",
                     workload_optional=True)
    trace_p.add_argument("-o", "--output", default="trace.json")
    trace_p.add_argument("--max-events", type=int, default=200_000,
                         help="ring-buffer bound on retained events "
                              "(older events drop first)")
    trace_p.add_argument("--campaign", default=None, metavar="PATH",
                         help="merge a campaign telemetry JSONL "
                              "stream (from --telemetry) into one "
                              "worker-Gantt Chrome trace instead of "
                              "running a workload")

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    exp_p.add_argument("id", choices=EXPERIMENTS)
    exp_p.add_argument("--scale", type=float, default=0.5)

    sub.add_parser("fpga", help="I4C2 bring-up co-simulation (section "
                                "6.2 substitute)")

    def add_jobs_opt(p):
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: REPRO_JOBS "
                            "env var, else serial); results are "
                            "identical for any N")

    def add_resume_opts(p):
        p.add_argument("--journal", nargs="?", const=True, default=None,
                       metavar="PATH",
                       help="fsync every completed cell to a "
                            "write-ahead journal (auto-named under "
                            ".repro_journal/ if PATH omitted); see "
                            "docs/RESILIENCE.md")
        p.add_argument("--resume", action="store_true",
                       help="replay journaled cells instead of "
                            "re-running them (implies --journal); "
                            "output is byte-identical to an "
                            "undisturbed run")

    def add_telemetry_opts(p):
        p.add_argument("--progress", action="store_true",
                       help="render a live status line on stderr "
                            "(completed/total, cells/s, ETA, retries, "
                            "cache hits; docs/OBSERVABILITY.md)")
        p.add_argument("--telemetry", nargs="?", const=True,
                       default=None, metavar="PATH",
                       help="append structured lifecycle events to a "
                            "telemetry JSONL stream (auto-named under "
                            ".repro_telemetry/ if PATH omitted); "
                            "implied by --progress / --metrics-port")
        p.add_argument("--metrics-port", type=int, default=None,
                       metavar="N",
                       help="serve live campaign + resilience "
                            "aggregates as OpenMetrics text on "
                            "http://127.0.0.1:N/metrics (0 picks a "
                            "free port)")

    sweep_p = sub.add_parser("sweep", help="design-space sweep")
    sweep_p.add_argument("knob", choices=("clusters", "threads",
                                          "lsu_depth", "flush_penalty",
                                          "sample_period"))
    sweep_p.add_argument("workload")
    sweep_p.add_argument("--scale", type=float, default=0.5)
    add_jobs_opt(sweep_p)
    add_resume_opts(sweep_p)
    add_telemetry_opts(sweep_p)

    faults_p = sub.add_parser(
        "faults", help="seed-driven transient fault-injection campaign")
    faults_p.add_argument("workload", nargs="?", default="nn")
    faults_p.add_argument("--machine", default="diag",
                          choices=machines)
    faults_p.add_argument("--config", default="F4C2",
                          choices=configs)
    faults_p.add_argument("--scale", type=float, default=0.25)
    faults_p.add_argument("--trials", type=int, default=20)
    faults_p.add_argument("--seed", type=int, default=0)
    add_jobs_opt(faults_p)
    add_resume_opts(faults_p)
    add_telemetry_opts(faults_p)

    cache_p = sub.add_parser(
        "cache", help="administer the persistent on-disk run cache")
    cache_p.add_argument("action", choices=("stats", "clear", "verify"))
    cache_p.add_argument("--dir", default=None, metavar="PATH",
                         help="cache directory (default: the active "
                              "REPRO_DISK_CACHE location)")
    cache_p.add_argument("--repair", action="store_true",
                         help="verify only: remove corrupt entries "
                              "instead of just reporting them")

    serve_p = sub.add_parser(
        "serve", help="HTTP/JSON run service: dedup, cache, fair "
                      "queuing, streamed progress (docs/SERVICE.md)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8321,
                         help="listen port (0 picks a free port; "
                              "default 8321)")
    serve_p.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes (default 2)")
    serve_p.add_argument("--cache", default=None, metavar="DIR",
                         help="disk-cache directory (default: the "
                              "active REPRO_DISK_CACHE location)")
    serve_p.add_argument("--remote", default=None, metavar="URL",
                         help="peer service for the read-through "
                              "remote cache tier (its /v1/cache)")
    serve_p.add_argument("--rate", type=float, default=None,
                         metavar="R",
                         help="per-tenant admission rate (runs/s; "
                              "default unlimited)")
    serve_p.add_argument("--burst", type=float, default=None,
                         metavar="B",
                         help="per-tenant token-bucket burst "
                              "(default max(2*rate, 4))")
    serve_p.add_argument("--queue-depth", type=int, default=64,
                         metavar="N",
                         help="per-tenant pending-job bound "
                              "(default 64)")
    serve_p.add_argument("--timeout", type=float, default=None,
                         metavar="S",
                         help="per-run watchdog (default "
                              "REPRO_WORKER_TIMEOUT / 900s)")
    serve_p.add_argument("--retries", type=int, default=1, metavar="N",
                         help="pool resubmissions per run (default 1)")
    serve_p.add_argument("--telemetry", default=None, metavar="PATH",
                         help="telemetry JSONL stream path "
                              "(auto-named under .repro_telemetry/ "
                              "if omitted)")

    verify_p = sub.add_parser(
        "verify", help="differential lockstep verification against the "
                       "ISS golden model (docs/VERIFICATION.md)")
    verify_sub = verify_p.add_subparsers(dest="action", required=True)

    vl = verify_sub.add_parser(
        "lockstep", help="run one workload in lockstep with the ISS")
    vl.add_argument("workload")
    vl.add_argument("--machine", default="both",
                    choices=("both", *machines))
    vl.add_argument("--config", default="F4C2",
                    choices=configs)
    vl.add_argument("--scale", type=float, default=0.25)
    vl.add_argument("--max-cycles", type=int, default=None)
    vl.add_argument("--no-fast-forward", action="store_true")

    vt = verify_sub.add_parser(
        "torture", help="constrained-random torture campaign "
                        "(machine x FF x SIMT matrix)")
    vt.add_argument("--seed", type=int, default=0)
    vt.add_argument("--count", type=int, default=50,
                    help="programs per matrix cell row (default 50)")
    vt.add_argument("--ops", type=int, default=40,
                    help="op groups per program (default 40)")
    vt.add_argument("--machine", default="both",
                    choices=("both", *machines))
    vt.add_argument("--ff", default="both", choices=("both", "on", "off"),
                    help="fast-forward modes to cover (default both)")
    vt.add_argument("--simt", default="both",
                    choices=("both", "on", "off"),
                    help="SIMT-region program modes (default both)")
    vt.add_argument("--max-cycles", type=int, default=400_000)
    vt.add_argument("--shrink", action="store_true",
                    help="ddmin any diverging program into "
                         "tests/regressions/")
    add_jobs_opt(vt)
    add_resume_opts(vt)
    add_telemetry_opts(vt)

    vs = verify_sub.add_parser(
        "shrink", help="shrink one diverging torture cell to a minimal "
                       "reproducer")
    vs.add_argument("--seed", type=int, required=True,
                    help="campaign base seed of the failing cell")
    vs.add_argument("--index", type=int, default=0)
    vs.add_argument("--machine", default="diag",
                    choices=machines)
    vs.add_argument("--ops", type=int, default=40)
    vs.add_argument("--simt", action="store_true")
    vs.add_argument("--no-fast-forward", action="store_true")
    vs.add_argument("--out", default=None, metavar="DIR",
                    help="corpus directory (default tests/regressions)")

    vc = verify_sub.add_parser(
        "corpus", help="replay every reproducer in tests/regressions/")
    vc.add_argument("--dir", default=None, metavar="DIR")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "experiment": _cmd_experiment,
        "fpga": _cmd_fpga,
        "sweep": _cmd_sweep,
        "faults": _cmd_faults,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # e.g. ``repro stats ... | head`` — downstream closed stdout
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
