"""Bridges from engine-private stats objects into the shared registry.

Both engines must land the *same* core counter names so experiments,
sweeps and fault campaigns can compare machines without knowing which
one ran (:data:`SHARED_CORE_COUNTERS` is the contract, enforced by
tests). Engine-specific detail nests under ``diag.ring<i>.*`` and
``ooo.*``; the memory system under ``mem.*``; the functional ISS under
``iss.*``; run outcome and self-profiling under ``sim.*`` / ``host.*``.
"""

from repro.obs.registry import StatsRegistry

#: Counter names every engine must emit with identical spelling
#: (the parity contract between ``diag`` and ``ooo`` stats documents).
SHARED_CORE_COUNTERS = (
    "core.cycles",
    "core.instructions",
    "core.ipc",
    "core.branches",
    "core.taken_branches",
    "core.mispredicts",
    "core.loads",
    "core.stores",
    "core.store_forwards",
    "core.stall.memory",
    "core.stall.control",
    "core.stall.other",
    "core.stall.total",
    "mem.l1i.hits",
    "mem.l1i.misses",
    "mem.l1i.miss_rate",
    "mem.l1d.hits",
    "mem.l1d.misses",
    "mem.l1d.miss_rate",
    "mem.l2.hits",
    "mem.l2.misses",
    "mem.l2.miss_rate",
    "mem.bank_conflicts",
)


def _collect_core(registry, *, cycles, instructions, branches,
                  taken_branches, mispredicts, loads, stores,
                  store_forwards, stall_cycles):
    """The shared ``core.*`` namespace (identical for both engines)."""
    core = registry.group("core")
    core.counter("cycles", "simulated cycles").inc(cycles)
    core.counter("instructions", "retired instructions").inc(instructions)
    core.set("ipc", instructions / cycles if cycles else 0.0,
             desc="retired instructions per cycle")
    core.counter("branches", "conditional branches seen").inc(branches)
    core.counter("taken_branches", "branches resolved taken") \
        .inc(taken_branches)
    core.counter("mispredicts", "control-flow mispredictions") \
        .inc(mispredicts)
    core.counter("loads", "load instructions").inc(loads)
    core.counter("stores", "store instructions").inc(stores)
    core.counter("store_forwards", "loads satisfied by forwarding") \
        .inc(store_forwards)
    total = 0
    by_reason = {}
    for reason, count in stall_cycles.items():
        key = reason.value if hasattr(reason, "value") else str(reason)
        by_reason[key] = by_reason.get(key, 0) + count
        total += count
    for key in ("memory", "control", "other"):
        core.counter(f"stall.{key}",
                     f"head-of-window stall cycles: {key}") \
            .inc(by_reason.get(key, 0))
    core.counter("stall.total", "total classified stall cycles").inc(total)


def collect_hierarchy(registry, hierarchies):
    """``mem.*`` from one or more :class:`MemoryHierarchy` instances.

    Multicore baselines have private L1s over one shared L2; caches
    appearing in several hierarchies (the shared L2) count once.
    """
    if not isinstance(hierarchies, (list, tuple)):
        hierarchies = [hierarchies]
    mem = registry.group("mem")
    seen = set()
    totals = {}
    for hier in hierarchies:
        for label, cache in (("l1i", hier.l1i), ("l1d", hier.l1d),
                             ("l2", hier.l2)):
            if id(cache) in seen:
                continue
            seen.add(id(cache))
            hits, misses = totals.get(label, (0, 0))
            totals[label] = (hits + cache.stats.hits,
                             misses + cache.stats.misses)
        mem.counter("bank_conflicts", "L1D bank queueing events") \
            .inc(hier.stats_bank_conflicts)
    for label in ("l1i", "l1d", "l2"):
        hits, misses = totals.get(label, (0, 0))
        mem.counter(f"{label}.hits", f"{label.upper()} hits").inc(hits)
        mem.counter(f"{label}.misses", f"{label.upper()} misses") \
            .inc(misses)
        accesses = hits + misses
        mem.set(f"{label}.miss_rate",
                misses / accesses if accesses else 0.0,
                desc=f"{label.upper()} miss rate")


def _collect_ring_detail(registry, stats, prefix):
    ring = registry.group(prefix)
    ring.counter("cycles", "cycles this ring ran").inc(stats.cycles)
    ring.counter("retired", "instructions retired").inc(stats.retired)
    ring.counter("squashed", "entries squashed by mispredicts") \
        .inc(stats.squashed)
    ring.counter("disabled_slots", "PEs disabled by PC mismatch") \
        .inc(stats.disabled_slots)
    ring.counter("lines_fetched", "I-lines fetched and decoded") \
        .inc(stats.lines_fetched)
    ring.counter("reuse.hits", "backward branches resolved by reuse") \
        .inc(stats.reuse_hits)
    ring.counter("reuse.misses", "backward branches that reloaded") \
        .inc(stats.reuse_misses)
    ring.counter("branches", "branches dispatched").inc(stats.branches)
    ring.counter("mispredicts", "mispredicted control flow") \
        .inc(stats.mispredicts)
    for reason, count in stats.stall_cycles.items():
        key = reason.value if hasattr(reason, "value") else str(reason)
        ring.counter(f"stall.{key}",
                     f"stall cycles attributed to {key}").inc(count)
    ring.counter("simt.regions", "pipelined simt regions entered") \
        .inc(stats.simt_regions)
    ring.counter("simt.threads", "simt thread contexts spawned") \
        .inc(stats.simt_threads)
    ring.counter("simt.instructions", "instructions retired in simt") \
        .inc(stats.simt_insts)
    util = ring.group("util")
    util.set("pe_active_cycles", stats.pe_active_cycles,
             desc="PE-cycles spent executing")
    util.set("fpu_active_cycles", stats.fpu_active_cycles,
             desc="PE-cycles spent on FP ops")
    util.set("resident_cluster_cycles", stats.resident_cluster_cycles,
             desc="cluster-cycles powered/resident")


def collect_diag(result, hierarchy=None, registry=None):
    """Registry for one DiAG run (a :class:`repro.core.RunResult`)."""
    registry = registry if registry is not None else StatsRegistry()
    stats = result.stats
    _collect_core(registry,
                  cycles=result.cycles,
                  instructions=stats.retired,
                  branches=stats.branches,
                  taken_branches=stats.taken_branches,
                  mispredicts=stats.mispredicts,
                  loads=stats.loads,
                  stores=stats.stores,
                  store_forwards=stats.store_forwards,
                  stall_cycles=stats.stall_cycles)
    for index, ring_stats in enumerate(result.thread_stats):
        _collect_ring_detail(registry, ring_stats, f"diag.ring{index}")
    if hierarchy is not None:
        collect_hierarchy(registry, hierarchy)
    registry.set("sim.halted", int(result.halted),
                 desc="1 = every thread reached ebreak/ecall")
    registry.set("sim.timed_out", int(result.timed_out),
                 desc="1 = the cycle budget expired first")
    return registry


def collect_ooo(result, hierarchies=None, registry=None):
    """Registry for one baseline run (a :class:`repro.core.RunResult`)."""
    registry = registry if registry is not None else StatsRegistry()
    stats = result.stats
    _collect_core(registry,
                  cycles=result.cycles,
                  instructions=stats.retired,
                  branches=stats.branches,
                  taken_branches=stats.taken_branches,
                  mispredicts=stats.mispredicts,
                  loads=stats.loads,
                  stores=stats.stores,
                  store_forwards=stats.store_forwards,
                  stall_cycles=stats.stall_cycles)
    ooo = registry.group("ooo")
    ooo.counter("fetched", "instructions fetched").inc(stats.fetched)
    ooo.counter("renames", "rename operations").inc(stats.renames)
    ooo.counter("issues", "instructions issued").inc(stats.issues)
    ooo.counter("rob.writes", "ROB entry allocations") \
        .inc(stats.rob_writes)
    ooo.set("rob.occupancy_avg",
            stats.rob_occupancy_sum / stats.cycles if stats.cycles
            else 0.0,
            desc="mean ROB entries live per cycle")
    ooo.counter("regfile.reads", "register-file read ports used") \
        .inc(stats.regfile_reads)
    ooo.counter("fu.busy_cycles", "FU-occupancy cycles") \
        .inc(stats.fu_cycles)
    ooo.counter("fpu.busy_cycles", "FP-pipe occupancy cycles") \
        .inc(stats.fpu_cycles)
    ooo.counter("fp_ops", "floating-point instructions") \
        .inc(stats.fp_ops)
    if hierarchies is not None:
        collect_hierarchy(registry, hierarchies)
    registry.set("sim.halted", int(result.halted),
                 desc="1 = every core reached ebreak/ecall")
    registry.set("sim.timed_out", int(result.timed_out),
                 desc="1 = the cycle budget expired first")
    return registry


def collect_iss(iss, registry=None):
    """Registry for one functional-ISS run (``iss.*`` namespace)."""
    registry = registry if registry is not None else StatsRegistry()
    stats = iss.stats
    grp = registry.group("iss")
    grp.counter("instructions", "instructions executed") \
        .inc(stats.instructions)
    grp.counter("loads", "load instructions").inc(stats.loads)
    grp.counter("stores", "store instructions").inc(stats.stores)
    grp.counter("branches", "conditional branches").inc(stats.branches)
    grp.counter("taken_branches", "branches taken") \
        .inc(stats.taken_branches)
    grp.counter("fp_ops", "floating-point instructions") \
        .inc(stats.fp_ops)
    grp.counter("simt_iterations", "simt_e loop iterations") \
        .inc(stats.simt_iterations)
    for mnemonic, count in sorted(stats.mnemonic_counts.items()):
        grp.counter(f"mnemonic.{mnemonic}",
                    f"dynamic {mnemonic} count").inc(count)
    return registry


def attach_tracer_names(tracer, machine, num_threads=1):
    """Label the trace's tracks for one machine (from its table entry)."""
    from repro.machines import MACHINES

    entry = MACHINES[machine]
    tracer.set_process(entry.pid, machine)
    for tid in range(num_threads):
        tracer.set_thread(entry.pid, tid, f"{entry.track}{tid}")
    return entry.pid
