#!/usr/bin/env python
"""The bench driver: every speed gate as a named A/B check.

    python tools/bench.py [CHECK ...] [-o BENCH.json]

A check times a baseline A against a subject B, ``pairs`` times in one
process, each B run right after its A run. The check's ratio is the
median of the pairs' A-over-B time ratios. The check fails when that
median is below its threshold, or when any cell's equivalence check
fails in any pair, whatever the ratio. :data:`TABLE` holds one row per
check: threshold, pair count and the check's fixed inputs. The command
line takes only check names (none means every check) and ``-o``;
nothing in the table can be set from it.

Each check writes one object of one schema into the output document,
under its name: ``ratio``, ``ratios`` (every pair's, in run order),
``seconds`` (each pair's A and B seconds), ``threshold``,
``statistic``, ``pairs``, ``inputs``, ``a`` and ``b`` (what was
timed), ``equivalence`` (cell name to bool) and ``failures``. Every
failure is also a ``FAIL:`` line on stderr, and the exit code is 1
when there is any (docs/PERFORMANCE.md §6).

Importing this module puts the checkout's ``src/`` on ``sys.path``,
so a script run as ``python tools/<name>.py`` imports ``repro``
without an install; the other tools take ``REPO``, ``SRC`` and
:func:`exit_code` from here.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# The ISS and the assembler load without numpy; the checks import the
# rest of ``repro`` when they run, since ``perf_history.py`` imports
# this module on hosts that have no numpy.
from repro.asm import assemble  # noqa: E402
from repro.iss import ISS  # noqa: E402
from repro.iss.semantics import compute, finish_load  # noqa: E402
from repro.iss.simulator import MASK32, HaltReason, SimError  # noqa: E402


def exit_code(failures):
    """Print every failure as a ``FAIL:`` line on stderr; the
    script's exit code (1 when there is any failure)."""
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


# A pair function runs one A/B pair and returns ``(a_seconds,
# b_seconds, cells)``, where ``cells`` maps each cell's name to None
# when the cell passed its equivalence check and to what went wrong
# when it did not. Its keyword arguments are its row's ``inputs``.

# ------------------------------------------------------------- engine
# Event-driven cycle skipping against ticking, on both engines, with a
# deliberately harsh memory system so that long quiescent stall spans
# dominate: the regime fast-forward is built for. Per cell, FF on and
# off must halt, verify, retire the same instructions in the same
# cycles, and the ticked run must skip nothing.

def _harsh_timings(dram):
    from repro.memory.hierarchy import MemTimings
    return MemTimings(l1i_hit=2, l1d_hit=20, l2_hit=120, dram=dram,
                      bank_occupancy=8)


def _run_diag(inst, fast_forward, l1d_size, dram):
    from repro.core import F4C2, DiAGProcessor
    cfg = F4C2.with_overrides(fast_forward=fast_forward,
                              mem_timings=_harsh_timings(dram),
                              l1d_size=l1d_size)
    proc = DiAGProcessor(cfg, inst.program)
    inst.setup(proc.memory)
    start = time.perf_counter()
    result = proc.run()
    seconds = time.perf_counter() - start
    skipped = sum(r.ff_skipped_cycles for r in proc.rings)
    return seconds, result, proc.memory, skipped


def _run_ooo(inst, fast_forward, l1d_size, dram):
    from repro.baseline import OoOConfig, OoOCore
    from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
    cfg = OoOConfig(fast_forward=fast_forward)
    base = cfg.hierarchy_config()
    hierarchy = MemoryHierarchy(HierarchyConfig(
        l1i_size=base.l1i_size, l1i_ways=base.l1i_ways,
        l1d_size=l1d_size, l1d_ways=base.l1d_ways,
        l2_size=base.l2_size, timings=_harsh_timings(dram)))
    core = OoOCore(cfg, inst.program, hierarchy=hierarchy)
    inst.setup(core.hierarchy.memory)
    start = time.perf_counter()
    result = core.run()
    seconds = time.perf_counter() - start
    return (seconds, result, core.hierarchy.memory,
            core.ff_skipped_cycles)


def engine_pair(workloads, scale, l1d_size, dram):
    """A: every (workload, engine) cell ticked; B: the same cells
    fast-forwarded, each right after its ticked run."""
    from repro.workloads import get_workload
    seconds = {False: 0.0, True: 0.0}
    cells = {}
    for machine, runner in (("diag", _run_diag), ("ooo", _run_ooo)):
        for workload in workloads:
            runs = []
            for ff in (False, True):
                inst = get_workload(workload)().build(
                    scale=scale, threads=1, simt=False)
                took, result, memory, skipped = runner(
                    inst, ff, l1d_size, dram)
                seconds[ff] += took
                runs.append((result, skipped, result.halted
                             and bool(inst.verify(memory))))
            (off, off_skipped, off_ok), (on, __, on_ok) = runs
            problem = None
            if not (off_ok and on_ok):
                problem = (f"halted and verified: ticked {off_ok}, "
                           f"fast-forward {on_ok}")
            elif (on.cycles, on.instructions) \
                    != (off.cycles, off.instructions):
                problem = (f"fast-forward diverges from ticked "
                           f"({on.cycles} vs {off.cycles} cycles)")
            elif off_skipped:
                problem = (f"ticked run reported {off_skipped} "
                           "skipped cycles")
            cells[f"{workload}.{machine}"] = problem
    return seconds[False], seconds[True], cells


# ---------------------------------------------------------------- iss
# The superblock ISS against the pre-superblock interpreter, kept
# runnable here as the baseline: a ratio to it, not an absolute KIPS
# floor, makes the gate portable across hosts. Both must halt at
# ebreak having retired the same instructions, and an untimed run of
# each with a line trace attached must leave the same trace.

ISS_KERNEL = """
    .text
main:
    li   x5, 0
    li   x6, {iters}
    li   x7, 0x1000
loop:
    addi x5, x5, 1
    xor  x8, x5, x6
    slli x9, x5, 3
    add  x10, x8, x9
    sw   x10, 0(x7)
    lw   x12, 0(x7)
    sltu x13, x5, x6
    bne  x5, x6, loop
    ebreak
"""

#: step cap of every kernel run; the kernel retires far fewer
ISS_MAX_STEPS = 20_000_000

#: the untimed recorder run's kernel: its store and load pointers walk
#: two arrays at different strides, so every touch decides the order
#: of the lines a small ``LineTrace`` keeps
ISS_WARM_KERNEL = """
    .text
main:
    li   x5, 0
    li   x6, 1000
    li   x7, 0x10000
    li   x14, 0x20000
loop:
    addi x5, x5, 1
    xor  x8, x5, x6
    sw   x8, 0(x7)
    lw   x12, 0(x14)
    add  x10, x10, x12
    addi x7, x7, 20
    addi x14, x14, 36
    bne  x5, x6, loop
    ebreak
"""


class LegacyISS(ISS):
    """The pre-superblock interpreter, kept as the ``iss`` baseline.

    ``run`` and ``step`` are byte-for-byte the old hot loop: mnemonic
    string comparisons for dispatch, ``dict.get`` accumulation for the
    per-mnemonic histogram, and the trace/warm hooks tested on every
    step. One change: a recorder without ``branch`` (a ``LineTrace``)
    is fed data accesses only, as ``ISS`` feeds it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.legacy_counts = {}

    def run(self, max_steps=5_000_000):
        if self.halt_reason is HaltReason.MAX_STEPS:
            self.halt_reason = None
        while self.halt_reason is None:
            if self.stats.instructions >= max_steps:
                self.halt_reason = HaltReason.MAX_STEPS
                break
            self.step()
        return self.halt_reason

    def step(self):
        if self._pending_interrupt is not None:
            self.csrs[0x341] = self.pc & MASK32
            self.pc = self._pending_interrupt
            self._pending_interrupt = None
        instr = self.program.instruction_at(self.pc)
        if instr is None:
            raise SimError(f"no instruction at pc={self.pc:#010x}")
        if self.trace is not None:
            self.trace(self.pc, instr)
        self._legacy_count(instr)
        mnem = instr.mnemonic
        if mnem == "ebreak":
            self.halt_reason = HaltReason.EBREAK
            return
        if mnem == "ecall":
            self.halt_reason = HaltReason.ECALL
            return
        if mnem == "simt_s":
            self._simt_start(instr)
            self.pc += 4
            return
        if mnem == "simt_e":
            self._simt_end(instr)
            return
        if mnem.startswith("csr"):
            self._csr_op(instr)
            self.pc += 4
            return

        info = instr.info
        rs1 = (self.f[instr.rs1] if info.rs1_file == "f"
               else self.x[instr.rs1]) if info.rs1_file else 0
        rs2 = (self.f[instr.rs2] if info.rs2_file == "f"
               else self.x[instr.rs2]) if info.rs2_file else 0
        rs3 = self.f[instr.rs3] if info.rs3_file == "f" else 0
        result = compute(instr, self.pc, rs1, rs2, rs3)

        if result.mem_addr is not None:
            if self.warm_trace is not None:
                self.warm_trace.touch(result.mem_addr)
            if result.store_value is not None:
                self.memory.store(result.mem_addr, result.store_value,
                                  result.mem_size)
            else:
                raw = self.memory.load(result.mem_addr, result.mem_size)
                result.value = finish_load(instr, raw)

        if result.value is not None and info.rd_file is not None:
            if info.rd_file == "f":
                self.f[instr.rd] = result.value & MASK32
            else:
                self.write_x(instr.rd, result.value)

        if self.warm_trace is not None and \
                (instr.is_branch or mnem in ("jal", "jalr")) and \
                hasattr(self.warm_trace, "branch"):
            self.warm_trace.branch(self.pc, instr, result.taken,
                                   result.target)

        if result.taken:
            if instr.is_branch:
                self.stats.taken_branches += 1
            self.pc = result.target
        else:
            self.pc += 4

    def _legacy_count(self, instr):
        stats = self.stats
        stats.instructions += 1
        if instr.is_load:
            stats.loads += 1
        elif instr.is_store:
            stats.stores += 1
        elif instr.is_branch:
            stats.branches += 1
        if instr.is_fp:
            stats.fp_ops += 1
        counts = self.legacy_counts
        counts[instr.mnemonic] = counts.get(instr.mnemonic, 0) + 1


#: what ``iss`` compares between the two runs, in outcome order
ISS_OUTCOME = ("halt reason", "retired", "pc", "x", "f",
               "mnemonic counts", "warm lines")


def iss_pair(iters):
    """A: the legacy interpreter on the hot kernel; B: ``ISS.run``
    (superblocks and loop regions) on a fresh copy of it. Both must
    end in the same architectural state with the same per-mnemonic
    counts (the legacy loop keeps them as a dict), and an untimed run
    of each on :data:`ISS_WARM_KERNEL` with a ``LineTrace(64, 64)``
    attached must leave the same lines in the same order."""
    from repro.sampling import LineTrace
    seconds, outcomes = [], []
    for cls in (LegacyISS, ISS):
        iss = cls(assemble(ISS_KERNEL.format(iters=iters)))
        start = time.perf_counter()
        reason = iss.run(max_steps=ISS_MAX_STEPS)
        seconds.append(time.perf_counter() - start)
        counts = iss.legacy_counts if cls is LegacyISS \
            else iss.stats.mnemonic_counts
        warm = cls(assemble(ISS_WARM_KERNEL))
        warm.warm_trace = LineTrace(64, 64)
        warm.run(max_steps=ISS_MAX_STEPS)
        outcomes.append((reason.name, iss.stats.instructions, iss.pc,
                         list(iss.x), list(iss.f), counts,
                         list(warm.warm_trace)))
    legacy, superblock = outcomes
    problem = None
    if legacy != superblock or legacy[0] != HaltReason.EBREAK.name:
        differ = [name for name, a, b in zip(ISS_OUTCOME, legacy,
                                             superblock) if a != b]
        problem = (f"legacy {legacy[:3]} vs superblock {superblock[:3]} "
                   f"(halt reason, retired, pc); differ: "
                   f"{', '.join(differ) or 'none'}")
    return seconds[0], seconds[1], {"kernel": problem}


# ------------------------------------------------------ parallel, cache
# One smoke sweep of both engines through ``run_specs``. ``parallel``
# times it serial against a process pool, both cold with no disk
# cache; every cell must verify and both must give the same records.
# ``cache`` times it serial into a cold disk cache against a re-run
# served from that cache; the cached records must equal the fresh.

def _smoke_specs(diag, ooo, config, scale):
    from repro.harness import RunSpec
    return ([RunSpec.diag(name, config=config, scale=scale)
             for name in diag]
            + [RunSpec.ooo(name, scale=scale) for name in ooo])


def _timed(run, *args, **kwargs):
    """``(seconds, result)`` of one ``run`` from cold in-process caches."""
    from repro.harness import clear_cache
    clear_cache()
    start = time.perf_counter()
    result = run(*args, **kwargs)
    return time.perf_counter() - start, result


def _same_record(a, b):
    from repro.obs import deterministic_view
    return (deterministic_view(a.stats) == deterministic_view(b.stats)
            and a.status == b.status and a.ipc == b.ipc)


def parallel_pair(diag, ooo, config, scale, jobs):
    """A: the sweep serial; B: the sweep on ``jobs`` pool workers."""
    from repro.harness import aggregate_stats, diskcache, run_specs
    specs = _smoke_specs(diag, ooo, config, scale)
    diskcache.configure(None)
    serial_s, serial = _timed(run_specs, specs, jobs=1)
    pooled_s, pooled = _timed(run_specs, specs, jobs=jobs)
    cells = {}
    for spec, ser, par in zip(specs, serial, pooled):
        problem = None
        if ser.failed or not ser.verified:
            problem = f"serial status={ser.status} verified={ser.verified}"
        elif not _same_record(ser, par):
            problem = "serial and pooled runs diverge"
        cells[f"{spec.workload}.{spec.machine}"] = problem
    cells["aggregate"] = None if (
        aggregate_stats(serial, deterministic=True)
        == aggregate_stats(pooled, deterministic=True)) \
        else "merged stats documents diverge"
    return serial_s, pooled_s, cells


def cache_pair(diag, ooo, config, scale):
    """A: the sweep serial, writing through a fresh disk cache; B: the
    same sweep read back from it."""
    from repro.harness import diskcache, run_specs
    specs = _smoke_specs(diag, ooo, config, scale)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        diskcache.configure(cache_dir)
        try:
            cold_s, cold = _timed(run_specs, specs, jobs=1)
            warm_s, warm = _timed(run_specs, specs, jobs=1)
        finally:
            diskcache.reset()
    cells = {}
    for spec, fresh, cached in zip(specs, cold, warm):
        problem = None
        if fresh.failed or not fresh.verified:
            problem = (f"cold status={fresh.status} "
                       f"verified={fresh.verified}")
        elif not _same_record(fresh, cached):
            problem = "cached record diverges from fresh run"
        cells[f"{spec.workload}.{spec.machine}"] = problem
    return cold_s, warm_s, cells


# ----------------------------------------------------------- sampling
# Full-detail runs against sampled runs (ISS fast path plus periodic
# detailed windows) on both machines. A fast wrong answer fails: both
# runs must verify, and the full-detail IPC must fall within the
# sampled estimate's 95% confidence interval.

def sampling_pair(workloads, scale, diag_config, period, window, warmup):
    """A: every (workload, machine) cell in full detail; B: the same
    cells sampled, each right after its full-detail run."""
    from repro.harness import diskcache
    from repro.harness.runner import run_machine
    from repro.machines import MACHINES
    from repro.sampling import SamplingParams, run_sampled
    params = SamplingParams(period=period, window=window, warmup=warmup)
    diskcache.configure(None)  # the seconds must measure simulation
    full_total = sampled_total = 0.0
    cells = {}
    for machine in MACHINES:
        config = diag_config if diag_config in MACHINES[machine].presets \
            else None
        for workload in workloads:
            full_s, full = _timed(run_machine, machine, workload,
                                  config=config, scale=scale)
            sampled_s, sampled = _timed(run_sampled, workload,
                                        machine=machine, config=config,
                                        scale=scale, params=params)
            full_total += full_s
            sampled_total += sampled_s
            mean = sampled.stat("sampling.ipc_mean")
            ci = sampled.stat("sampling.ipc_ci95")
            problem = None
            for label, record in (("full-detail", full),
                                  ("sampled", sampled)):
                if record.status != "ok" or not record.verified:
                    problem = (f"{label} run failed "
                               f"({record.status}: {record.error})")
            if problem is None and not abs(mean - full.ipc) <= ci:
                problem = (f"full IPC {full.ipc:.4f} outside sampled "
                           f"{mean:.4f} +/- {ci:.4f}")
            cells[f"{workload}.{machine}"] = problem
    return full_total, sampled_total, cells


# -------------------------------------------------------------- table

@dataclass(frozen=True)
class Check:
    """One row of :data:`TABLE`: a gate and how to measure it."""

    pair: Callable       # one A/B pair: inputs -> (a_s, b_s, cells)
    threshold: float     # the median pair ratio must reach this
    pairs: int           # adjacent A/B pairs per run
    a: str               # what A times
    b: str               # what B times
    inputs: dict = field(default_factory=dict)


#: the smoke sweep of the ``parallel`` and ``cache`` checks
SWEEP = {"diag": ("nn", "hotspot", "srad", "bfs", "kmeans", "lbm"),
         "ooo": ("nn", "hotspot", "srad", "bfs"),
         "config": "F4C16", "scale": 0.5}

TABLE = {
    "engine": Check(
        engine_pair, 1.5, 7, "ticked", "fast-forward",
        {"workloads": ("lbm", "mcf", "srad"), "scale": 1.0,
         "l1d_size": 4096, "dram": 1200}),
    "iss": Check(
        iss_pair, 5.0, 3, "legacy interpreter", "superblock ISS",
        {"iters": 120_000}),
    "parallel": Check(
        parallel_pair, 1.2, 5, "serial sweep", "pooled sweep",
        dict(SWEEP, jobs=2)),
    "cache": Check(
        cache_pair, 5.0, 3, "cold disk cache", "warm disk cache",
        dict(SWEEP)),
    "sampling": Check(
        sampling_pair, 5.0, 3, "full detail", "sampled",
        {"workloads": ("bfs", "streamcluster"), "scale": 4.0,
         "diag_config": "F4C2", "period": 25_000, "window": 1_000,
         "warmup": 1_000}),
}


# ------------------------------------------------------------- driver

def judge(check, seconds, cells_per_pair):
    """The result object of a check from its pairs' seconds and cells.

    ``seconds`` holds one ``(a_seconds, b_seconds)`` per pair and
    ``cells_per_pair`` one cells dict per pair. A cell is equivalent
    when it passed in every pair; each failure names the pair."""
    ratios = [a / b if b > 0 else 0.0 for a, b in seconds]
    ratio = statistics.median(ratios)
    failures, equivalence = [], {}
    for index, cells in enumerate(cells_per_pair, 1):
        for cell, problem in cells.items():
            equivalence[cell] = equivalence.get(cell, True) \
                and problem is None
            if problem is not None:
                failures.append(f"{cell} (pair {index}): {problem}")
    if ratio < check.threshold:
        failures.append(f"median {check.a}/{check.b} ratio "
                        f"{ratio:.3f}x < required {check.threshold}x")
    return {
        "ratio": round(ratio, 3),
        "ratios": [round(r, 3) for r in ratios],
        "seconds": [[round(a, 4), round(b, 4)] for a, b in seconds],
        "threshold": check.threshold,
        "statistic": f"median of {len(ratios)} adjacent A/B pair ratios",
        "pairs": len(ratios),
        "inputs": check.inputs,
        "a": check.a,
        "b": check.b,
        "equivalence": equivalence,
        "failures": failures,
    }


def run_check(name, check):
    """Run ``check``'s pairs, printing each under ``name``; its
    result object."""
    seconds, cells_per_pair = [], []
    for index in range(check.pairs):
        a_s, b_s, cells = check.pair(**check.inputs)
        seconds.append((a_s, b_s))
        cells_per_pair.append(cells)
        print(f"{name} pair {index + 1}/{check.pairs}: {check.a} "
              f"{a_s:.2f}s, {check.b} {b_s:.2f}s "
              f"({a_s / b_s if b_s > 0 else 0.0:.3f}x)", flush=True)
    result = judge(check, seconds, cells_per_pair)
    print(f"{name}: {result['ratio']}x ({result['statistic']}; "
          f"threshold {check.threshold}x)"
          f"{'' if not result['failures'] else ' FAILED'}", flush=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run named A/B speed checks, each gated on its "
                    "median pair ratio (docs/PERFORMANCE.md §6).")
    parser.add_argument("checks", nargs="*", metavar="CHECK",
                        help=f"checks to run, of {', '.join(TABLE)} "
                             "(default: all)")
    parser.add_argument("-o", "--output", default="BENCH.json")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.checks) - set(TABLE))
    if unknown:
        parser.error(f"unknown check(s): {', '.join(unknown)}")
    doc = {name: run_check(name, TABLE[name])
           for name in args.checks or TABLE}
    with open(args.output, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return exit_code([f"{name}: {line}" for name, result in doc.items()
                      for line in result["failures"]])


if __name__ == "__main__":
    sys.exit(main())
