#!/usr/bin/env python
"""CI ISS bench: functional fast-path throughput (docs/PERFORMANCE.md).

Measures three variants of the functional simulator on a store/load/
branch hot kernel plus the torture prescreen, and merges an ``iss``
section into ``BENCH_verify.json``:

* ``legacy_kips``   — the pre-superblock interpreter (mnemonic
  if-chain dispatch, dict-churn mnemonic counts, per-step hook
  checks), re-implemented below verbatim as the stable baseline;
* ``step_kips``     — the current scalar ``ISS.step`` loop (computed
  dispatch, slot counters);
* ``kips``          — the superblock path (``ISS.run``), the headline
  number and the gated one;
* ``prescreen_*``   — the torture prescreen (fresh programs, mostly
  below the superblock compile threshold) in programs/sec.

``--min-speedup N`` turns the superblock-vs-legacy ratio into a gate;
CI runs with ``--min-speedup 5``. The kernel runs as ``--reps``
adjacent legacy/superblock pairs, and the gated ``speedup`` is the
median of the pairs' ratios: the best of 3 reps per variant read
anywhere from 5.59x to 10.77x on one shared 2-vCPU host, so one slow
rep set could fail the gate. Every run is also a correctness check:
every run of every variant must halt at ebreak with one instruction
count.

Usage: ``python tools/bench_iss.py [-o BENCH_verify.json]``
(``src/`` is put on ``sys.path`` by ``benchkit``).
"""

import argparse
import json
import os
import sys
import time

from benchkit import exit_code, write_json  # puts src/ on sys.path

from repro.asm import assemble
from repro.iss import ISS
from repro.iss.semantics import compute, finish_load
from repro.iss.simulator import MASK32, HaltReason, SimError

KERNEL = """
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

TORTURE_SEED = 0
TORTURE_COUNT = 24


class LegacyISS(ISS):
    """The pre-superblock interpreter, preserved as the bench baseline.

    ``run`` and ``step`` are byte-for-byte the old hot loop: mnemonic
    string comparisons for dispatch, ``dict.get`` accumulation for the
    per-mnemonic histogram, and the trace/warm hooks tested on every
    step. Keeping it runnable (rather than an absolute KIPS floor)
    makes the ``--min-speedup`` gate portable across CI hosts.
    """

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
                (instr.is_branch or mnem in ("jal", "jalr")):
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


def _kernel(iters):
    return assemble(KERNEL.format(iters=iters))


def _time_run(iss, max_steps):
    start = time.perf_counter()
    reason = iss.run(max_steps=max_steps)
    seconds = time.perf_counter() - start
    if reason is not HaltReason.EBREAK:
        raise SystemExit(f"bench kernel did not halt: {reason}")
    return iss.stats.instructions, seconds


def _step_loop(iss, max_steps):
    start = time.perf_counter()
    while iss.halt_reason is None \
            and iss.stats.instructions < max_steps:
        iss.step()
    seconds = time.perf_counter() - start
    if iss.halt_reason is not HaltReason.EBREAK:
        raise SystemExit(
            f"bench kernel did not halt: {iss.halt_reason}")
    return iss.stats.instructions, seconds


def _kips(variant, iters, max_steps):
    """One timed run of ``variant``: (instructions, KIPS)."""
    insts, seconds = variant(iters, max_steps)
    return insts, insts / seconds / 1000.0 if seconds > 0 else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_verify.json",
                        help="JSON document to merge the iss section "
                             "into (created if missing)")
    parser.add_argument("--iters", type=int, default=120_000,
                        help="kernel loop iterations")
    parser.add_argument("--reps", type=int, default=3,
                        help="legacy/superblock pairs (and step-loop "
                             "runs); the gate takes the median pair")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless superblock KIPS >= this "
                             "multiple of the legacy interpreter "
                             "(default 0 = report only)")
    args = parser.parse_args(argv)
    max_steps = 20_000_000

    def legacy(n, m):
        return _time_run(LegacyISS(_kernel(n)), m)

    def step(n, m):
        return _step_loop(ISS(_kernel(n)), m)

    def superblock(n, m):
        return _time_run(ISS(_kernel(n)), m)

    variants = (("legacy", legacy), ("superblock", superblock),
                ("step", step))
    runs = {name: [] for name, _ in variants}
    for _ in range(args.reps):
        for name, variant in variants:
            runs[name].append(_kips(variant, args.iters, max_steps))
    for name, timed in runs.items():
        if len({insts for insts, _ in timed}) != 1:
            raise SystemExit(
                f"{name} retired {[insts for insts, _ in timed]} "
                f"across runs: not a deterministic kernel")
    # adjacent legacy/superblock runs form a pair; the pair holding
    # the median ratio reports its KIPS
    pairs = sorted(
        ((lg, sb) for (_, lg), (_, sb)
         in zip(runs["legacy"], runs["superblock"])),
        key=lambda pair: pair[1] / pair[0] if pair[0] else 0.0)
    legacy_kips, sb_kips = pairs[len(pairs) // 2]
    step_kips = sorted(kips for _, kips in runs["step"])[args.reps // 2]
    retired, step_retired, sb_retired = (
        runs[name][0][0] for name in ("legacy", "step", "superblock"))
    failures = []
    if not (retired == step_retired == sb_retired):
        failures.append(
            f"instruction counts diverge: legacy={retired} "
            f"step={step_retired} superblock={sb_retired}")

    # torture prescreen: the whole campaign program set
    from repro.verify.campaign import prescreen_programs
    pre = prescreen_programs(TORTURE_SEED, TORTURE_COUNT)
    if pre.anomalies:
        failures.append(f"prescreen anomalies: {pre.anomalies[:3]}")
    programs_per_sec = (pre.programs / pre.seconds
                        if pre.seconds > 0 else 0.0)

    speedup = sb_kips / legacy_kips if legacy_kips > 0 else 0.0
    print(f"iss: legacy {legacy_kips:.0f} KIPS, step "
          f"{step_kips:.0f} KIPS, superblock {sb_kips:.0f} KIPS "
          f"({speedup:.2f}x)")
    print(f"iss prescreen: {pre.programs} programs, "
          f"{pre.instructions} instructions, "
          f"{programs_per_sec:.1f} programs/s")
    if args.min_speedup and speedup < args.min_speedup:
        failures.append(f"superblock speedup {speedup:.2f}x < "
                        f"{args.min_speedup}x over legacy interpreter")

    section = {
        "iters": args.iters,
        "reps": args.reps,
        "retired": retired,
        "legacy_kips": round(legacy_kips, 1),
        "step_kips": round(step_kips, 1),
        "kips": round(sb_kips, 1),
        "speedup": round(speedup, 2),
        "speedups": sorted(round(sb / lg, 2) if lg else 0.0
                           for lg, sb in pairs),
        "prescreen_programs": pre.programs,
        "prescreen_programs_per_sec": round(programs_per_sec, 1),
    }
    doc = {}
    if os.path.exists(args.output):
        with open(args.output) as handle:
            doc = json.load(handle)
    doc["iss"] = section
    doc.setdefault("failures", [])
    doc["failures"] = [f for f in doc["failures"]
                       if not f.startswith("iss:")]
    doc["failures"].extend(f"iss: {line}" for line in failures)
    write_json(args.output, doc)
    return exit_code(failures)


if __name__ == "__main__":
    sys.exit(main())
