"""Thread-level pipelining (paper Sections 4.4 and 5.4).

``simt_s rc, r_step, r_end, interval`` ... ``simt_e rc, r_end`` bracket
a parallelizable loop. Each iteration becomes a *thread* carrying its
own register-file context (the spawning context with only the control
register ``rc`` changed) through cluster-granularity pipeline stages —
pipeline registers exist between clusters, not between PEs (Figure 7).

Applicability constraints (Section 4.4.3), checked statically by
:func:`analyze_simt_regions`:

* the whole body must fit in the ring's PEs;
* no backward jumps or branches inside the body (no nested loops);
* forward branches are fine — each thread carries its own PC and PEs
  with mismatching addresses are nullified for that thread.

Regions that fail the checks are executed sequentially by the ring
engine, with ``simt_e`` acting as a backward branch.
"""

from dataclasses import dataclass, field

from repro.iss.semantics import compute, finish_load

MASK32 = 0xFFFFFFFF


@dataclass
class SimtRegion:
    """Static description of one simt_s..simt_e region."""

    simt_s_addr: int
    start_addr: int           # first body instruction
    end_addr: int             # address of the simt_e
    body: list = field(default_factory=list)  # (addr, Instruction)
    pipelineable: bool = False
    reject_reason: str = None
    clusters_needed: int = 1  # clusters per pipeline copy

    @property
    def body_length(self):
        return len(self.body)


def _signed(value):
    return value - 0x100000000 if value & 0x80000000 else value


def analyze_simt_regions(program, config):
    """Scan the program for simt regions; returns {addr: SimtRegion}
    keyed by *both* the simt_s and simt_e addresses."""
    regions = {}
    addrs = sorted(program.listing)
    index_of = {addr: i for i, addr in enumerate(addrs)}
    for addr in addrs:
        instr = program.listing[addr]
        if instr.mnemonic != "simt_s":
            continue
        region = _scan_region(program, addrs, index_of[addr], config)
        if region is None:
            continue
        regions[region.simt_s_addr] = region
        regions[region.end_addr] = region
    return regions


def _scan_region(program, addrs, start_index, config):
    simt_s_addr = addrs[start_index]
    depth = 0
    body = []
    end_addr = None
    nested = False
    for i in range(start_index + 1, len(addrs)):
        addr = addrs[i]
        instr = program.listing[addr]
        if instr.mnemonic == "simt_s":
            depth += 1
            nested = True
        elif instr.mnemonic == "simt_e":
            if depth == 0:
                end_addr = addr
                break
            depth -= 1
        body.append((addr, instr))
    if end_addr is None:
        return None
    region = SimtRegion(simt_s_addr=simt_s_addr,
                        start_addr=simt_s_addr + 4,
                        end_addr=end_addr, body=body)
    region.pipelineable, region.reject_reason = _check_pipelineable(
        region, config, nested)
    line = config.line_bytes
    first_line = region.start_addr - (region.start_addr % line)
    last_line = region.end_addr - (region.end_addr % line)
    region.clusters_needed = (last_line - first_line) // line + 1
    return region


def _check_pipelineable(region, config, nested):
    if nested:
        return False, "nested simt region"
    line = config.line_bytes
    first_line = region.start_addr - (region.start_addr % line)
    last_line = region.end_addr - (region.end_addr % line)
    stages = (last_line - first_line) // line + 1
    if stages > config.num_clusters:
        return False, (f"body spans {stages} lines > "
                       f"{config.num_clusters} clusters")
    for addr, instr in region.body:
        if instr.mnemonic in ("jalr", "ecall", "ebreak", "fence"):
            return False, f"{instr.mnemonic} inside region"
        if instr.mnemonic == "jal" and instr.rd != 0:
            return False, "call inside region"
        if instr.is_branch or instr.mnemonic == "jal":
            if instr.imm <= 0:
                return False, "backward branch inside region"
            target = addr + instr.imm
            if target > region.end_addr:
                return False, "branch escapes region"
    return True, None


@dataclass
class SimtOutcome:
    finish_cycle: int
    threads: int
    instructions: int
    final_rc: int
    avg_active_pes: float
    avg_active_fpus: float


class SimtExecutor:
    """Execute one pipelineable region with thread-level pipelining.

    Functionally each thread executes its body sequentially; the timing
    model applies the classic pipeline recurrence over cluster-aligned
    stages with per-thread per-stage service times derived from the
    intra-stage dataflow (dependence chains + memory latencies).
    """

    def __init__(self, config, hierarchy, program, region, arch,
                 stats=None, tracer=None, trace_ids=(0, 0)):
        self.config = config
        self.hierarchy = hierarchy
        self.program = program
        self.region = region
        self.arch = arch
        self.stats = stats
        #: optional repro.obs.EventTracer + (pid, tid) track to emit
        #: per-thread start/stop events on
        self.tracer = tracer
        self.trace_ids = trace_ids
        self._bank_busy = {}
        # per (copy, stage) cluster LSU last-line buffers: consecutive
        # threads touch adjacent addresses, so most accesses hit the
        # cluster's previously-fetched line (Section 5.2), exactly as
        # in sequential mode.
        self._stage_last_line = {}
        # Pipeline stages are 8-PE lane *segments*: Section 6.1.2 puts a
        # full register buffer on all lanes every ``lane_buffer_every``
        # PEs (plus one between clusters), and those buffers double as
        # the thread pipeline registers of Section 4.4. Each segment
        # holds one thread's wave at a time.
        seg_bytes = 4 * config.lane_buffer_every
        first_seg = region.start_addr - (region.start_addr % seg_bytes)
        self.stages = []
        stage = []
        current_seg = first_seg
        for addr, instr in region.body:
            addr_seg = addr - (addr % seg_bytes)
            while addr_seg != current_seg:
                self.stages.append(stage)
                stage = []
                current_seg += seg_bytes
            stage.append((addr, instr))
        self.stages.append(stage)
        #: clusters one pipeline copy occupies (for replication math)
        segs_per_cluster = max(1, config.pes_per_cluster
                               // config.lane_buffer_every)
        self.clusters_needed = -(-len(self.stages) // segs_per_cluster)

    # ----------------------------------------------------------- running

    def run(self, start_cycle, rc_value_step_end):
        rc0, step, end = rc_value_step_end
        rcs = self._thread_rcs(rc0, step, end)
        rc_index = self.program.instruction_at(self.region.simt_s_addr).rd
        interval = max(1, self._interval())
        n_stages = len(self.stages)

        # Spatial replication (Section 4.4.1): when the body occupies
        # fewer clusters than the ring owns, the pipeline is replicated
        # to maximize PE utilization; threads are dealt round-robin.
        copies = max(1, self.config.num_clusters // self.clusters_needed)
        copies = min(copies, len(rcs))
        fill = (start_cycle + self.clusters_needed * copies
                * self.config.simt_fill_cost_per_stage)

        # prev_exit[c][s]: when stage s of pipeline copy c frees up.
        prev_exit = [[fill] * n_stages for _ in range(copies)]
        total_instrs = 0
        busy_pe_cycles = 0.0
        busy_fpu_cycles = 0.0
        finish = fill
        block = -(-len(rcs) // copies)  # threads per pipeline copy
        for t, rc in enumerate(rcs):
            # Iterations are dealt to pipeline copies in contiguous
            # blocks (static loop scheduling): each copy sweeps a
            # contiguous address range, so its cluster line buffers and
            # store write-combining keep their locality.
            copy_index = t // block
            copy = prev_exit[copy_index]
            context = _ThreadContext(self.arch, rc_index, rc,
                                     self.region.start_addr)
            # Thread t is spawned at its interval slot and enters
            # stage 0 of its pipeline copy once that stage is free;
            # copies progress independently.
            spawn = fill + t * interval
            enter = max(spawn, copy[0])
            for s, stage in enumerate(self.stages):
                enter = max(enter, copy[s])
                service, instrs, pe_cyc, fpu_cyc = self._run_stage(
                    context, stage, enter, lsu_key=(copy_index, s))
                exit_cycle = enter + max(1, service)
                copy[s] = exit_cycle
                enter = exit_cycle
                total_instrs += instrs
                busy_pe_cycles += pe_cyc
                busy_fpu_cycles += fpu_cyc
            total_instrs += 1  # the simt_e "stage" retiring the thread
            finish = max(finish, enter)
            if self.tracer is not None:
                pid, tid = self.trace_ids
                self.tracer.instant("simt_thread_start", spawn,
                                    pid=pid, tid=tid,
                                    args={"thread": t, "rc": rc})
                self.tracer.instant("simt_thread_stop", enter,
                                    pid=pid, tid=tid,
                                    args={"thread": t})
        span = max(1, finish - start_cycle)
        outcome = SimtOutcome(
            finish_cycle=finish,
            threads=len(rcs),
            instructions=total_instrs,
            final_rc=rcs[-1] & MASK32,
            avg_active_pes=busy_pe_cycles / span,
            avg_active_fpus=busy_fpu_cycles / span,
        )
        # The last thread's register lanes propagate onward (Section 5.4
        # simt_e semantics); the ring engine then writes the final rc.
        self._writeback_context(context)
        return outcome

    def _interval(self):
        simt_s = self.program.instruction_at(self.region.simt_s_addr)
        return simt_s.imm if simt_s is not None else 1

    def _thread_rcs(self, rc0, step, end):
        step_s, end_s = _signed(step), _signed(end)
        rcs = [_signed(rc0)]
        if step_s == 0:
            return rcs
        nxt = rcs[0] + step_s
        while (nxt < end_s) if step_s > 0 else (nxt > end_s):
            rcs.append(nxt)
            nxt += step_s
        return rcs

    # ------------------------------------------------------------ stages

    def _run_stage(self, context, stage, enter_cycle, lsu_key=None):
        """Execute one thread's instructions in one stage.

        Returns (service_cycles, executed_count, pe_cycles, fpu_cycles).
        """
        value_time = {}
        latest = enter_cycle
        executed = 0
        pe_cycles = 0.0
        fpu_cycles = 0.0
        for addr, instr in stage:
            if context.pc != addr:
                continue  # nullified by the thread's PC lane
            start = enter_cycle
            facts = instr.facts
            for lane in facts.sources:
                start = max(start, value_time.get(lane, enter_cycle))
            latency, dest_value, taken_target = self._execute(
                context, instr, addr, start, lsu_key)
            finish = start + latency
            executed += 1
            pe_cycles += latency
            if facts.is_fp:
                fpu_cycles += latency
            dest = facts.dest
            if dest is not None:
                value_time[dest] = finish + 1  # lane propagation
                context.write(dest[0], dest[1], dest_value)
            latest = max(latest, finish)
            context.pc = taken_target if taken_target is not None \
                else addr + 4
        return latest - enter_cycle, executed, pe_cycles, fpu_cycles

    def _execute(self, context, instr, addr, start, lsu_key=None):
        """Functional + timing execution of one instruction."""
        # source_slots aligns operands positionally (facts.sources
        # elides x0 reads; elided slots read the hard-wired zero)
        facts = instr.facts
        rs1, rs2, rs3 = (context.read(*slot) if slot is not None else 0
                         for slot in facts.source_slots)
        result = compute(instr, addr, rs1, rs2, rs3)
        if result.mem_addr is not None:
            if result.store_value is not None:
                self.hierarchy.memory.store(result.mem_addr,
                                            result.store_value,
                                            result.mem_size)
                # Stores are handed to the cluster LSU and drain in the
                # background (as in sequential mode); the thread only
                # stalls when the queue runs far ahead of the banks.
                full = self._mem_latency(result.mem_addr, start,
                                         lsu_key, is_write=True)
                capacity = (self.config.lsu_queue_depth
                            * self.hierarchy.config.timings.bank_occupancy)
                latency = (self.config.cluster_buffer_latency
                           + max(0, full - capacity))
                if self.stats is not None:
                    self.stats.stores += 1
                return max(1, latency), None, None
            raw = self.hierarchy.memory.load(result.mem_addr,
                                             result.mem_size)
            latency = self._mem_latency(result.mem_addr, start, lsu_key)
            if self.stats is not None:
                self.stats.loads += 1
            return max(1, latency), finish_load(instr, raw), None
        target = result.target if result.taken else None
        return facts.latency, result.value, target

    def _mem_latency(self, addr, start, lsu_key=None, is_write=False):
        """Memory latency seen by a pipelined thread.

        Reads that hit the owning cluster's last-line buffer cost the
        buffer latency (Section 5.2) without touching the banks. Other
        accesses go to the banked L1D with a *local* bank-occupancy
        model: the pipeline schedule is computed ahead of global time,
        so queueing is tracked per-executor instead of mutating the
        shared hierarchy timestamps (which would starve other rings).
        """
        line = addr // self.config.line_bytes
        if lsu_key is not None:
            # Recently-touched lines live in the cluster's memory lanes
            # / line buffers (set-associative, Section 5.2): loads hit
            # them directly and stores write-combine into them.
            recent = self._stage_last_line.setdefault(lsu_key, [])
            if line in recent:
                return self.config.cluster_buffer_latency
        # Bank contention, time-bucketed: the pipeline recurrence
        # visits threads in program order but their absolute times
        # interleave across pipeline copies, so a busy-until timestamp
        # would be order-of-processing dependent (non-causal). Instead
        # each bank serves bucket/occupancy requests per time bucket;
        # the excess in a bucket queues.
        occupancy = self.hierarchy.config.timings.bank_occupancy
        bucket_cycles = 8
        bank = self.hierarchy.bank_of(addr)
        key = (bank, start // bucket_cycles)
        count = self._bank_busy.get(key, 0)
        self._bank_busy[key] = count + 1
        capacity = max(1, bucket_cycles // occupancy)
        queue_delay = max(0, (count + 1 - capacity) * occupancy)
        if lsu_key is not None:
            recent.append(line)
            if len(recent) > 4:
                recent.pop(0)
        return queue_delay + self.hierarchy.cache_access_latency(
            addr, is_write=is_write)

    def _writeback_context(self, context):
        for (regfile, index), value in context.dirty.items():
            self.arch.write(regfile, index, value)


class _ThreadContext:
    """Register context of one pipelined thread (copy-on-write).

    Per paper Section 5.4, a spawned thread retains the spawning
    register file except for the control register ``rc``.
    """

    __slots__ = ("arch", "dirty", "pc")

    def __init__(self, arch, rc_index, rc_value, start_pc):
        self.arch = arch
        self.dirty = {("x", rc_index): rc_value & MASK32}
        self.pc = start_pc

    def read(self, regfile, index):
        key = (regfile, index)
        if key in self.dirty:
            return self.dirty[key]
        return self.arch.read(regfile, index)

    def write(self, regfile, index, value):
        if value is None:
            return
        if regfile == "x" and index == 0:
            return
        self.dirty[(regfile, index)] = value & MASK32
