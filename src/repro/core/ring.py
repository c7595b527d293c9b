"""The dataflow ring engine: DiAG's execution core for one hardware thread.

This is the cycle-level model of Sections 4 and 5 of the paper:

* Instructions are assigned to PEs strictly in program order, one
  64-byte I-line per cluster (Section 5.1.1). The in-flight set of PE
  entries forms a *window* whose producer/consumer links are exactly
  the register lanes — each reader is wired to the youngest older
  writer of its lane, so renaming/issue/dispatch never happen
  explicitly (Table 1).
* A PE begins executing the moment its source lanes are valid
  (Section 4.1); WAR/WAW hazards cannot occur (Section 4.2).
* The PC lane retires entries in order like a reorder buffer
  (Section 5.1.4); branch shadows and unaligned entry points leave PEs
  *disabled* by PC mismatch (Section 4.3, Figure 6).
* Backward branches whose target line is still resident re-activate
  the existing cluster — datapath reuse with no fetch or decode
  (Section 4.3.2, Figure 4).
* ``simt_s``/``simt_e`` regions that satisfy the Section 4.4.3
  constraints are handed to the thread pipeliner in
  :mod:`repro.core.simt`; otherwise they fall back to sequential loop
  execution with ``simt_e`` acting as a backward branch.
"""

import heapq
import itertools

from repro.core import group
from repro.core.cluster import Cluster
from repro.core.lanes import ArchLanes, LaneGeometry, read_operands
from repro.core.pe import DisabledRun, PEEntry, PEState
from repro.core.simt import SimtExecutor, analyze_simt_regions
from repro.core.stats import RingStats, StallReason
from repro.core.watchdog import ProgressWatchdog
from repro.iss.semantics import ExecResult, compute, finish_load
from repro.memory.lsu import resolve_store_access
from repro.isa.decoder import DecodeError, decode

MASK32 = 0xFFFFFFFF

_WAITING = PEState.WAITING
_EXECUTING = PEState.EXECUTING
_DONE = PEState.DONE
_RETIRED = PEState.RETIRED
_DISABLED = PEState.DISABLED
_SQUASHED = PEState.SQUASHED


class RingEngine:
    """One dataflow ring executing one software thread."""

    def __init__(self, config, hierarchy, program, entry_pc=None,
                 arch=None, ring_id=0):
        self.config = config
        self.hierarchy = hierarchy
        self.program = program
        self.ring_id = ring_id
        self.arch = arch if arch is not None else ArchLanes()
        self.stats = RingStats()
        self.cycle = 0
        self.halted = False
        self.halt_reason = None

        # Resident clusters: base line address -> [Cluster, ...].
        # Several clusters may hold copies of the same line: when a loop
        # iteration re-enters a line whose cluster is still executing,
        # the control unit loads a copy into a free cluster so
        # iterations overlap (this is why the paper likens total PE
        # count to ROB size, Section 7.2.1).
        self.clusters = {}
        self._resident_count = 0
        self._next_slot = 0
        self._last_armed_slot = None
        self._activation_seq = itertools.count()
        self._entry_seq = itertools.count()

        # The in-flight window and lane wiring
        self.window = []
        self.lane_tail = {}
        self._lanes = LaneGeometry(config.pes_per_cluster,
                                   config.lane_buffer_every,
                                   config.inter_cluster_delay)
        self.pending_stores = []

        # Scheduling structures
        self._ready_heap = []    # (time, seq, entry) operands known-ready
        self._executing = []     # (done_cycle, seq, entry)
        #: EXECUTING entries, and those of them on an FPU: the per-cycle
        #: energy census (kept at start, completion and squash)
        self._executing_pes = 0
        self._executing_fpus = 0
        self._blocked_loads = []
        self._retry = []         # entries retried next cycle (FU share)

        # Dispatch state
        self.next_fetch_pc = entry_pc if entry_pc is not None \
            else program.entry
        self._arm_pending = None   # (cluster, ready_cycle, entry_pc, reuse)
        self._arm_stall_reason = None
        self._waiting_redirect = None
        self._flush_inflight = False
        self._ras = []
        self._bus_busy_until = 0

        # SIMT
        self.simt_regions = analyze_simt_regions(program, config)
        self._active_simt_s = {}   # simt_s addr -> latest simt_s entry
        #: finish cycle of the pipelined region in progress, else None
        #: (the group loop neither pauses nor caps a skip inside one)
        self.simt_until = None
        self._simt_pending_entry = None
        self._simt_active_pes = 0.0
        self._simt_active_fpus = 0.0

        self._redirect_at = None
        self._redirect_pc = None
        self._retired_this_cycle = 0
        self._pending_interrupt = None
        self.csrs = {}
        #: optional callable(entry) invoked right after _commit applies
        #: an entry's architectural effects (repro.verify lockstep).
        #: Retirements never occur inside a fast-forward span, so this
        #: hook is FF-safe and deliberately absent from group.ff_setup.
        self.commit_hook = None
        #: (addr, mnemonic) of the most recent commit, for hang reports
        self._last_commit = None
        #: optional FaultInjector (repro.faults): routed through at each
        #: value-producing site ("pe" results, "lane" commits)
        self.fault_hook = None
        #: optional repro.obs.EventTracer; every emission site is
        #: guarded by a None check so disabled tracing stays free
        self.tracer = None
        self.watchdog = ProgressWatchdog(
            getattr(config, "watchdog_window", 0))
        #: fast-forward bookkeeping (diagnostics, not exported to stats:
        #: the stats document must be identical with skipping off)
        self.ff_skips = 0
        self.ff_skipped_cycles = 0
        self._ff_arm_spin_kind = None

    # ================================================================ API

    def run(self, max_cycles=None, max_retired=None):
        """Run this ring as a lockstep group of one
        (:func:`repro.core.group.run`, which documents the absolute
        ``max_cycles`` budget and the ``max_retired`` pause); returns
        a :class:`repro.core.group.RunResult`."""
        budget = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        return group.run([self], budget, max_retired)

    # ----------------------------------------------------- checkpointing
    #
    # All in-flight DiAG state is distributed across this object graph
    # (register-lane occupancy, window entries, cluster buffers, LSU
    # queues, reuse/predictor state, stats) and run()'s budget is
    # absolute, so a pickled ring resumes exactly. Single-ring
    # checkpoints carry their own hierarchy copy; multi-ring snapshots
    # go through DiAGProcessor.save_state so the shared hierarchy is
    # captured once.

    def save_state(self, meta=None):
        """Snapshot this ring (plus its hierarchy/memory) into a
        :class:`repro.checkpoint.Checkpoint`; docs/RESILIENCE.md."""
        from repro import checkpoint
        return checkpoint.save_state(self, meta=meta)

    @classmethod
    def restore_state(cls, ckpt):
        from repro import checkpoint
        return checkpoint.restore_state(ckpt, expect=cls.__name__)

    def check_watchdog(self):
        """Raise SimulationHang if the ring has stopped retiring."""
        if self.halted:
            return
        self.watchdog.check("diag", self.cycle, self.stats.retired,
                            self.head_state,
                            progressing=self.simt_until is not None)

    def head_state(self):
        """Diagnostic snapshot of the window head and dispatch state."""
        state = {
            "ring_id": self.ring_id,
            "retired": self.stats.retired,
            "window_depth": sum(e.count for e in self.window),
            "next_fetch_pc": hex(self.next_fetch_pc)
            if self.next_fetch_pc is not None else None,
            "arm_pending": self._arm_pending is not None,
            "waiting_redirect": repr(self._waiting_redirect)
            if self._waiting_redirect is not None else None,
            "resident_clusters": self._resident_count,
            "pending_stores": len(self.pending_stores),
            "blocked_loads": len(self._blocked_loads),
            "last_commit": "%s@%#x" % (self._last_commit[1],
                                       self._last_commit[0])
            if self._last_commit is not None else None,
            "arch_pc": hex(self._arch_pc())
            if self._arch_pc() is not None else None,
        }
        if self.window:
            head = self.window[0]
            state["head"] = repr(head)
            state["head_pending_producers"] = head.pending_producers
            state["head_blocked_on"] = repr(head.blocked_on) \
                if head.blocked_on is not None else None
        return state

    def _arch_pc(self):
        """Address of the oldest uncommitted instruction (the point the
        architectural state has reached), or the arm, redirect or fetch
        PC when the window holds nothing live."""
        for entry in self.window:
            if entry.state not in (PEState.SQUASHED, PEState.DISABLED):
                return entry.addr
        if self._arm_pending is not None:
            return self._arm_pending[2]
        if self._redirect_at is not None:
            return self._redirect_pc  # a mispredict's flush penalty
        return self.next_fetch_pc

    def step(self):
        """Advance one cycle."""
        self._retired_this_cycle = 0
        if self._pending_interrupt is not None and self.simt_until is None:
            self._take_interrupt()
        if self.simt_until is not None:
            self._step_simt()
        else:
            self._complete_executions()
            self._start_ready()
            self._retry_blocked()
            self._dispatch()
            self._retire()
            self._account_stall()
        self._account_energy()
        self.cycle += 1
        self.stats.cycles = self.cycle

    # ======================================================= fast-forward
    #
    # Event-driven cycle skipping (docs/PERFORMANCE.md). A cycle is
    # *quiescent* when a step would change nothing but the per-cycle
    # accounting: every in-flight operation finishes at a known future
    # cycle, dispatch is parked, and the window head can only be woken
    # by one of those events. Skipping then jumps the clock straight to
    # the earliest event and credits the span in one batch — stall
    # classification (constant across the span) x N, energy census x N
    # — so the final stats document is byte-identical to ticking.

    def quiescent(self):
        """True when no state transition can happen before the next
        known event — i.e. every intervening step would be a no-op.
        Called by :func:`repro.core.group.ff_target` after the cheap
        span floor and heap purge; ordered cheapest-check-first."""
        if (self.halted or self._pending_interrupt is not None
                or self._retry or self._blocked_loads):
            # Blocked loads retry every cycle and wake on store-buffer
            # state (address resolution / drain) that settles at the
            # END of the draining step — one step before any heap event
            # reflects it. Never skip while one is pending.
            return False
        if self.window:
            head = self.window[0]
            if head.state is not PEState.WAITING \
                    and head.state is not PEState.EXECUTING:
                return False  # DONE retires / SQUASHED+DISABLED pop
        self._ff_arm_spin_kind = None
        if (self._arm_pending is None and self._waiting_redirect is None
                and self.next_fetch_pc is not None):
            # _begin_arm runs every step: only skippable when it
            # provably spins (cluster busy-states change solely at
            # completion/retire events, which bound the skip).
            kind = self._ff_arm_spin()
            if kind is None:
                return False
            self._ff_arm_spin_kind = kind
        return True

    def ff_event(self, budget):
        """This ring's event bound, capped at ``budget``: the earliest
        cycle at which stepped state can change (the group's
        :func:`repro.core.group.ff_target` applies the span floor,
        the deadline cap and :meth:`quiescent`). Inside a pipelined
        SIMT region the bound is the region's finish cycle, or None
        while an interrupt, FU retry or blocked load is pending."""
        if self.simt_until is not None:
            if (self._pending_interrupt is not None or self._retry
                    or self._blocked_loads):
                return None
            return min(self.simt_until, budget)
        # Drop stale heap heads (entries squashed or already handled)
        # so head times are real events. Ticked execution pops the
        # same entries when their time comes; dropping early is
        # unobservable.
        target = budget
        executing = self._executing
        while executing and executing[0][2].state is not _EXECUTING:
            heapq.heappop(executing)
        if executing and executing[0][0] < target:
            target = executing[0][0]
        ready = self._ready_heap
        while ready and ready[0][2].state is not _WAITING:
            heapq.heappop(ready)
        if ready and ready[0][0] < target:
            target = ready[0][0]
        if self._arm_pending is not None \
                and self._arm_pending[1] < target:
            target = self._arm_pending[1]
        if self._redirect_at is not None and self._redirect_at < target:
            target = self._redirect_at
        return target

    def ff_skip_to(self, target):
        """Jump the clock to ``target``, batch-accounting the span."""
        span = target - self.cycle
        if span <= 0:
            return
        if self.simt_until is not None:
            # Ticked execution marks every region cycle as progressing;
            # replay that on the watchdog in one call. No stall
            # accounting inside a region (step() skips it).
            self.watchdog.feed(target, self.stats.retired)
        else:
            reason = self._classify_stall()
            if reason is not None:
                self.stats.stall(reason, span)
            if self._ff_arm_spin_kind == "miss":
                # Every ticked _begin_arm attempt against busy resident
                # copies counts one reuse miss; replay the spin's count.
                self.stats.reuse_misses += span
        self.stats.pe_active_cycles += self._executing_pes * span
        self.stats.fpu_active_cycles += self._executing_fpus * span
        self.stats.resident_cluster_cycles += self._resident_count * span
        self.ff_skips += 1
        self.ff_skipped_cycles += span
        self.cycle = target
        self.stats.cycles = target

    def _ff_arm_spin(self):
        """Classify the _begin_arm attempt the next step would make.

        Returns None when it would do real work (arm, fetch, or evict),
        ``"plain"`` when it is a pure no-op (every cluster slot is full
        of busy clusters), or ``"miss"`` when it additionally counts one
        ``reuse_misses`` per attempt (busy resident copies of the target
        line). Mirrors _begin_arm's decision tree side-effect free; the
        verdict is span-constant because cluster busy-states only change
        at completion/retire events."""
        cfg = self.config
        line = self._line_base(self.next_fetch_pc)
        residents = self.clusters.get(line, [])
        if any(not c.busy for c in residents):
            return None  # would arm a reuse (or drop + reload)
        counts = False
        if residents:
            counts = True
            if (cfg.enable_reuse and len(residents) >= 2
                    and self._resident_count >= cfg.num_clusters):
                return "miss"  # self-thrash wait: drains, no alloc
        if self._resident_count < cfg.num_clusters:
            return None  # a free slot exists: would fetch + arm
        if any(not c.busy for group in self.clusters.values()
               for c in group):
            return None  # an evictable victim exists: would reload
        return "miss" if counts else "plain"

    # =========================================================== dispatch

    def _line_base(self, addr):
        return addr - (addr % self.config.line_bytes)

    def _dispatch(self):
        if self.halted or self._waiting_redirect is not None:
            return
        if self._arm_pending is not None:
            cluster, ready, entry_pc, reuse = self._arm_pending
            if self.cycle >= ready:
                self._arm_pending = None
                self._flush_inflight = False
                self._fill_activation(cluster, ready, entry_pc)
            return
        if self.next_fetch_pc is None:
            return
        self._begin_arm(self.next_fetch_pc)

    def _begin_arm(self, pc):
        """Start arming a cluster holding ``pc``'s line."""
        cfg = self.config
        line = self._line_base(pc)
        residents = self.clusters.get(line, [])
        idle = [c for c in residents if not c.busy]
        if idle and cfg.enable_reuse:
            # Datapath reuse: instructions already loaded and decoded.
            cluster = max(idle, key=lambda c: c.last_used_cycle)
            self.stats.reuse_hits += 1
            adjacent = (self._last_armed_slot is not None and
                        (self._last_armed_slot + 1) % cfg.num_clusters
                        == cluster.slot)
            delay = cfg.reuse_adjacent_delay if adjacent \
                else self._bus_transfer(cfg.reuse_bus_delay)
            self._arm_pending = (cluster, self.cycle + delay, pc, True)
            self.next_fetch_pc = None
            return
        if idle and not cfg.enable_reuse:
            # Reuse disabled (ablation): drop residency, reload below.
            for cluster in idle:
                self._drop_cluster(cluster)
        if residents and not idle:
            self.stats.reuse_misses += 1
            if (cfg.enable_reuse and len(residents) >= 2
                    and self._resident_count >= cfg.num_clusters):
                # Several copies of this line are already executing and
                # another duplicate would evict other resident lines
                # (self-thrash): wait for a copy to drain instead. A
                # single busy copy on a small ring is still duplicated
                # — refetching is cheaper than serializing on it.
                self._arm_stall_reason = StallReason.STRUCTURAL
                return
        cluster = self._allocate_cluster(line)
        if cluster is None:
            self._arm_stall_reason = StallReason.STRUCTURAL
            return
        self.stats.lines_fetched += 1
        fetch = self.hierarchy.fetch_latency(line)
        delay = self._bus_transfer(fetch) + self.config.decode_latency
        self._arm_pending = (cluster, self.cycle + delay, pc, False)
        self.next_fetch_pc = None

    def _drop_cluster(self, cluster):
        residents = self.clusters.get(cluster.base_addr)
        if residents and cluster in residents:
            residents.remove(cluster)
            self._resident_count -= 1
            if not residents:
                del self.clusters[cluster.base_addr]

    def _bus_transfer(self, base_delay):
        """Serialize a transaction on the shared 512-bit bus."""
        start = max(self.cycle, self._bus_busy_until)
        wait = start - self.cycle
        self._bus_busy_until = start + self.config.bus_occupancy
        return wait + base_delay

    def _allocate_cluster(self, line):
        """Find or evict a cluster slot and decode ``line`` into it."""
        cfg = self.config
        if self._resident_count >= cfg.num_clusters:
            victims = [c for group in self.clusters.values()
                       for c in group if not c.busy]
            if not victims:
                return None
            victim = min(victims, key=lambda c: c.last_used_cycle)
            self._drop_cluster(victim)
            slot = victim.slot
        else:
            slot = self._next_slot
            self._next_slot = (self._next_slot + 1) % cfg.num_clusters
        instrs = []
        for i in range(cfg.pes_per_cluster):
            addr = line + 4 * i
            instr = self.program.instruction_at(addr)
            if instr is None:
                instr = self._decode_raw(addr)
            instrs.append(instr)
        cluster = Cluster(slot, line, instrs, self.hierarchy, cfg)
        self.clusters.setdefault(line, []).append(cluster)
        self._resident_count += 1
        return cluster

    def _decode_raw(self, addr):
        word = self.hierarchy.memory.read_word(addr)
        try:
            return decode(word, addr=addr)
        except DecodeError:
            return None

    def _fill_activation(self, cluster, ready_cycle, entry_pc):
        """Assign the cluster's instructions to PEs along the predicted
        path and append them to the window (Figure 6).

        Each live PE is wired to the youngest older writer of each lane
        it reads; each maximal run of PEs off the path (PC mismatch) is
        one :class:`DisabledRun`. Only control instructions go on to
        :meth:`_wire_control` to choose the path after them."""
        activation = cluster.arm(next(self._activation_seq), self.cycle,
                                 ready_cycle, entry_pc)
        self._last_armed_slot = cluster.slot
        stats = self.stats
        entries = activation.entries
        window = self.window
        entry_seq = self._entry_seq
        lane_tail = self.lane_tail
        delay = self._lanes.delay
        act_seq = activation.seq
        path_pc = entry_pc
        run = None
        disabled = 0
        for pe_index, (addr, instr, facts, control) in enumerate(
                cluster.plan):
            seq = next(entry_seq)
            if addr != path_pc or instr is None:
                disabled += 1
                if run is None:
                    run = DisabledRun(seq, activation, pe_index)
                    entries.append(run)
                    window.append(run)
                else:
                    run.count += 1
                continue
            run = None
            entry = PEEntry(seq, instr, facts, addr, activation, pe_index)
            entries.append(entry)
            window.append(entry)
            activation.live += 1
            sources = entry.sources
            for lane in facts.sources:
                producer = lane_tail.get(lane)
                sources.append((lane[0], lane[1], producer))
                if producer is None:
                    continue
                state = producer.state
                if state is _DONE or state is _RETIRED:
                    arrival = producer.done_cycle + delay(
                        producer.activation.seq, producer.pe_index,
                        act_seq, pe_index)
                    if arrival > entry.ready_time:
                        entry.ready_time = arrival
                else:
                    entry.pending_producers += 1
                    producer.waiters.append(entry)
            lane = facts.lane
            if lane is not None:
                lane_tail[lane] = entry
            if facts.is_store:
                self.pending_stores.append(entry)
                stats.stores += 1
            elif facts.is_load:
                stats.loads += 1
            if control:
                path_pc, stop = self._wire_control(entry, instr)
            else:
                path_pc, stop = (addr + 4) & MASK32, False
            if entry.pending_producers == 0:
                self._push_ready(entry)
            if stop:
                break
        else:
            if self._waiting_redirect is None and self.next_fetch_pc is None:
                self.next_fetch_pc = path_pc
        stats.disabled_slots += disabled
        if self.tracer is not None:  # one event per new window entry
            for entry in entries:
                args = {"seq": entry.seq, "pc": entry.addr,
                        "slot": cluster.slot}
                if entry.state is _DISABLED:
                    args["count"] = entry.count
                else:
                    args["op"] = entry.instr.mnemonic
                self.tracer.instant("dispatch", self.cycle, cat="dispatch",
                                    tid=self.ring_id, args=args)

    def _wire_control(self, entry, instr):
        """Predict the path after a control entry.

        Returns (next_path_pc, halt_dispatch)."""
        addr = entry.addr
        mnem = instr.mnemonic
        next_pc = (addr + 4) & MASK32
        if mnem == "ebreak" or mnem == "ecall":
            self.next_fetch_pc = None
            return next_pc, True
        if mnem == "jal":
            entry.predicted_taken = True
            entry.predicted_target = (addr + instr.imm) & MASK32
            if instr.rd == 1:
                self._ras.append(next_pc)
            return entry.predicted_target, False
        if mnem == "jalr":
            entry.predicted_taken = True
            if instr.rd == 0 and instr.rs1 == 1 and self._ras:
                entry.predicted_target = self._ras.pop()
                return entry.predicted_target, False
            # Unpredictable indirect jump: stall dispatch until the PE
            # resolves the PC lane (Section 4.3).
            entry.predicted_target = None
            self._waiting_redirect = entry
            self.next_fetch_pc = None
            return next_pc, True
        if entry.facts.is_branch:
            self.stats.branches += 1
            target = (addr + instr.imm) & MASK32
            take = (instr.imm < 0 and self.config.predict_backward_taken
                    and self.config.enable_reuse)
            entry.predicted_taken = take
            entry.predicted_target = target
            if self.config.enable_dual_path:
                self._prearm_alternate(next_pc if take else target)
            return (target if take else next_pc), False
        if mnem == "simt_s":
            region = self.simt_regions.get(addr)
            self._active_simt_s[addr] = entry
            if (region is not None and region.pipelineable
                    and self.config.enable_simt
                    and self._simt_profitable(region)):
                # Pipelined region: stop dispatch; the pipeliner takes
                # over once this entry reaches the window head.
                self._simt_pending_entry = entry
                self.next_fetch_pc = None
                return next_pc, True
            return next_pc, False
        if mnem == "simt_e":
            region = self.simt_regions.get(addr)
            start_addr = region.start_addr if region is not None else None
            simt_s_entry = (self._active_simt_s.get(start_addr - 4)
                            if start_addr is not None else None)
            entry.simt_region = simt_s_entry
            if simt_s_entry is not None:
                entry.sources.append((None, None, simt_s_entry))
                if not simt_s_entry.executed:
                    entry.pending_producers += 1
                    simt_s_entry.waiters.append(entry)
            # Sequential fallback: simt_e is a backward branch,
            # statically predicted taken (the loop fast path).
            entry.predicted_taken = True
            entry.predicted_target = start_addr
            self.stats.branches += 1
            return (start_addr if start_addr is not None
                    else next_pc), False
        return next_pc, False

    def _push_ready(self, entry):
        ready = max(entry.ready_time, entry.activation.ready_cycle)
        entry.ready_time = ready
        heapq.heappush(self._ready_heap, (ready, entry.seq, entry))

    # ============================================================ execute

    def _start_ready(self):
        heap = self._ready_heap
        cycle = self.cycle
        if not heap or heap[0][0] > cycle:
            return
        shared = self.config.fu_share_factor > 1
        deferred = []
        while heap and heap[0][0] <= cycle:
            __, __, entry = heapq.heappop(heap)
            if entry.state is not _WAITING:
                continue
            if shared and not self._fu_available(entry):
                deferred.append(entry)
                continue
            self._try_start(entry)
        self._retry.extend(deferred)

    def _retry_blocked(self):
        if not self._retry and not self._blocked_loads:
            return
        retry, self._retry = self._retry, []
        for entry in retry:
            if entry.state is PEState.WAITING:
                if self._fu_available(entry):
                    self._try_start(entry)
                else:
                    self._retry.append(entry)
        blocked, self._blocked_loads = self._blocked_loads, []
        for entry in blocked:
            if entry.state is PEState.WAITING:
                self._try_start(entry)

    def _fu_available(self, entry):
        share = self.config.fu_share_factor
        if share <= 1:
            return True
        group = entry.pe_index // share
        used = sum(1 for e in entry.activation.entries
                   if e.state is PEState.EXECUTING
                   and e.pe_index // share == group)
        return used < 1

    def _try_start(self, entry):
        """Operands are lane-valid; attempt to begin execution."""
        if entry.facts.is_mem:
            self._start_memory(entry)
            return
        self._start_compute(entry)

    def _start_compute(self, entry):
        instr = entry.instr
        rs1, rs2, rs3 = read_operands(entry, self.arch)
        mnem = instr.mnemonic
        latency = entry.facts.latency

        if mnem == "simt_s":
            entry.simt_latched = (rs1, rs2)  # (step, end) at spawn time
            entry.value = None
            entry.result = None
        elif mnem == "simt_e":
            self._exec_simt_e(entry, rs1)
        elif mnem.startswith("csr"):
            old = self._csr_read(instr.csr)
            entry.value = old
            write_val = instr.imm if mnem.endswith("i") else rs1
            if mnem.startswith("csrrw"):
                self.csrs[instr.csr] = write_val & MASK32
            elif mnem.startswith("csrrs") and write_val:
                self.csrs[instr.csr] = (old | write_val) & MASK32
            elif mnem.startswith("csrrc") and write_val:
                self.csrs[instr.csr] = old & ~write_val & MASK32
        else:
            result = compute(instr, entry.addr, rs1, rs2, rs3)
            entry.result = result
            entry.value = result.value
            entry.apply_fault(self.fault_hook, "pe")
        self._execute(entry, self.cycle + latency)

    def _execute(self, entry, done):
        """Put ``entry`` in flight until ``done`` (every start is here)."""
        entry.state = _EXECUTING
        entry.done_cycle = done
        self._executing_pes += 1
        if entry.facts.is_fp:
            self._executing_fpus += 1
        heapq.heappush(self._executing, (done, entry.seq, entry))
        if self.tracer is not None:
            self.tracer.complete(entry.instr.mnemonic, self.cycle,
                                 done - self.cycle, tid=self.ring_id,
                                 cat="execute",
                                 args={"pc": entry.addr, "seq": entry.seq})

    def _squash_from(self, seq, pc):
        """Kill every window entry from ``seq`` on (a mispredict's shadow,
        or all on an interrupt at ``pc``); returns the older entries."""
        window = self.window
        if self.tracer is not None:
            self.tracer.instant("squash", self.cycle, tid=self.ring_id,
                                cat="squash", args={
                                    "pc": pc, "seq": seq,
                                    "entries": sum(e.count for e in window
                                                   if e.seq >= seq)})
        keep = []
        for entry in window:
            if entry.seq < seq:
                keep.append(entry)
                continue
            state = entry.state
            if state is _WAITING or state is _EXECUTING:
                entry.activation.live -= 1
                if state is _EXECUTING:
                    self._executing_pes -= 1
                    if entry.facts.is_fp:
                        self._executing_fpus -= 1
            if state is not _DISABLED:
                self.stats.squashed += 1
            entry.state = _SQUASHED
        return keep

    def _exec_simt_e(self, entry, rc_value):
        simt_s = entry.simt_region
        step, end = (simt_s.simt_latched if simt_s is not None
                     and simt_s.simt_latched is not None else (0, 0))
        step_s = step - 0x100000000 if step & 0x80000000 else step
        end_s = end - 0x100000000 if end & 0x80000000 else end
        rc_s = rc_value - 0x100000000 if rc_value & 0x80000000 else rc_value
        next_rc = rc_s + step_s
        more = (next_rc < end_s) if step_s > 0 else \
               (next_rc > end_s) if step_s < 0 else False
        entry.value = next_rc & MASK32 if more else rc_value
        entry.result = ExecResult(
            taken=more,
            target=entry.predicted_target
            if entry.predicted_target is not None else entry.addr + 4)
        self.stats.simt_threads += more

    def post_interrupt(self, vector):
        """Request a precise interrupt (paper Section 5.1.4).

        "When an interrupt is encountered at instruction i, all
        instructions from i+1, i+2, ... are automatically disabled
        because the PE for instruction i modifies the PC lane to the
        target trap vector." Deferred past an active pipelined region
        (regions retire atomically, like the paper's reuse commits).
        """
        self._pending_interrupt = vector

    def _take_interrupt(self):
        """Squash every un-retired PE entry and redirect to the trap
        vector; mepc gets the next-to-retire PC (precise state: the
        architectural lanes hold exactly the retired prefix)."""
        vector = self._pending_interrupt
        self._pending_interrupt = None
        if self.halted:
            return
        # the interrupted PC: the oldest live instruction (_arch_pc)
        mepc = self._arch_pc()
        self.csrs[0x341] = (mepc or 0) & MASK32
        if self.window:
            self.window = self._squash_from(self.window[0].seq, mepc)
        self.pending_stores = []
        self._blocked_loads = []
        self._retry = []
        self.lane_tail = {}
        self._active_simt_s = {}
        self._arm_pending = None
        self._waiting_redirect = None
        self._simt_pending_entry = None
        self._redirect_at = None
        self._flush_inflight = True
        self.next_fetch_pc = vector & MASK32

    def _csr_read(self, number):
        if number == 0x341:  # mepc
            return self.csrs.get(0x341, 0)
        if number in (0xC00, 0xC01):
            return self.cycle & MASK32
        if number == 0xC02:
            return self.stats.retired & MASK32
        if number in (0xC80, 0xC81, 0xC82):
            return (self.cycle >> 32) & MASK32
        if number == 0xF14:
            return self.ring_id
        return 0

    # ------------------------------------------------------------ memory

    def _start_memory(self, entry):
        instr = entry.instr
        rs1, rs2, __ = read_operands(entry, self.arch)
        result = compute(instr, entry.addr, rs1, rs2)
        entry.result = result
        if entry.facts.is_store:
            self._start_store(entry)
            return
        self._start_load(entry)

    def _start_store(self, entry):
        cluster = entry.activation.cluster
        result = entry.result
        if self.config.enable_memory_lanes:
            cluster.memory_lanes.record_store(
                result.mem_addr, result.store_value, result.mem_size)
        self._execute(entry, self.cycle + 1)

    def _start_load(self, entry):
        """Loads order against older stores through the memory lanes:
        the store's *address* resolves as soon as its base register is
        valid; an overlapping store must supply data (exact match) or
        drain to memory before the load proceeds."""
        result = entry.result
        addr, size = result.mem_addr, result.mem_size
        forward_value = None
        for store in reversed(self.pending_stores):
            if store.seq >= entry.seq or store.state is PEState.SQUASHED:
                continue
            access = resolve_store_access(store, self.arch)
            if access is None:
                self._block_load(entry, store)
                return
            s_addr, s_size = access
            overlap = s_addr < addr + size and addr < s_addr + s_size
            if not overlap:
                continue
            s_res = store.result
            if (s_res is not None and s_addr == addr and s_size == size
                    and self.config.enable_memory_lanes):
                forward_value = s_res.store_value
            elif not store.store_drained:
                # Data not yet available (or partial overlap / lanes
                # disabled): wait for the store.
                self._block_load(entry, store)
                return
            break

        entry.blocked_on = None
        cluster = entry.activation.cluster
        if forward_value is not None:
            self.stats.store_forwards += 1
            cluster.memory_lanes.stats_forwards += 1
            raw = forward_value
            latency = 1
            if self.tracer is not None:
                self.tracer.instant("lane_forward", self.cycle,
                                    tid=self.ring_id,
                                    args={"addr": addr})
        else:
            raw = self.hierarchy.memory.load(addr, size)
            latency, __ = cluster.lsu.access(addr, self.cycle,
                                             is_write=False)
            if self.tracer is not None \
                    and latency > self.hierarchy.config.timings.l1d_hit:
                self.tracer.instant("cache_miss", self.cycle,
                                    tid=self.ring_id,
                                    args={"addr": addr,
                                          "latency": latency})
            if self.config.enable_prefetch:
                self._prefetch(entry, addr)
        entry.value = finish_load(entry.instr, raw)
        entry.apply_fault(self.fault_hook, "pe")
        entry.waiting_on_memory = True
        self._execute(entry, self.cycle + max(1, latency))

    def _block_load(self, entry, store):
        entry.blocked_on = store
        entry.waiting_on_memory = True
        self._blocked_loads.append(entry)

    def _prefetch(self, entry, addr):
        prefetcher = getattr(self, "_prefetcher", None)
        if prefetcher is None:
            from repro.memory.prefetch import StridePrefetcher
            prefetcher = StridePrefetcher(self.hierarchy.l1d,
                                          degree=self.config.prefetch_degree)
            self._prefetcher = prefetcher
        prefetcher.observe((entry.activation.cluster.base_addr,
                            entry.pe_index), addr)

    # -------------------------------------------------------- completion

    def _complete_executions(self):
        while self._executing and self._executing[0][0] <= self.cycle:
            __, __, entry = heapq.heappop(self._executing)
            if entry.state is not PEState.EXECUTING:
                continue
            self._complete(entry)

    def _complete(self, entry):
        entry.state = PEState.DONE
        entry.activation.live -= 1
        self._executing_pes -= 1
        if entry.facts.is_fp:
            self._executing_fpus -= 1
        entry.waiting_on_memory = False
        instr = entry.instr

        # Wake lane consumers.
        delay = self._lanes.delay
        act_seq = entry.activation.seq
        pe_index = entry.pe_index
        done = entry.done_cycle
        for waiter in entry.waiters:
            if waiter.state is not _WAITING:
                continue
            arrival = done + delay(act_seq, pe_index,
                                   waiter.activation.seq, waiter.pe_index)
            if arrival > waiter.ready_time:
                waiter.ready_time = arrival
            waiter.pending_producers -= 1
            if waiter.pending_producers == 0:
                self._push_ready(waiter)
        entry.waiters = []

        if entry is self._waiting_redirect:
            self._waiting_redirect = None
            self.next_fetch_pc = entry.result.target
            self.stats.taken_branches += 1
            return

        result = entry.result
        if result is None:
            return
        if entry.facts.is_control or instr.mnemonic == "simt_e":
            actual_taken = result.taken
            actual_target = result.target if actual_taken \
                else (entry.addr + 4) & MASK32
            predicted_target = entry.predicted_target \
                if entry.predicted_taken else (entry.addr + 4) & MASK32
            if actual_taken:
                self.stats.taken_branches += 1
            if (actual_taken != entry.predicted_taken
                    or (actual_taken and actual_target != predicted_target)):
                self._mispredict(entry, actual_target)

    def _mispredict(self, entry, correct_target):
        """Squash everything younger and redirect (Section 5.1.4)."""
        self.stats.mispredicts += 1
        self.window = self._squash_from(entry.seq + 1, entry.addr)
        self.pending_stores = [s for s in self.pending_stores
                               if s.state is not PEState.SQUASHED]
        self._blocked_loads = [l for l in self._blocked_loads
                               if l.state is PEState.WAITING]
        self._retry = [e for e in self._retry
                       if e.state is PEState.WAITING]
        # Rebuild lane wiring from the surviving window.
        self.lane_tail = {}
        for e in self.window:
            if e.state is PEState.SQUASHED or e.state is PEState.DISABLED:
                continue
            lane = e.facts.lane
            if lane is not None:
                self.lane_tail[lane] = e
        self._active_simt_s = {
            addr: ent for addr, ent in self._active_simt_s.items()
            if ent.state is not PEState.SQUASHED}
        self._arm_pending = None
        self._waiting_redirect = None
        self._simt_pending_entry = None
        self._flush_inflight = True
        # Reload costs at least flush_penalty cycles (Section 7.3.2);
        # the arm path adds fetch/decode or reuse latency on top.
        self.next_fetch_pc = None
        self._redirect_at = self.cycle + self.config.flush_penalty
        self._redirect_pc = correct_target

    # ============================================================= retire

    def _retire(self):
        # Apply any pending post-flush redirect.
        redirect_at = self._redirect_at
        if redirect_at is not None and self.cycle >= redirect_at:
            self.next_fetch_pc = self._redirect_pc
            self._redirect_at = None
            self._redirect_pc = None

        limit = self.config.pes_per_cluster
        retired = 0
        window = self.window
        while window and retired < limit:
            head = window[0]
            state = head.state
            if state is _DISABLED:
                # A run's slots each take one retire slot; a run longer
                # than what is left of the budget is popped in part.
                budget = limit - retired
                if self.tracer is not None:
                    self.tracer.instant("retire", self.cycle,
                                        tid=self.ring_id, cat="retire",
                                        args={"seq": head.seq,
                                              "count": min(head.count,
                                                           budget)})
                if head.count > budget:
                    head.count -= budget
                    head.seq += budget
                    head.pe_index += budget
                    break
                window.pop(0)
                retired += head.count
                continue
            if state is _SQUASHED:
                window.pop(0)
                continue
            if state is not _DONE:
                break
            self._commit(head)
            self._last_commit = (head.addr, head.instr.mnemonic)
            if self.commit_hook is not None:
                self.commit_hook(head)
            if self.tracer is not None:
                self.tracer.instant("retire", self.cycle,
                                    tid=self.ring_id, cat="retire",
                                    args={"pc": head.addr,
                                          "op": head.instr.mnemonic,
                                          "seq": head.seq})
            window.pop(0)
            retired += 1
            self.stats.retired += 1
            self._retired_this_cycle += 1
            if self.halted:
                break

    def _prearm_alternate(self, pc):
        """Speculative dual-path construction (Section 7.3.2 future
        work): load the not-followed path's line into a FREE cluster so
        a mispredict re-arms a resident datapath instead of refetching.
        Never evicts — it only uses spare capacity."""
        line = self._line_base(pc)
        if line in self.clusters:
            return
        if self._resident_count >= self.config.num_clusters:
            return
        cluster = self._allocate_cluster(line)
        if cluster is not None:
            self.stats.lines_fetched += 1
            self.hierarchy.fetch_latency(line)

    def _simt_profitable(self, region):
        """Pipeline only when the ring can replicate the pipeline
        enough for throughput to beat sequential dataflow overlap."""
        copies = self.config.num_clusters // max(1, region.clusters_needed)
        return copies >= self.config.simt_min_copies

    def _commit(self, entry):
        instr = entry.instr
        if instr.mnemonic == "ebreak":
            self.halted = True
            self.halt_reason = "ebreak"
        elif instr.mnemonic == "ecall":
            self.halted = True
            self.halt_reason = "ecall"
        facts = entry.facts
        if facts.is_store and not entry.store_drained:
            result = entry.result
            self.hierarchy.memory.store(result.mem_addr, result.store_value,
                                        result.mem_size)
            # Drains traverse the cluster write path: same-line stores
            # coalesce in the memory lanes; a new line costs a banked
            # L1D transaction (timing state + stats, non-blocking).
            cluster = entry.activation.cluster
            line = result.mem_addr // self.config.line_bytes
            if cluster.last_drain_line != line:
                self.hierarchy.data_access_latency(result.mem_addr,
                                                   self.cycle,
                                                   is_write=True)
                cluster.last_drain_line = line
            entry.store_drained = True
            if entry in self.pending_stores:
                self.pending_stores.remove(entry)
        lane = facts.lane
        if lane is not None and entry.value is not None:
            entry.apply_fault(self.fault_hook, "lane")
            self.arch.write(lane[0], lane[1], entry.value)
            if self.lane_tail.get(lane) is entry:
                del self.lane_tail[lane]
        if instr.mnemonic == "simt_s":
            region = self.simt_regions.get(entry.addr)
            if (entry is self._simt_pending_entry and region is not None
                    and region.pipelineable and self.config.enable_simt
                    and self._simt_profitable(region)):
                self._enter_simt(entry, region)
        entry.state = PEState.RETIRED

    # =============================================================== simt

    def _enter_simt(self, entry, region):
        """Hand the region to the thread pipeliner (Section 4.4)."""
        self._simt_pending_entry = None
        step, end = entry.simt_latched
        executor = SimtExecutor(self.config, self.hierarchy, self.program,
                                region, self.arch, stats=self.stats,
                                tracer=self.tracer,
                                trace_ids=(0, self.ring_id))
        outcome = executor.run(start_cycle=self.cycle, rc_value_step_end=(
            self.arch.read("x", entry.instr.rd), step, end))
        if self.tracer is not None:
            self.tracer.complete("simt_region", self.cycle,
                                 outcome.finish_cycle - self.cycle,
                                 tid=self.ring_id, cat="simt_region",
                                 args={"threads": outcome.threads,
                                       "instructions":
                                       outcome.instructions})
        self.stats.simt_regions += 1
        self.stats.simt_threads += outcome.threads
        self.stats.simt_insts += outcome.instructions
        self.stats.retired += outcome.instructions
        self.simt_until = outcome.finish_cycle
        self._simt_active_pes = outcome.avg_active_pes
        self._simt_active_fpus = outcome.avg_active_fpus
        # Region utilization is credited in closed form here rather
        # than per region cycle: ``avg * span`` and ``span`` repeated
        # float additions differ in the low bits, so the closed form is
        # the only way ticked and fast-forwarded runs can agree exactly.
        span = outcome.finish_cycle - self.cycle - 1
        if span > 0:
            self.stats.pe_active_cycles += outcome.avg_active_pes * span
            self.stats.fpu_active_cycles += outcome.avg_active_fpus * span
        self.arch.write("x", entry.instr.rd, outcome.final_rc)
        self.next_fetch_pc = region.end_addr + 4

    def _step_simt(self):
        # Utilization was credited in closed form by _enter_simt; the
        # per-cycle step only ends the region.
        if self.cycle >= self.simt_until:
            self.simt_until = None

    # ======================================================== accounting

    def _account_stall(self):
        if self.halted or self._retired_this_cycle:
            return
        reason = self._classify_stall()
        if reason is not None:
            self.stats.stall(reason)

    def _classify_stall(self):
        if not self.window:
            if self._flush_inflight or self._redirect_at is not None:
                return StallReason.CONTROL
            if self._arm_pending is not None:
                # Loop turnaround: re-arming a resident datapath after a
                # backward branch is a control-flow cost (Section 7.3.2
                # counts reload of the correct line as control).
                reuse = self._arm_pending[3]
                return StallReason.CONTROL if reuse \
                    else StallReason.STRUCTURAL
            if self.next_fetch_pc is None:
                return StallReason.STRUCTURAL
            return self._arm_stall_reason or StallReason.STRUCTURAL
        head = self.window[0]
        if head.state is PEState.EXECUTING:
            if head.facts.is_mem:
                return StallReason.MEMORY
            return None  # useful computation, not a stall
        if head.state is PEState.WAITING:
            origin = self._stall_origin(head)
            return origin
        return None

    def _stall_origin(self, entry):
        """Walk producer links to the stall source (Section 7.3.2).

        Iterative with a visited set: producer graphs with converging
        edges can revisit nodes, and the previous depth-capped recursion
        mislabeled deep dependence chains as STRUCTURAL."""
        visited = set()
        while True:
            if id(entry) in visited:
                # Lane-wiring cycle (only possible through a stale
                # squashed producer): no memory source found.
                return StallReason.STRUCTURAL
            visited.add(id(entry))
            if entry.waiting_on_memory or entry.blocked_on is not None:
                return StallReason.MEMORY
            if entry.state is PEState.EXECUTING:
                if entry.facts.is_mem:
                    return StallReason.MEMORY
                return None
            for __, __, producer in entry.sources:
                if producer is not None and not producer.executed:
                    entry = producer
                    break
            else:
                if entry.state is PEState.WAITING \
                        and entry.pending_producers == 0:
                    # All producers done: the value is in flight on the
                    # lanes (propagation latency), not a stall source.
                    return None
                # Operands ready but not started: FU/structural.
                return StallReason.STRUCTURAL

    def _account_energy(self):
        self.stats.pe_active_cycles += self._executing_pes
        self.stats.fpu_active_cycles += self._executing_fpus
        self.stats.resident_cluster_cycles += self._resident_count
