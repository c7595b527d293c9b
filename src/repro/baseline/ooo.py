"""Cycle-level out-of-order core (the gem5 baseline substitute).

Pipeline structure per paper Section 7.1: 8-wide fetch / issue /
dispatch / retire with a 2-cycle latency per front-end stage (fetch,
decode, rename, dispatch — 8 cycles from fetch to issue-eligible), a
reorder buffer, unified issue queue discipline (oldest-ready-first up
to the FU pool), a conservative LSQ with store-to-load forwarding, and
a gshare + BTB + return-address-stack front end. Instruction latencies
and the memory hierarchy are shared with the DiAG model so comparisons
isolate the microarchitecture.
"""

import heapq
from dataclasses import dataclass, field

from repro.baseline.predictor import GSharePredictor
from repro.core import group
from repro.core.lanes import ArchLanes, read_operands
from repro.core.stats import EngineStats, StallReason
from repro.core.watchdog import ProgressWatchdog
from repro.iss.semantics import (LOAD_SIZES, VALUE_HANDLERS, ExecResult,
                                 compute, finish_load)
from repro.memory.lsu import resolve_store_access
from repro.isa.instructions import MNEMONICS, FUClass
from repro.memory.hierarchy import MemoryHierarchy

MASK32 = 0xFFFFFFFF


@dataclass
class OoOConfig:
    """Baseline core parameters (paper Section 7.1)."""

    name: str = "ooo8"
    fetch_width: int = 8
    issue_width: int = 8
    retire_width: int = 8
    frontend_latency: int = 8   # fetch+decode+rename+dispatch @ 2cyc each
    rob_size: int = 224
    lsq_size: int = 72
    mispredict_penalty: int = 9  # redirect through the front end
    # functional-unit pool
    num_alu: int = 4
    num_mul: int = 2
    num_div: int = 1
    num_fpu: int = 2
    num_load_ports: int = 2
    num_store_ports: int = 1
    freq_ghz: float = 2.0
    l1i_size: int = 64 * 1024
    l1d_size: int = 64 * 1024
    l2_size: int = 4 * 1024 * 1024
    max_cycles: int = 50_000_000
    # Liveness watchdog: raise SimulationHang after this many cycles
    # without a retirement (0 disables). See repro.core.watchdog.
    watchdog_window: int = 200_000
    # Event-driven cycle skipping (same contract as DiAGConfig: cycle-
    # exact, forced off by tracing / fault injection / watchdog 0).
    fast_forward: bool = True

    def hierarchy_config(self):
        from repro.memory.hierarchy import HierarchyConfig
        return HierarchyConfig(l1i_size=self.l1i_size, l1i_ways=2,
                               l1d_size=self.l1d_size, l1d_ways=4,
                               l2_size=self.l2_size)


_FU_POOL_OF = {
    FUClass.ALU: "alu", FUClass.BRANCH: "alu", FUClass.JUMP: "alu",
    FUClass.CSR: "alu", FUClass.SYSTEM: "alu", FUClass.SIMT: "alu",
    FUClass.MUL: "mul", FUClass.DIV: "div",
    FUClass.FP_ADD: "fpu", FUClass.FP_MUL: "fpu", FUClass.FP_FMA: "fpu",
    FUClass.FP_DIV: "fpu", FUClass.FP_SQRT: "fpu", FUClass.FP_MISC: "fpu",
    FUClass.LOAD: "load", FUClass.STORE: "store",
}

#: FU pool -> its index in ``OoOCore._fu_slots``
_POOLS = ("alu", "mul", "div", "fpu", "load", "store")

#: mnemonic -> FU pool index, so issue never hashes an FUClass member
_POOL_INDEX = {mnemonic: _POOLS.index(_FU_POOL_OF[info.fu_class])
               for mnemonic, info in MNEMONICS.items()}

@dataclass
class OoOStats(EngineStats):
    cycles: int = 0
    retired: int = 0
    fetched: int = 0
    branches: int = 0
    taken_branches: int = 0
    mispredicts: int = 0
    loads: int = 0
    stores: int = 0
    store_forwards: int = 0
    fp_ops: int = 0
    # event counters for the McPAT-style power model
    renames: int = 0
    issues: int = 0
    rob_writes: int = 0
    regfile_reads: int = 0
    fu_cycles: int = 0      # FU-occupancy cycles (ALU/MUL/DIV/FPU)
    fpu_cycles: int = 0     # subset of fu_cycles on the FP pipes
    # stall taxonomy (same StallReason scheme as RingStats so both
    # engines land identical core.stall.* names in the stats registry)
    stall_cycles: dict = field(default_factory=dict)
    rob_occupancy_sum: int = 0   # sum of ROB depth per cycle


class _RobEntry:
    """One reorder-buffer entry.

    Every fetched instruction becomes one, and most are wrong-path
    work that is squashed before it starts. So ``OoOCore._fetch``
    builds each entry slot by slot, with no ``__init__`` call, and
    writes only the slots every entry reads: ``seq``, ``instr``,
    ``facts``, ``addr``, ``state``, ``value``, ``sources``,
    ``pending_producers`` and ``ready_time``. The rest are written by
    the stage that first needs them, and read only on the paths that
    follow it:

    - ``predicted_taken``/``predicted_target``: at dispatch of a
      branch, jump or ``simt_e`` (``_predict_next``);
    - ``simt_region`` at dispatch of a ``simt_e``, ``simt_latched`` at
      dispatch (None) and start of a ``simt_s``;
    - ``result`` and ``store_addr``: at dispatch of a store (None);
      ``result`` again at the start of a store or a control op;
    - ``done_cycle``: at start.

    The ROB never holds a squashed entry: a squash cuts its entries
    out as it marks them."""

    __slots__ = ("seq", "instr", "facts", "addr", "state", "sources",
                 "value", "result", "done_cycle", "predicted_taken",
                 "predicted_target", "pending_producers", "ready_time",
                 "simt_region", "simt_latched", "store_addr")

    WAITING = 0
    EXECUTING = 2
    DONE = 3
    SQUASHED = 4

    @property
    def executed(self):
        return self.state == _DONE

    def __getstate__(self):
        # ``facts`` is re-bound from ``instr`` on restore, as for the
        # ring's PEEntry; slots no stage has written yet stay unset
        return {name: getattr(self, name) for name in self.__slots__
                if name != "facts" and hasattr(self, name)}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self.facts = self.instr.facts


_WAITING = _RobEntry.WAITING
_EXECUTING = _RobEntry.EXECUTING
_DONE = _RobEntry.DONE
_SQUASHED = _RobEntry.SQUASHED

#: the sources of an entry that reads no register (shared, immutable)
_NO_SOURCES = ()


class OoOCore:
    """One out-of-order core running one software thread."""

    #: the baseline runs simt regions as plain loops, so it is never
    #: inside a pre-scheduled region (see RingEngine.simt_until)
    simt_until = None

    def __init__(self, config, program, hierarchy=None, arch=None,
                 core_id=0, load_image=True, entry_pc=None):
        self.config = config
        self.program = program
        self.core_id = core_id
        self.hierarchy = hierarchy if hierarchy is not None \
            else MemoryHierarchy(config.hierarchy_config())
        if load_image:
            program.load_into(self.hierarchy.memory)
        if arch is None:
            arch = ArchLanes()
            arch.x[10] = core_id  # a0: SPMD thread id
            arch.x[11] = 1        # a1: thread count
        self.arch = arch
        self.stats = OoOStats()
        self.predictor = GSharePredictor()
        self.btb = {}
        self.ras = []
        self.cycle = 0
        self.halted = False
        self.halt_reason = None

        self.fetch_pc = entry_pc if entry_pc is not None \
            else program.entry
        self._fetch_stalled_until = 0
        self._fetch_blocked = None  # unresolved indirect jump entry

        self.rob = []
        #: lane -> the youngest in-flight entry writing it (absent when
        #: none: the committed register holds the value)
        self.lane_tail = {}
        #: in-flight stores, oldest first
        self.pending_stores = []
        self._ready_heap = []
        #: producer seq -> the entries waiting on its value, dropped at
        #: its completion or squash. Held here rather than on the
        #: producer so that ROB entries link only to older entries:
        #: retired and squashed ones are freed by reference counting.
        self._waiters = {}
        self._executing = []
        self._blocked_loads = []
        self._next_seq = 0
        #: free units per FU pool at the start of an issue cycle,
        #: indexed as :data:`_POOL_INDEX` (copied by each _issue)
        self._fu_slots = [config.num_alu, config.num_mul, config.num_div,
                          config.num_fpu, config.num_load_ports,
                          config.num_store_ports]
        # simt sequential support (baseline has no pipelining extension;
        # it executes simt regions as plain loops)
        self._active_simt_s = {}
        self._line_buffer = None
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
        #: value-producing site ("rob" results, "regfile" commits)
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
        self._ff_retry_starved = False

    # ---------------------------------------------------------------- run

    def run(self, max_cycles=None, max_retired=None):
        """Run this core as a lockstep group of one
        (:func:`repro.core.group.run`, which documents the absolute
        ``max_cycles`` budget and the ``max_retired`` pause); returns
        a :class:`repro.core.group.RunResult`."""
        budget = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        return group.run([self], budget, max_retired)

    # ----------------------------------------------------- checkpointing
    #
    # The cycle budget in run() is absolute and every bit of in-flight
    # state (ROB, lane tails, store buffer, blocked loads, ready heap,
    # predictor/caches, stats) lives on the object graph, so a restored
    # core resumes exactly: run-N -> save -> restore -> run-M equals an
    # uninterrupted N+M run (tests/test_checkpoint.py).

    def save_state(self, meta=None):
        """Snapshot this core into a :class:`repro.checkpoint.
        Checkpoint` (docs/RESILIENCE.md); hooks/tracers detach and
        come back as None on restore."""
        from repro import checkpoint
        return checkpoint.save_state(self, meta=meta)

    @classmethod
    def restore_state(cls, ckpt):
        from repro import checkpoint
        return checkpoint.restore_state(ckpt, expect=cls.__name__)

    def check_watchdog(self):
        """Raise SimulationHang if the core has stopped retiring."""
        if self.halted:
            return
        self.watchdog.check("ooo", self.cycle, self.stats.retired,
                            self.head_state)

    def head_state(self):
        """Diagnostic snapshot of the ROB head and front-end state."""
        state = {
            "core_id": self.core_id,
            "retired": self.stats.retired,
            "rob_depth": len(self.rob),
            "fetch_pc": hex(self.fetch_pc)
            if self.fetch_pc is not None else None,
            "fetch_stalled_until": self._fetch_stalled_until,
            "fetch_blocked": repr(self._fetch_blocked)
            if self._fetch_blocked is not None else None,
            "pending_stores": len(self.pending_stores),
            "blocked_loads": len(self._blocked_loads),
            "last_commit": "%s@%#x" % (self._last_commit[1],
                                       self._last_commit[0])
            if self._last_commit is not None else None,
            "arch_pc": hex(self._arch_pc())
            if self._arch_pc() is not None else None,
        }
        if self.rob:
            head = self.rob[0]
            state["head"] = (f"{head.instr.mnemonic}@{head.addr:#x} "
                             f"state={head.state}")
            state["head_pending_producers"] = head.pending_producers
        return state

    def _arch_pc(self):
        """Address of the oldest unretired instruction (the point the
        architectural state has reached), or the fetch PC when the ROB
        is empty."""
        return self.rob[0].addr if self.rob else self.fetch_pc

    def post_interrupt(self, vector):
        """Request a precise interrupt (taken at the next cycle)."""
        self._pending_interrupt = vector

    def _take_interrupt(self):
        vector = self._pending_interrupt
        self._pending_interrupt = None
        if self.halted:
            return
        mepc = self._arch_pc()
        self.csrs[0x341] = (mepc or 0) & MASK32
        if self.rob:
            self._squash_from(self.rob[0].seq, mepc)
        self.pending_stores = []
        self._blocked_loads = []
        self.lane_tail = {}
        self._active_simt_s = {}
        self._fetch_blocked = None
        self._line_buffer = None
        self.fetch_pc = vector & MASK32
        self._fetch_stalled_until = self.cycle \
            + self.config.mispredict_penalty

    def step(self):
        # A stage is called only when something is due for it.
        if self._pending_interrupt is not None:
            self._take_interrupt()
        cycle = self.cycle
        executing = self._executing
        if executing and executing[0][0] <= cycle:
            self._complete()
        ready = self._ready_heap
        if ready and ready[0][0] <= cycle:
            self._issue()
        if self._blocked_loads:
            self._retry_loads()
        else:
            self._ff_retry_starved = False
        self._fetch()
        rob = self.rob
        retired = self._retire() if rob and rob[0].state == _DONE else 0
        stats = self.stats
        if not retired and not self.halted:
            # Attribute a zero-retirement cycle to its head-of-ROB
            # cause, mirroring RingStats' Section 7.3.2 taxonomy so the
            # two engines emit comparable ``core.stall.*`` counters.
            reason = self._classify_stall()
            if reason is not None:
                stats.stall(reason)
        stats.rob_occupancy_sum += len(rob)
        self.cycle = cycle = cycle + 1
        stats.cycles = cycle

    # ------------------------------------------------------- fast-forward
    #
    # Event-driven cycle skipping, same contract as the ring engine
    # (docs/PERFORMANCE.md): when a step could only repeat the per-cycle
    # accounting, jump the clock to the earliest scheduled event and
    # credit the span in one batch, byte-identical to ticking.

    def quiescent(self):
        """True when no state transition can happen before the next
        known event — i.e. every intervening step would be a no-op.
        Called by :func:`repro.core.group.ff_target` after the cheap
        span floor and heap purge."""
        if self.halted or self._pending_interrupt is not None \
                or self._ff_retry_starved or self._blocked_loads:
            # Blocked loads retry every cycle and wake on store-buffer
            # state that settles at the END of the step that drains the
            # store — one step before any heap/ROB event reflects it.
            return False
        # The front end must be provably idle: blocked on an indirect
        # jump, stalled on a redirect/refill, out of PC, or ROB-full
        # (ROB depth cannot change without a completion/retire event).
        if not (self._fetch_blocked is not None
                or self.fetch_pc is None
                or self.cycle < self._fetch_stalled_until
                or len(self.rob) >= self.config.rob_size):
            return False
        if self._ready_heap and self._ready_heap[0][0] <= self.cycle:
            return False  # an entry issues next step
        if self.rob and self.rob[0].state == _DONE:
            return False  # retires next step
        return True

    def ff_event(self, budget):
        """This core's event bound, capped at ``budget``: the earliest
        cycle at which stepped state can change (the group's
        :func:`repro.core.group.ff_target` applies the span floor,
        the deadline cap and :meth:`quiescent`). The front-end
        restart time bounds it too: the rob-empty stall
        classification branches on ``cycle < _fetch_stalled_until``."""
        now = self.cycle
        # Drop stale heap heads (squashed / already-handled entries) so
        # head times are real events; _complete and _issue skip the
        # same entries when their time comes.
        target = budget
        executing = self._executing
        while executing and executing[0][2].state != _EXECUTING:
            heapq.heappop(executing)
        if executing and executing[0][0] < target:
            target = executing[0][0]
        ready = self._ready_heap
        while ready and ready[0][2].state != _WAITING:
            heapq.heappop(ready)
        if ready and ready[0][0] < target:
            target = ready[0][0]
        stalled = self._fetch_stalled_until
        if now < stalled < target:
            target = stalled
        return target

    def ff_skip_to(self, target):
        """Jump the clock to ``target``, batch-accounting the span."""
        span = target - self.cycle
        if span <= 0:
            return
        reason = self._classify_stall()
        if reason is not None:
            self.stats.stall(reason, span)
        self.stats.rob_occupancy_sum += len(self.rob) * span
        self.ff_skips += 1
        self.ff_skipped_cycles += span
        self.cycle = target
        self.stats.cycles = target

    # -------------------------------------------------------------- fetch

    def _fetch(self):
        """Fetch, rename and dispatch up to ``fetch_width``
        instructions into the ROB, and choose the next fetch PC.

        One loop over hoisted locals does all three stages for each
        instruction, since most fetched instructions are wrong-path
        work: each wires its sources to the youngest in-flight
        producers (``lane_tail``) and enters the ready heap once it
        waits on none. The fetch, rename, ROB-write and register-read
        counters rise together and are added once per group."""
        if self.halted or self._fetch_blocked is not None:
            return
        cycle = self.cycle
        if cycle < self._fetch_stalled_until:
            return
        rob = self.rob
        config = self.config
        room = config.rob_size - len(rob)
        if room <= 0:
            return
        width = min(config.fetch_width, room)
        pc = self.fetch_pc
        line_buffer = self._line_buffer
        hierarchy = self.hierarchy
        line_bytes = hierarchy.config.line_bytes
        hit_latency = hierarchy.config.timings.l1i_hit
        instruction_at = self.program.listing.get
        ready_at = cycle + config.frontend_latency
        lane_tail = self.lane_tail
        waiters = self._waiters
        ready_heap = self._ready_heap
        tracer = self.tracer
        new_entry = object.__new__
        seq = self._next_seq
        first_seq = seq
        reads = loads = stores = fp_ops = 0
        while seq - first_seq < width and pc is not None:
            line = pc - pc % line_bytes
            if line != line_buffer:
                latency = hierarchy.fetch_latency(line)
                line_buffer = line
                if latency > hit_latency:
                    # I-cache miss: stall the front end.
                    self._fetch_stalled_until = cycle + latency
                    break
            instr = instruction_at(pc)
            if instr is None:
                self._fetch_stalled_until = cycle + 1
                break
            facts = instr.facts
            entry = new_entry(_RobEntry)
            entry.seq = seq
            entry.instr = instr
            entry.facts = facts
            entry.addr = pc
            entry.state = _WAITING
            entry.value = None
            seq += 1
            rob.append(entry)
            if tracer is not None:
                tracer.instant("dispatch", cycle, pid=1,
                               tid=self.core_id, cat="dispatch",
                               args={"pc": pc, "op": instr.mnemonic,
                                     "seq": entry.seq})
            ready = ready_at
            pending = 0
            lanes = facts.sources
            if lanes:
                sources = []
                for lane in lanes:
                    producer = lane_tail.get(lane)
                    sources.append((lane[0], lane[1], producer))
                    if producer is None:
                        continue
                    if producer.state == _DONE:
                        if producer.done_cycle >= ready:
                            ready = producer.done_cycle + 1
                    else:
                        pending += 1
                        waiters.setdefault(producer.seq, []).append(entry)
                reads += len(lanes)
            else:
                sources = _NO_SOURCES
            entry.sources = sources
            if facts.is_store:
                entry.result = None
                entry.store_addr = None
                self.pending_stores.append(entry)
                stores += 1
            elif facts.is_load:
                loads += 1
            if facts.is_fp:
                fp_ops += 1
            lane = facts.lane
            if lane is not None:
                lane_tail[lane] = entry
            if not facts.steers:
                pc = (pc + 4) & MASK32
            else:
                mnem = instr.mnemonic
                if mnem == "simt_e":
                    pending += self._pair_simt_e(entry)
                if mnem == "ebreak" or mnem == "ecall":
                    pc = None
                    self._fetch_stalled_until = float("inf")
                else:
                    pc = self._predict_next(entry, instr, pc)
            entry.ready_time = ready
            entry.pending_producers = pending
            if not pending:
                heapq.heappush(ready_heap, (ready, entry.seq, entry))
            if self._fetch_blocked is not None:
                break
        self.fetch_pc = pc
        self._line_buffer = line_buffer
        fetched = seq - first_seq
        if fetched:
            self._next_seq = seq
            stats = self.stats
            stats.fetched += fetched
            stats.renames += fetched
            stats.rob_writes += fetched
            stats.regfile_reads += reads
            stats.loads += loads
            stats.stores += stores
            stats.fp_ops += fp_ops

    def _pair_simt_e(self, entry):
        """Pair a ``simt_e`` with its region's ``simt_s`` (static
        backward scan) and make it wait on that ``simt_s`` while it is
        in flight; returns the producers added (0 or 1)."""
        entry.simt_region = None
        entry.predicted_target = self._simt_region_start(entry)
        simt_s = entry.simt_region
        if simt_s is None or simt_s.executed:
            return 0
        entry.sources = [*entry.sources, (None, None, simt_s)]
        self._waiters.setdefault(simt_s.seq, []).append(entry)
        return 1

    def _predict_next(self, entry, instr, pc):
        mnem = instr.mnemonic
        if mnem == "jal":
            entry.predicted_taken = True
            entry.predicted_target = (pc + instr.imm) & MASK32
            if instr.rd == 1:
                self.ras.append((pc + 4) & MASK32)
            return entry.predicted_target
        if mnem == "jalr":
            entry.predicted_taken = True
            if instr.rd == 0 and instr.rs1 == 1 and self.ras:
                entry.predicted_target = self.ras.pop()
                return entry.predicted_target
            predicted = self.btb.get(pc)
            if predicted is not None:
                entry.predicted_target = predicted
                return predicted
            entry.predicted_target = None
            self._fetch_blocked = entry
            return pc  # unused while blocked
        if entry.facts.is_branch:
            self.stats.branches += 1
            target = (pc + instr.imm) & MASK32
            take = self.predictor.predict(pc)
            entry.predicted_taken = take
            entry.predicted_target = target
            return target if take else (pc + 4) & MASK32
        if mnem == "simt_e":
            # The baseline treats simt_e as a loop backward branch,
            # statically predicted taken (paired in _pair_simt_e).
            self.stats.branches += 1
            region_start = entry.predicted_target
            entry.predicted_taken = region_start is not None
            return region_start if region_start is not None \
                else (pc + 4) & MASK32
        if mnem == "simt_s":
            entry.simt_latched = None
            self._active_simt_s[pc] = entry
        return (pc + 4) & MASK32

    def _simt_region_start(self, entry):
        """Find the matching simt_s for a simt_e by static backward scan."""
        addr = entry.addr - 4
        depth = 0
        while addr >= 0:
            instr = self.program.instruction_at(addr)
            if instr is None:
                return None
            if instr.mnemonic == "simt_e":
                depth += 1
            elif instr.mnemonic == "simt_s":
                if depth == 0:
                    entry.simt_region = self._active_simt_s.get(addr)
                    return addr + 4
                depth -= 1
            addr -= 4
        return None

    # -------------------------------------------------------------- issue

    def _issue(self):
        """Start up to ``issue_width`` ready entries, oldest first, as
        the FU pools allow; an entry whose pool is spent retries next
        cycle."""
        heap = self._ready_heap
        cycle = self.cycle
        pool = self._fu_slots[:]
        issued = 0
        deferred = []
        width = self.config.issue_width
        start = self._start
        while heap and issued < width and heap[0][0] <= cycle:
            entry = heapq.heappop(heap)[2]
            if entry.state != _WAITING:
                continue
            fu = _POOL_INDEX[entry.instr.mnemonic]
            if pool[fu] <= 0:
                deferred.append(entry)
                continue
            if start(entry):
                pool[fu] -= 1
                issued += 1
        self.stats.issues += issued
        for entry in deferred:
            heapq.heappush(heap, (cycle + 1, entry.seq, entry))

    def _retry_loads(self):
        blocked, self._blocked_loads = self._blocked_loads, []
        ports = self.config.num_load_ports
        starved = False
        for entry in blocked:
            if entry.state != _WAITING:
                continue
            if ports > 0:
                if self._start(entry):
                    ports -= 1
            else:
                # Port-starved (not store-blocked): will start next
                # cycle, so the cycle is not quiescent.
                starved = True
                self._blocked_loads.append(entry)
        self._ff_retry_starved = starved

    def _start(self, entry):
        """Begin execution; returns False if the load must re-try.

        The op's FU class picks the path. Ops whose whole outcome is a
        register value compute just that value; only stores and
        control ops keep an ``ExecResult``, which ``resolve_store_
        access``, ``_commit`` and ``_resolve_control`` read."""
        instr = entry.instr
        facts = entry.facts
        rs1, rs2, rs3 = read_operands(entry, self.arch)
        latency = facts.latency
        fu = facts.fu_class
        value_of = VALUE_HANDLERS.get(instr.mnemonic)
        if value_of is not None:
            value = value_of(instr, entry.addr, rs1, rs2, rs3)
            if self.fault_hook is not None:
                value = self.fault_hook.value("rob", value)
            entry.value = value
        elif fu is FUClass.LOAD:
            latency = self._exec_load(entry, instr, rs1)
            if latency is None:
                return False
        elif fu is FUClass.STORE:
            entry.result = compute(instr, entry.addr, rs1, rs2)
            latency = 1
        elif fu is FUClass.SIMT:
            if instr.mnemonic == "simt_s":
                entry.simt_latched = (rs1, rs2)
            else:
                self._exec_simt_e(entry, rs1)
        elif fu is FUClass.CSR:
            entry.value = self._csr_read(instr.csr)
        else:
            # branches, jumps and system ops
            result = compute(instr, entry.addr, rs1, rs2, rs3)
            entry.result = result
            value = result.value
            if self.fault_hook is not None and value is not None:
                value = self.fault_hook.value("rob", value)
            entry.value = value
        if latency < 1:
            latency = 1
        cycle = self.cycle
        done = cycle + latency
        entry.state = _EXECUTING
        entry.done_cycle = done
        if not facts.is_mem:
            stats = self.stats
            stats.fu_cycles += latency
            if facts.is_fp:
                stats.fpu_cycles += latency
        if self.tracer is not None:
            self.tracer.complete(instr.mnemonic, cycle, latency, pid=1,
                                 tid=self.core_id, cat="execute",
                                 args={"pc": entry.addr, "seq": entry.seq})
        heapq.heappush(self._executing, (done, entry.seq, entry))
        return True

    def _exec_load(self, entry, instr, rs1):
        """LSQ discipline; returns latency, or None if blocked.

        The youngest older store that overlaps the load decides: an
        exact match whose data is known forwards it, anything else
        blocks the load until that store drains at commit. A store
        whose address is still unknown blocks it too."""
        addr = (rs1 + instr.imm) & MASK32
        size = LOAD_SIZES[instr.mnemonic]
        seq = entry.seq
        forward = None
        for store in reversed(self.pending_stores):
            if store.seq >= seq:
                continue
            access = resolve_store_access(store, self.arch)
            if access is None:
                self._blocked_loads.append(entry)
                return None
            s_addr, s_size = access
            if not (s_addr < addr + size and addr < s_addr + s_size):
                continue
            s_res = store.result
            if s_res is None or s_addr != addr or s_size != size:
                self._blocked_loads.append(entry)
                return None
            forward = s_res.store_value
            break
        if forward is not None:
            self.stats.store_forwards += 1
            if self.tracer is not None:
                self.tracer.instant("lane_forward", self.cycle, pid=1,
                                    tid=self.core_id,
                                    args={"addr": addr})
            entry.value = finish_load(instr, forward & MASK32)
            return 1
        raw = self.hierarchy.memory.load(addr, size)
        entry.value = finish_load(instr, raw)
        if self.fault_hook is not None and entry.value is not None:
            entry.value = self.fault_hook.value("rob", entry.value)
        latency = self.hierarchy.data_access_latency(addr, self.cycle)
        if self.tracer is not None \
                and latency > self.hierarchy.config.timings.l1d_hit:
            self.tracer.instant("cache_miss", self.cycle, pid=1,
                                tid=self.core_id,
                                args={"addr": addr,
                                      "latency": latency})
        return latency

    def _exec_simt_e(self, entry, rc_value):
        simt_s = entry.simt_region
        step, end = (simt_s.simt_latched
                     if simt_s is not None and simt_s.simt_latched
                     is not None else (0, 0))
        def signed(v):
            return v - 0x100000000 if v & 0x80000000 else v
        step_s, end_s, rc_s = signed(step), signed(end), signed(rc_value)
        next_rc = rc_s + step_s
        more = (next_rc < end_s) if step_s > 0 else \
               (next_rc > end_s) if step_s < 0 else False
        entry.value = next_rc & MASK32 if more else rc_value
        entry.result = ExecResult(taken=more,
                                  target=entry.predicted_target
                                  if entry.predicted_target is not None
                                  else (entry.addr + 4) & MASK32)

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
            return self.core_id
        return 0

    # ----------------------------------------------------------- complete

    def _complete(self):
        executing = self._executing
        cycle = self.cycle
        waiters = self._waiters
        ready_heap = self._ready_heap
        while executing and executing[0][0] <= cycle:
            entry = heapq.heappop(executing)[2]
            if entry.state != _EXECUTING:
                continue
            entry.state = _DONE
            woken = waiters.pop(entry.seq, None)
            if woken is not None:
                ready_at = entry.done_cycle + 1
                for waiter in woken:
                    if waiter.state != _WAITING:
                        continue
                    if waiter.ready_time < ready_at:
                        waiter.ready_time = ready_at
                    waiter.pending_producers -= 1
                    if waiter.pending_producers == 0:
                        heapq.heappush(ready_heap, (waiter.ready_time,
                                                    waiter.seq, waiter))
            if entry.facts.steers:
                self._resolve_control(entry)

    def _resolve_control(self, entry):
        if entry is self._fetch_blocked:
            self._fetch_blocked = None
            self.fetch_pc = entry.result.target
            self.btb[entry.addr] = entry.result.target
            self._fetch_stalled_until = \
                self.cycle + self.config.mispredict_penalty
            self.stats.taken_branches += 1
            return
        facts = entry.facts
        if not (facts.is_control or entry.instr.mnemonic == "simt_e"):
            return
        result = entry.result
        actual_taken = result.taken
        actual_target = result.target if actual_taken \
            else (entry.addr + 4) & MASK32
        predicted_target = entry.predicted_target if entry.predicted_taken \
            else (entry.addr + 4) & MASK32
        if facts.is_branch:
            self.predictor.update(entry.addr, actual_taken)
        if actual_taken:
            self.stats.taken_branches += 1
            self.btb[entry.addr] = actual_target
        if (actual_taken != entry.predicted_taken
                or (actual_taken and actual_target != predicted_target)):
            self._squash_after(entry, actual_target)

    def _squash_after(self, entry, correct_target):
        """Squash everything younger than the mispredicted ``entry``
        and redirect fetch to ``correct_target``. Only the lanes the
        squashed entries wrote need a new tail: the youngest kept
        entry writing each, found walking back from the cut."""
        self.stats.mispredicts += 1
        seq = entry.seq
        killed = self._squash_from(seq + 1, entry.addr)
        stores = self.pending_stores
        while stores and stores[-1].seq > seq:
            stores.pop()
        if self._blocked_loads:
            self._blocked_loads = [l for l in self._blocked_loads
                                   if l.state != _SQUASHED]
        lane_tail = self.lane_tail
        lost = set()
        for e in killed:
            lane = e.facts.lane
            if lane is not None and lane not in lost:
                lost.add(lane)
                del lane_tail[lane]
        if lost:
            for e in reversed(self.rob):
                lane = e.facts.lane
                if lane in lost:
                    lane_tail[lane] = e
                    lost.remove(lane)
                    if not lost:
                        break
        if self._active_simt_s:
            self._active_simt_s = {
                addr: ent for addr, ent in self._active_simt_s.items()
                if ent.state != _SQUASHED}
        self._fetch_blocked = None
        self.fetch_pc = correct_target
        self._fetch_stalled_until = \
            self.cycle + self.config.mispredict_penalty
        self._line_buffer = None

    def _squash_from(self, seq, pc):
        """Kill every ROB entry from ``seq`` on (a mispredict's shadow,
        or everything on an interrupt at ``pc``): cut them from the
        ROB and return them, oldest first."""
        rob = self.rob
        cut = len(rob)
        while cut and rob[cut - 1].seq >= seq:
            cut -= 1
        killed = rob[cut:]
        del rob[cut:]
        if self.tracer is not None:
            self.tracer.instant("squash", self.cycle, pid=1,
                                tid=self.core_id, cat="squash",
                                args={"pc": pc, "seq": seq,
                                      "entries": len(killed)})
        waiters = self._waiters
        for e in killed:
            e.state = _SQUASHED
            waiters.pop(e.seq, None)
        return killed

    # ------------------------------------------------------------- retire

    def _retire(self):
        """Commit up to ``retire_width`` done entries from the ROB
        head; returns how many retired."""
        rob = self.rob
        width = self.config.retire_width
        stats = self.stats
        commit = self._commit
        retired = 0
        while rob and retired < width:
            head = rob[0]
            if head.state != _DONE:
                break
            commit(head)
            self._last_commit = (head.addr, head.instr.mnemonic)
            if self.commit_hook is not None:
                self.commit_hook(head)
            if self.tracer is not None:
                self.tracer.instant("retire", self.cycle, pid=1,
                                    tid=self.core_id, cat="retire",
                                    args={"pc": head.addr,
                                          "op": head.instr.mnemonic,
                                          "seq": head.seq})
            del rob[0]
            retired += 1
            stats.retired += 1
            if self.halted:
                break
        return retired

    def _classify_stall(self):
        if not self.rob:
            if self._fetch_blocked is not None:
                return StallReason.CONTROL
            if self.cycle < self._fetch_stalled_until:
                # Redirect or I-fetch refill draining the front end.
                return StallReason.CONTROL
            return StallReason.STRUCTURAL
        head = self.rob[0]
        return self._stall_origin(head)

    def _stall_origin(self, entry):
        """Walk producer links to the stall source (like the ring's).

        Every link points to an older entry, so the walk ends; it is
        iterative, since a dependence chain may be as deep as the
        ROB."""
        while True:
            state = entry.state
            if state == _EXECUTING:
                return StallReason.MEMORY if entry.facts.is_mem else None
            if state == _DONE:
                return None  # retires next cycle; not a stall source
            if entry in self._blocked_loads:
                return StallReason.MEMORY
            for __, __, producer in entry.sources:
                if producer is not None and producer.state != _DONE:
                    entry = producer
                    break
            else:
                if entry.ready_time > self.cycle:
                    # Still traversing the front end (fetch->issue
                    # latency).
                    return StallReason.CONTROL
                # Operands ready but not issued: FU ports / issue width.
                return StallReason.STRUCTURAL

    def _commit(self, entry):
        facts = entry.facts
        if facts.steers:
            mnem = entry.instr.mnemonic
            if mnem == "ebreak" or mnem == "ecall":
                self.halted = True
                self.halt_reason = mnem
        if facts.is_store:
            result = entry.result
            self.hierarchy.memory.store(result.mem_addr,
                                        result.store_value,
                                        result.mem_size)
            self.hierarchy.data_access_latency(result.mem_addr, self.cycle,
                                               is_write=True)
            # the oldest in-flight store: stores commit in order
            del self.pending_stores[0]
        lane = facts.lane
        if lane is not None and entry.value is not None:
            if self.fault_hook is not None:
                entry.value = self.fault_hook.value("regfile", entry.value)
            self.arch.write(lane[0], lane[1], entry.value)
            if self.lane_tail.get(lane) is entry:
                del self.lane_tail[lane]


def run_ooo(program, config=None, max_cycles=None):
    """Run ``program`` to completion on a single out-of-order core."""
    core = OoOCore(config or OoOConfig(), program)
    result = core.run(max_cycles=max_cycles)
    result.core = core
    return result
