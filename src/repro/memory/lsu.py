"""Cluster-level load-store unit (paper Section 5.2).

"Memory accesses in each functional unit are first checked against
memory lanes then routed to a load store unit at the cluster level,
where the previously accessed line is stored. If missed, the request is
queued and then sent to access the banked L1 D-Cache."
"""

from repro.iss.semantics import STORE_SIZES

MASK32 = 0xFFFFFFFF


def resolve_store_access(store, arch):
    """Lazily resolve a pending store's (address, size).

    Real LSQs compute store addresses as soon as the base register is
    available, independently of the store *data*; younger loads then
    only wait on genuinely overlapping stores. ``store`` is a window /
    ROB entry (duck-typed: ``instr``, ``sources``, ``result``,
    ``store_addr``); ``arch`` supplies committed register values.
    Returns (addr, size) or None while the base register is in flight.
    """
    if store.result is not None:
        return (store.result.mem_addr, store.result.mem_size)
    if store.store_addr is not None:
        return store.store_addr
    instr = store.instr
    if instr.rs1 == 0:
        base = 0
    else:
        base = None
        for regfile, index, producer in store.sources:
            if regfile == "x" and index == instr.rs1:
                if producer is None:
                    base = arch.read("x", index)
                elif producer.executed:
                    base = producer.value if producer.value is not None \
                        else 0
                break
    if base is None:
        return None
    addr = (base + instr.imm) & MASK32
    store.store_addr = (addr, STORE_SIZES[instr.mnemonic])
    return store.store_addr


class LoadStoreUnit:
    """Per-cluster LSU: recent-line buffers + bounded request queue.

    The buffer holds the last few lines touched (the memory lanes are
    set-associative, Section 5.2), so alternating accesses to two
    adjacent lines do not thrash.
    """

    BUFFER_LINES = 4

    def __init__(self, hierarchy, line_bytes=64, queue_depth=8,
                 buffer_hit_latency=1):
        self.hierarchy = hierarchy
        self.line_bytes = line_bytes
        self.queue_depth = queue_depth
        self.buffer_hit_latency = buffer_hit_latency
        self._recent_lines = []
        # (ready_cycle) completion times of in-flight requests
        self._inflight = []
        self.stats_buffer_hits = 0
        self.stats_requests = 0
        self.stats_queue_full = 0

    def _line_of(self, addr):
        return addr // self.line_bytes

    def _drain(self, cycle):
        self._inflight = [t for t in self._inflight if t > cycle]

    def access(self, addr, cycle, is_write=False):
        """Issue an access at ``cycle``; returns (latency, queued).

        ``queued`` is True when the request had to wait for a queue slot
        (a structural/memory stall the caller should account for).
        """
        line = self._line_of(addr)
        if line in self._recent_lines and not is_write:
            self.stats_buffer_hits += 1
            return self.buffer_hit_latency, False
        self.stats_requests += 1
        self._drain(cycle)
        queued = False
        issue_cycle = cycle
        if len(self._inflight) >= self.queue_depth:
            # Wait for the earliest in-flight request to retire.
            issue_cycle = min(self._inflight)
            queued = True
            self.stats_queue_full += 1
            self._drain(issue_cycle)
        wait = issue_cycle - cycle
        latency = self.hierarchy.data_access_latency(
            addr, issue_cycle, is_write=is_write)
        ready = issue_cycle + latency
        self._inflight.append(ready)
        self._recent_lines.append(line)
        if len(self._recent_lines) > self.BUFFER_LINES:
            self._recent_lines.pop(0)
        return wait + latency, queued

    def invalidate_buffer(self):
        self._recent_lines = []

    def reset(self):
        self._recent_lines = []
        self._inflight = []
