"""Set-associative cache timing model with LRU replacement.

Caches are *timing-only*: data lives in :class:`MainMemory` and the
cache tracks tags to decide hit/miss latency (the modelling style the
paper uses for its RTL testbench, Section 7.1). Write policy is
write-back / write-allocate.
"""

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.prefetch_fills = 0


class _Line:
    __slots__ = ("tag", "dirty", "lru")

    def __init__(self, tag, lru):
        self.tag = tag
        self.dirty = False
        self.lru = lru


class Cache:
    """One level of cache. ``lower`` is the next level (or None = DRAM)."""

    def __init__(self, name, size_bytes, ways, line_bytes, hit_latency,
                 lower=None, lower_latency=0):
        if size_bytes % (ways * line_bytes):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"{ways} ways x {line_bytes}B lines")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        self.hit_latency = hit_latency
        self.lower = lower
        #: extra latency to reach the lower level when lower is None (DRAM)
        self.lower_latency = lower_latency
        self.stats = CacheStats()
        #: set index -> {tag: _Line}; a set's dict is made on its first
        #: access, so a large, barely touched cache (an L2 under a short
        #: program, every checkpoint of one) holds only the sets in use
        self._sets = defaultdict(dict)
        self._tick = 0
        #: optional callable(addr, is_write) observing each demand
        #: access — the transient-fault injection point for cache lines
        #: (repro.faults flips a bit in the backing word)
        self.fault_hook = None

    def _locate(self, addr):
        line_addr = addr // self.line_bytes
        return line_addr % self.num_sets, line_addr // self.num_sets

    def access(self, addr, is_write=False, prefetch=False):
        """Access one address. Returns total latency in cycles.

        A miss recursively accesses the lower level and fills the line.
        """
        self._tick += 1
        if self.fault_hook is not None and not prefetch:
            self.fault_hook(addr, is_write)
        set_index, tag = self._locate(addr)
        cache_set = self._sets[set_index]
        line = cache_set.get(tag)
        if line is not None:
            line.lru = self._tick
            if is_write:
                line.dirty = True
            if not prefetch:
                self.stats.hits += 1
            return self.hit_latency
        if prefetch:
            self.stats.prefetch_fills += 1
        else:
            self.stats.misses += 1
        miss_latency = self.hit_latency + self._fill_from_lower(addr)
        self._insert(cache_set, tag, is_write)
        return miss_latency

    def probe(self, addr):
        """True if ``addr`` is resident (no state change, no stats)."""
        set_index, tag = self._locate(addr)
        cache_set = self._sets.get(set_index)
        return cache_set is not None and tag in cache_set

    def _fill_from_lower(self, addr):
        if self.lower is not None:
            return self.lower.access(addr)
        return self.lower_latency

    def _insert(self, cache_set, tag, is_write):
        if len(cache_set) >= self.ways:
            victim_tag = min(cache_set, key=lambda t: cache_set[t].lru)
            victim = cache_set.pop(victim_tag)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
        line = _Line(tag, self._tick)
        line.dirty = is_write
        cache_set[tag] = line

    def flush(self):
        """Drop all lines (counts dirty writebacks)."""
        for cache_set in self._sets.values():
            for line in cache_set.values():
                if line.dirty:
                    self.stats.writebacks += 1
        self._sets.clear()

    @property
    def resident_lines(self):
        return sum(len(s) for s in self._sets.values())


class NullCache:
    """Placeholder for an absent cache level (e.g. I4C2 has no L2).

    Looks like a :class:`Cache` with zero latency contribution and
    empty statistics; ``access`` forwards straight to DRAM latency.
    """

    def __init__(self, name, dram_latency):
        self.name = name
        self.hit_latency = 0
        self.lower = None
        self.lower_latency = dram_latency
        self.stats = CacheStats()
        self.fault_hook = None

    def access(self, addr, is_write=False, prefetch=False):
        if self.fault_hook is not None and not prefetch:
            self.fault_hook(addr, is_write)
        self.stats.misses += not prefetch
        return self.lower_latency

    def probe(self, addr):
        return False

    def flush(self):
        pass

    @property
    def resident_lines(self):
        return 0
