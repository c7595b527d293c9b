"""Memory substrate: main memory, caches, hierarchy, lanes, LSU."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    Cache,
    LoadStoreUnit,
    MainMemory,
    MemTimings,
    MemoryHierarchy,
    MemoryLanes,
    StridePrefetcher,
)
from repro.memory.hierarchy import HierarchyConfig


class TestMainMemory:
    def test_zero_initialized(self):
        mem = MainMemory()
        assert mem.read_word(0x1234) == 0
        assert mem.read_bytes(0, 8) == b"\x00" * 8

    def test_word_round_trip(self):
        mem = MainMemory()
        mem.write_word(0x100, 0xDEADBEEF)
        assert mem.read_word(0x100) == 0xDEADBEEF

    def test_little_endian(self):
        mem = MainMemory()
        mem.write_word(0, 0x11223344)
        assert mem.read_byte(0) == 0x44
        assert mem.read_byte(3) == 0x11

    def test_cross_page_access(self):
        mem = MainMemory()
        addr = 4096 - 2
        mem.write_word(addr, 0xAABBCCDD)
        assert mem.read_word(addr) == 0xAABBCCDD

    def test_signed_load(self):
        mem = MainMemory()
        mem.write_byte(0, 0x80)
        assert mem.load(0, 1, signed=True) == -128
        assert mem.load(0, 1) == 0x80

    def test_store_truncates(self):
        mem = MainMemory()
        mem.store(0, 0x123456, 2)
        assert mem.read_half(0) == 0x3456
        assert mem.read_byte(2) == 0

    def test_snapshot_words(self):
        mem = MainMemory()
        for i in range(4):
            mem.write_word(4 * i, i + 1)
        assert mem.snapshot_words(0, 4) == [1, 2, 3, 4]

    @pytest.mark.parametrize("size", [1, 2, 4])
    @pytest.mark.parametrize("signed", [False, True])
    def test_load_equals_read_bytes(self, size, signed):
        # page 1 is written, pages 0 and 2 are not; the addresses read
        # inside page 1, straddle both of its boundaries, sit in an
        # unmapped page, and touch page 1 from either side
        mem = MainMemory()
        mem.write_bytes(4096, bytes((7 * i + 0x81) & 0xFF
                                    for i in range(4096)))
        addrs = [4096, 4096 + 100, 8192 - size,         # inside page 1
                 4096 - 1, 4096 - 2, 8192 - 1, 8192 - 3,  # straddling
                 0, 100, 8192 + 200,                    # unmapped
                 4096 - size, 8192]                     # next to page 1
        for addr in addrs:
            raw = int.from_bytes(mem.read_bytes(addr, size), "little")
            if signed and raw >> (8 * size - 1):
                raw -= 1 << (8 * size)
            assert mem.load(addr, size, signed=signed) == raw, addr
        assert mem.load(100, size, signed=signed) == 0
        assert mem.load(8192 - 2, 4) == mem.read_half(8192 - 2) != 0

    @given(addr=st.integers(min_value=0, max_value=1 << 20),
           data=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_bytes_round_trip(self, addr, data):
        mem = MainMemory()
        mem.write_bytes(addr, data)
        assert mem.read_bytes(addr, len(data)) == data


class TestCache:
    def make(self, size=1024, ways=2, line=64, lower=None):
        return Cache("T", size, ways, line, hit_latency=2, lower=lower,
                     lower_latency=50)

    def test_cold_miss_then_hit(self):
        cache = self.make()
        assert cache.access(0x100) == 52  # 2 + 50
        assert cache.access(0x104) == 2   # same line
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = self.make(size=2 * 64, ways=2, line=64)  # one set, 2 ways
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)          # touch line 0 (now MRU)
        cache.access(2 * 64)          # evicts line 1
        assert cache.probe(0)
        assert not cache.probe(64)
        assert cache.stats.evictions == 1

    def test_dirty_writeback(self):
        cache = self.make(size=2 * 64, ways=2, line=64)
        cache.access(0, is_write=True)
        cache.access(64)
        cache.access(128)  # evicts the dirty line
        assert cache.stats.writebacks == 1

    def test_flush(self):
        cache = self.make()
        cache.access(0, is_write=True)
        cache.access(64)
        cache.flush()
        assert cache.resident_lines == 0
        assert cache.stats.writebacks == 1

    def test_two_levels(self):
        l2 = self.make(size=4096, ways=4)
        l1 = Cache("L1", 512, 2, 64, hit_latency=1, lower=l2)
        assert l1.access(0) == 1 + 52   # L1 miss -> L2 miss -> DRAM
        assert l1.access(0) == 1
        l1.flush()
        assert l1.access(0) == 1 + 2    # L1 miss, L2 hit

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            Cache("bad", 1000, 3, 64, 1)

    def test_seeded_stream_golden(self):
        """Sets are allocated on first touch; LRU order, victims and
        every counter match the eagerly allocated cache this pins."""
        import random

        cache = Cache("G", 32 * 1024, 2, 64, hit_latency=2,
                      lower_latency=50)  # 256 sets x 2 ways
        rng = random.Random(2021)
        latency = 0
        for _ in range(20_000):
            # a hot 16 KiB region plus a cold 1 MiB sweep
            if rng.random() < 0.7:
                addr = rng.randrange(16 * 1024)
            else:
                addr = rng.randrange(1 << 20)
            latency += cache.access(addr, is_write=rng.random() < 0.3)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions,
                stats.writebacks) == (12734, 7266, 6754, 2617)
        assert cache.resident_lines == 512
        assert latency == 403300
        cache.flush()
        assert stats.writebacks == 2893
        assert cache.resident_lines == 0

    def test_sets_allocated_on_first_touch(self):
        cache = self.make(size=64 * 1024, ways=2)  # 512 sets
        assert not cache.probe(0x40)
        assert len(cache._sets) == 0  # a probe allocates nothing
        cache.access(0x40)
        cache.access(0x40 + 512 * 64, is_write=True)  # same set
        assert len(cache._sets) == 1
        assert cache.resident_lines == 2
        cache.flush()
        assert len(cache._sets) == 0 and cache.stats.writebacks == 1

    def test_prefetch_counts_separately(self):
        cache = self.make()
        cache.access(0, prefetch=True)
        assert cache.stats.prefetch_fills == 1
        assert cache.stats.misses == 0
        cache.access(0)
        assert cache.stats.hits == 1


class TestHierarchy:
    def test_fetch_and_data_paths(self):
        hier = MemoryHierarchy(HierarchyConfig())
        t = hier.config.timings
        first = hier.fetch_latency(0x1000)
        assert first == t.l1i_hit + t.l2_hit + t.dram
        assert hier.fetch_latency(0x1000) == t.l1i_hit

    def test_bank_conflicts(self):
        cfg = HierarchyConfig()
        hier = MemoryHierarchy(cfg)
        addr = 0x2000
        hier.data_access_latency(addr, cycle=0)
        # same bank, same cycle: queued behind the first request
        before = hier.stats_bank_conflicts
        hier.data_access_latency(addr, cycle=0)
        assert hier.stats_bank_conflicts == before + 1

    def test_different_banks_no_conflict(self):
        hier = MemoryHierarchy(HierarchyConfig())
        hier.data_access_latency(0, cycle=0)
        before = hier.stats_bank_conflicts
        hier.data_access_latency(64, cycle=0)   # next line -> next bank
        assert hier.stats_bank_conflicts == before

    def test_functional_passthrough(self):
        hier = MemoryHierarchy()
        hier.store(100, 0xAB, 1)
        assert hier.load(100, 1) == 0xAB

    def test_reset_stats(self):
        hier = MemoryHierarchy()
        hier.data_access_latency(0, 0)
        hier.reset_stats()
        assert hier.l1d.stats.accesses == 0


class TestMemoryLanes:
    def test_exact_forwarding(self):
        lanes = MemoryLanes()
        lanes.record_store(0x100, 0xAB, 4)
        assert lanes.lookup(0x100, 4) == 0xAB
        assert lanes.stats_forwards == 1

    def test_size_mismatch_misses(self):
        lanes = MemoryLanes()
        lanes.record_store(0x100, 0xAB, 4)
        assert lanes.lookup(0x100, 2) is None
        assert lanes.overlaps_any(0x102, 1)

    def test_overlapping_store_replaces(self):
        lanes = MemoryLanes()
        lanes.record_store(0x100, 0x11111111, 4)
        lanes.record_store(0x102, 0x22, 1)   # partial overwrite
        assert lanes.lookup(0x100, 4) is None  # stale entry dropped
        assert lanes.lookup(0x102, 1) == 0x22

    def test_capacity_eviction(self):
        lanes = MemoryLanes(capacity=2)
        lanes.record_store(0, 1, 4)
        lanes.record_store(8, 2, 4)
        lanes.record_store(16, 3, 4)
        assert lanes.lookup(0, 4) is None
        assert lanes.lookup(16, 4) == 3

    def test_copy_into(self):
        a, b = MemoryLanes(), MemoryLanes()
        a.record_store(4, 9, 4)
        a.copy_into(b)
        assert b.lookup(4, 4) == 9

    @given(stores=st.lists(
        st.tuples(st.integers(0, 60).map(lambda x: x * 4),
                  st.integers(0, 0xFFFFFFFF)), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_lookup_returns_last_store(self, stores):
        lanes = MemoryLanes(capacity=64)
        latest = {}
        for addr, value in stores:
            lanes.record_store(addr, value, 4)
            latest[addr] = value & 0xFFFFFFFF
        for addr, value in latest.items():
            assert lanes.lookup(addr, 4) == value


class TestLSU:
    def make(self):
        hier = MemoryHierarchy(HierarchyConfig())
        return LoadStoreUnit(hier, queue_depth=2), hier

    def test_last_line_buffer(self):
        lsu, __ = self.make()
        first, __q = lsu.access(0x100, cycle=0)
        again, queued = lsu.access(0x104, cycle=first + 1)
        assert again == lsu.buffer_hit_latency
        assert not queued
        assert lsu.stats_buffer_hits == 1

    def test_queue_full_stalls(self):
        lsu, __ = self.make()
        lsu.access(0x000, cycle=0)
        lsu.access(0x1000, cycle=0)
        lsu.access(0x2000, cycle=0)
        __, queued = lsu.access(0x3000, cycle=0)
        assert queued
        assert lsu.stats_queue_full >= 1

    def test_invalidate_buffer(self):
        lsu, __ = self.make()
        lsu.access(0x100, cycle=0)
        lsu.invalidate_buffer()
        latency, __q = lsu.access(0x100, cycle=100)
        assert latency > lsu.buffer_hit_latency


class TestPrefetcher:
    def test_stride_detection(self):
        hier = MemoryHierarchy(HierarchyConfig())
        pf = StridePrefetcher(hier.l1d, confidence_threshold=2)
        # constant stride of one line
        for i in range(5):
            pf.observe("pe0", 0x1000 + 64 * i)
        assert pf.stats_issued > 0
        # a future access should now hit
        assert hier.l1d.probe(0x1000 + 64 * 5)

    def test_irregular_stream_no_prefetch(self):
        hier = MemoryHierarchy(HierarchyConfig())
        pf = StridePrefetcher(hier.l1d, confidence_threshold=2)
        for addr in (0, 999, 64, 7777, 128):
            pf.observe("pe0", addr)
        assert pf.stats_issued == 0

    def test_per_pe_isolation(self):
        hier = MemoryHierarchy(HierarchyConfig())
        pf = StridePrefetcher(hier.l1d, confidence_threshold=2)
        # interleaved streams from two PEs, each strided
        for i in range(5):
            pf.observe("a", 0x10000 + 64 * i)
            pf.observe("b", 0x80000 + 128 * i)
        assert pf.stats_issued > 0
