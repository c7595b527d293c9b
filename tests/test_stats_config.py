"""Engine stats accounting (RingStats, OoOStats) and DiAGConfig."""

import dataclasses

import pytest

from repro.baseline.ooo import OoOStats
from repro.core import CONFIG_PRESETS, DiAGConfig, F4C2, F4C32
from repro.core.stats import RingStats, StallReason


class TestRingStats:
    def test_stall_accumulation(self):
        stats = RingStats()
        stats.stall(StallReason.MEMORY)
        stats.stall(StallReason.MEMORY, 4)
        stats.stall(StallReason.CONTROL)
        assert stats.total_stalls == 6
        fractions = stats.stall_fractions()
        assert fractions[StallReason.MEMORY] == pytest.approx(5 / 6)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_fractions(self):
        assert RingStats().stall_fractions() == {}

    def test_ipc(self):
        stats = RingStats(cycles=100, retired=42)
        assert stats.ipc == pytest.approx(0.42)
        assert RingStats().ipc == 0.0

    def test_merge_sums_counters_max_cycles(self):
        a = RingStats(cycles=100, retired=10, loads=3, reuse_hits=2)
        b = RingStats(cycles=250, retired=20, loads=4, mispredicts=1)
        a.stall(StallReason.MEMORY, 5)
        b.stall(StallReason.MEMORY, 7)
        b.stall(StallReason.CONTROL, 1)
        a.merge(b)
        assert a.cycles == 250          # wall-clock = slowest ring
        assert a.retired == 30
        assert a.loads == 7
        assert a.reuse_hits == 2
        assert a.mispredicts == 1
        assert a.stall_cycles[StallReason.MEMORY] == 12
        assert a.stall_cycles[StallReason.CONTROL] == 1

    def test_merge_energy_counters(self):
        a = RingStats(pe_active_cycles=10, fpu_active_cycles=5,
                      resident_cluster_cycles=100)
        b = RingStats(pe_active_cycles=1, fpu_active_cycles=2,
                      resident_cluster_cycles=3)
        a.merge(b)
        assert (a.pe_active_cycles, a.fpu_active_cycles,
                a.resident_cluster_cycles) == (11, 7, 103)


def _filled(cls, base, stalls):
    """A ``cls`` whose int fields hold distinct values from ``base``
    and whose stall dict holds ``stalls`` in that order."""
    stats = cls()
    for offset, spec in enumerate(dataclasses.fields(cls)):
        if spec.name != "stall_cycles":
            setattr(stats, spec.name, base + 7 * offset)
    for reason, count in stalls:
        stats.stall(reason, count)
    return stats


def _multicore_sum(parts):
    """The field-by-field OoOStats sum the multicore CPU used to write
    out by hand: the reference the shared merge must reproduce."""
    merged = OoOStats()
    for stats in parts:
        for name in ("retired", "fetched", "branches", "taken_branches",
                     "mispredicts", "loads", "stores", "store_forwards",
                     "fp_ops", "renames", "issues", "rob_writes",
                     "regfile_reads", "fu_cycles", "fpu_cycles",
                     "rob_occupancy_sum"):
            setattr(merged, name, getattr(merged, name)
                    + getattr(stats, name))
        for reason, count in stats.stall_cycles.items():
            merged.stall(reason, count)
        merged.cycles = max(merged.cycles, stats.cycles)
    return merged


class TestSharedMerge:
    PARTS = ((3, [(StallReason.CONTROL, 2), (StallReason.MEMORY, 5)]),
             (100, [(StallReason.STRUCTURAL, 1),
                    (StallReason.MEMORY, 4)]),
             (50, [(StallReason.MEMORY, 9)]))

    def test_ooo_merge_equals_multicore_sum(self):
        parts = [_filled(OoOStats, base, stalls)
                 for base, stalls in self.PARTS]
        merged = OoOStats()
        for stats in parts:
            merged.merge(stats)
        expected = _multicore_sum(parts)
        assert merged == expected
        assert list(merged.stall_cycles) == list(expected.stall_cycles) \
            == [StallReason.CONTROL, StallReason.MEMORY,
                StallReason.STRUCTURAL]

    @pytest.mark.parametrize("cls", (RingStats, OoOStats))
    def test_merge_covers_every_field(self, cls):
        a = _filled(cls, 3, self.PARTS[0][1])
        b = _filled(cls, 100, self.PARTS[1][1])
        merged = cls()
        merged.merge(a)
        merged.merge(b)
        for spec in dataclasses.fields(cls):
            name = spec.name
            if name == "cycles":
                assert merged.cycles == max(a.cycles, b.cycles)
            elif name != "stall_cycles":
                assert getattr(merged, name) \
                    == getattr(a, name) + getattr(b, name)
        assert merged.stall_cycles == {StallReason.CONTROL: 2,
                                       StallReason.MEMORY: 9,
                                       StallReason.STRUCTURAL: 1}


class TestDiAGConfig:
    def test_presets_are_frozen_views(self):
        # with_overrides returns a copy; presets stay untouched
        modified = F4C2.with_overrides(num_clusters=99)
        assert modified.num_clusters == 99
        assert F4C2.num_clusters == 2
        assert CONFIG_PRESETS["F4C2"].num_clusters == 2

    def test_total_pes(self):
        assert F4C32.total_pes == 512
        assert DiAGConfig(num_clusters=3, pes_per_cluster=8).total_pes \
            == 24

    def test_has_fp(self):
        assert F4C32.has_fp
        assert not CONFIG_PRESETS["I4C2"].has_fp

    def test_hierarchy_config_mirrors_fields(self):
        hcfg = F4C32.hierarchy_config()
        assert hcfg.l1d_size == F4C32.l1d_size
        assert hcfg.l2_size == F4C32.l2_size
        assert hcfg.line_bytes == F4C32.line_bytes

    def test_table2_fidelity(self):
        # spot-check the paper's Table 2 values on the presets
        assert CONFIG_PRESETS["I4C2"].isa == "RV32I"
        assert CONFIG_PRESETS["I4C2"].l2_size == 0
        assert CONFIG_PRESETS["F4C2"].l1d_size == 64 * 1024
        assert CONFIG_PRESETS["F4C16"].l1d_size == 128 * 1024
        for name in ("F4C2", "F4C16", "F4C32"):
            assert CONFIG_PRESETS[name].freq_ghz == 2.0
            assert CONFIG_PRESETS[name].l1i_size == 32 * 1024
            assert CONFIG_PRESETS[name].l2_size == 4 * 1024 * 1024

    def test_all_fields_overridable(self):
        # every dataclass field can be overridden without error
        for field in dataclasses.fields(DiAGConfig):
            if field.name in ("mem_timings",):
                continue
            current = getattr(F4C2, field.name)
            if isinstance(current, bool):
                value = not current
            elif isinstance(current, (int, float)):
                value = current
            else:
                value = current
            cfg = F4C2.with_overrides(**{field.name: value})
            assert getattr(cfg, field.name) == value
