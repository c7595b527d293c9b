"""Cluster/Activation mechanics and ring resource management."""

import pytest

from repro.asm import assemble
from repro.core import DiAGProcessor, F4C2, F4C16
from repro.core.cluster import Cluster
from repro.core.config import DiAGConfig
from repro.memory.hierarchy import MemoryHierarchy


def make_cluster(base=0x1000, slot=0):
    cfg = DiAGConfig(name="T", num_clusters=2)
    hier = MemoryHierarchy(cfg.hierarchy_config())
    instrs = [None] * cfg.pes_per_cluster
    return Cluster(slot, base, instrs, hier, cfg)


class TestCluster:
    def test_address_range(self):
        cluster = make_cluster(base=0x1000)
        assert cluster.contains(0x1000)
        assert cluster.contains(0x103C)
        assert not cluster.contains(0x1040)
        assert not cluster.contains(0xFFC)
        assert cluster.end_addr == 0x1040

    def test_arm_lifecycle(self):
        cluster = make_cluster()
        assert not cluster.busy
        activation = cluster.arm(seq=0, arm_cycle=5, ready_cycle=7)
        assert activation.cluster is cluster
        assert cluster.activation_count == 1
        assert not cluster.busy  # no entries yet -> drained
        assert cluster.live == 0

    def test_rearm_requires_drain(self):
        cluster = make_cluster()
        cluster.arm(0, 0, 1)
        cluster.live = 1  # one PE still waiting or executing
        assert cluster.busy
        with pytest.raises(AssertionError):
            cluster.arm(1, 10, 11)


class TestRingResourceManagement:
    BIG_LOOP = """
    li s0, 0
    li s1, 40
    outer:
""" + "\n".join(f"    addi t{i % 3}, t{i % 3}, 1" for i in range(64)) + """
    addi s0, s0, 1
    blt s0, s1, outer
    ebreak
    """

    def test_cluster_eviction_under_pressure(self):
        # a 5-line loop on a 2-cluster ring must evict and refetch
        program = assemble(self.BIG_LOOP)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        assert result.halted
        ring = proc.rings[0]
        assert ring._resident_count <= F4C2.num_clusters
        # lines were refetched many times because residency can't hold
        assert result.stats.lines_fetched > 40

    def test_big_ring_keeps_loop_resident(self):
        program = assemble(self.BIG_LOOP)
        proc = DiAGProcessor(F4C16, program)
        result = proc.run()
        assert result.halted
        # the loop's lines stay resident: a handful of cold/dup
        # fetches instead of one per line per iteration (~200+)
        assert result.stats.lines_fetched < 25
        assert result.stats.reuse_hits > 40

    def test_duplicate_lines_accelerate_wide_loops(self):
        # per-iteration work is wide and independent, so overlapping
        # iterations across duplicated clusters pays off (the paper's
        # "PE count acts like ROB size" effect)
        body = "\n".join(f"        mul s{2 + i}, s0, s0"
                          for i in range(6))
        src = f"""
        li s0, 1
        li s1, 100
        loop:
{body}
        div t0, s2, s0
        addi s0, s0, 1
        blt s0, s1, loop
        ebreak
        """
        program = assemble(src)
        two = DiAGProcessor(F4C2, program).run()
        sixteen = DiAGProcessor(F4C16, program).run()
        assert two.halted and sixteen.halted
        assert sixteen.cycles < two.cycles

    def test_decode_raw_fallback(self):
        # jump into data that contains valid encoded instructions:
        # the ring decodes raw words not present in the listing
        from repro.isa import encode
        from repro.isa.instructions import Instruction
        addi = encode(Instruction("addi", rd=5, rs1=0, imm=42))
        ebreak = encode(Instruction("ebreak"))
        src = f"""
        la t0, blob
        jr t0
        ebreak
        .data
        .align 6
        blob: .word {addi}, {ebreak}
        """
        program = assemble(src)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run(max_cycles=100_000)
        assert result.halted
        assert proc.rings[0].arch.x[5] == 42
