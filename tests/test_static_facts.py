"""Per-instruction static facts and the activation drain scan.

The cycle engines read an instruction's timing-relevant facts from
:attr:`Instruction.facts`, derived once and bound privately, and a
cluster's busy check scans its activation's entries forward only. These
tests pin the contracts both shortcuts rely on: the binding is
invisible to pickles and checkpoints, clones never share mutable
state, and the drain verdict matches a full scan.
"""

import pickle

from repro.asm import assemble
from repro.core import F4C2, DiAGProcessor
from repro.core.cluster import Cluster
from repro.isa import encode
from repro.isa import instructions
from repro.isa.decoder import decode
from repro.isa.instructions import Facts, Instruction
from repro.memory.hierarchy import MemoryHierarchy

#: every public property backed by Instruction.facts
FACT_PROPERTIES = (
    "fu_class", "latency", "sources", "source_slots", "dest", "lane",
    "is_load", "is_store", "is_mem", "is_branch", "is_jump",
    "is_control", "is_fp", "is_simt", "is_system")

LOOP = """
    la s2, buf
    li s0, 0
    li s1, 24
loop:
    addi t2, t2, 1
    slli t0, s0, 2
    add t0, t0, s2
    lw t1, 0(t0)
    fcvt.s.w f1, t1
    fadd.s f2, f2, f1
    addi t1, t1, 3
    sw t1, 0(t0)
    addi t2, t2, 1
    addi s0, s0, 1
    blt s0, s1, loop
    ebreak
.data
buf: .space 96
"""


def read_every_fact(instr):
    for name in FACT_PROPERTIES:
        getattr(instr, name)


def test_pickle_bytes_ignore_the_fact_binding():
    instr = decode(encode(Instruction("fmadd.s", rd=1, rs1=2, rs2=3,
                                      rs3=4)), addr=0x80)
    before = pickle.dumps(instr)
    read_every_fact(instr)
    assert "_facts" in instr.__dict__
    assert pickle.dumps(instr) == before


def checkpoint_sha(warm, cycles=150):
    program = assemble(LOOP)
    if warm:
        for instr in program.listing.values():
            read_every_fact(instr)
    proc = DiAGProcessor(F4C2, program)
    proc.run(max_cycles=cycles)
    assert not proc.rings[0].halted
    return proc.save_state().sha256


def test_checkpoint_hash_ignores_warmed_facts(monkeypatch):
    warmed = checkpoint_sha(warm=True)
    assert checkpoint_sha(warm=False) == warmed
    # nor on which instructions share a Facts object: with a one-entry
    # table every instruction gets its own
    monkeypatch.setattr(instructions, "_FACTS", {})
    monkeypatch.setattr(instructions, "_FACTS_MAX", 1)
    assert checkpoint_sha(warm=False) == warmed


def assert_immutable(value):
    assert isinstance(value, (tuple, int, str, type(None))) \
        or type(value).__module__ == "repro.isa.instructions", value
    if isinstance(value, tuple):
        for item in value:
            assert_immutable(item)


def test_decode_clones_share_no_mutable_fact():
    word = encode(Instruction("sub", rd=5, rs1=0, rs2=7))
    first, second = decode(word), decode(word)
    for clone in (first, second):
        assert isinstance(clone.facts, Facts)
        assert_immutable(tuple(clone.facts))
    # equal operands share one immutable Facts rather than a copy each
    assert first.facts is second.facts
    first.sources.append(("x", 9))
    first.source_slots[0] = ("x", 9)
    assert second.sources == [("x", 7)]
    assert second.source_slots == [None, ("x", 7), None]
    assert decode(word).sources == [("x", 7)]


def test_simt_e_lane_is_its_control_register():
    simt_e = Instruction("simt_e", rs1=6, rs2=7)
    assert simt_e.dest is None and simt_e.lane == ("x", 6)
    add = Instruction("add", rd=3, rs1=1, rs2=2)
    assert add.lane == add.dest == ("x", 3)
    assert Instruction("add", rd=0, rs1=1, rs2=2).lane is None


def _armed_cluster():
    cluster = Cluster(0, 0x1000, [None] * F4C2.pes_per_cluster,
                      MemoryHierarchy(F4C2.hierarchy_config()), F4C2)
    cluster.arm(0, 0, 1)
    return cluster


def test_out_of_order_finish_keeps_activation_busy():
    """The ring counts an activation's live entries (on its cluster)
    down as they finish, in any order: the cluster is busy until the
    last one does."""
    cluster = _armed_cluster()
    cluster.live = 4
    for __ in range(3):
        cluster.live -= 1
        assert cluster.busy
    cluster.live -= 1
    assert not cluster.busy


def test_empty_activation_is_drained_without_latching():
    cluster = _armed_cluster()
    assert not cluster.busy
    cluster.live += 1
    assert cluster.busy
    cluster.live -= 1
    assert not cluster.busy
