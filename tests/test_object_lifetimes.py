"""The engines free their own garbage: no reference cycles.

A PE entry has a short, fixed life (paper Section 5.1, Figure 6): it
is armed, waits on lanes, executes, then retires or is squashed. The
simulator's window and ROB state must die the same way, by reference
counting, the moment nothing holds it: links point from consumer to
producer, and each engine (not the producer) holds its wake-up lists.
An object in a reference cycle lives on until CPython's cyclic
collector finds it, and every allocation that is not freed counts
toward the next collection, which then walks every live object.

Each case runs with a clean collector, drops everything it built, and
asserts that a collection under ``gc.DEBUG_SAVEALL`` finds none of the
engine classes below unreachable: whatever the case left behind was
freed as soon as it went out of scope.
"""

import collections
import gc

import pytest

from repro.asm import assemble
from repro.baseline import OoOConfig, OoOCore
from repro.baseline.ooo import _RobEntry
from repro.core import F4C2, DiAGProcessor
from repro.core.cluster import Activation, Cluster
from repro.core.pe import DisabledRun, PEEntry
from repro.harness import clear_cache, run_diag
from repro.iss import ISS, HaltReason
from repro.memory.cache import Cache
from repro.memory.main_memory import MainMemory
from repro.obs import deterministic_view, gc_totals
from repro.sampling import SamplingParams, run_sampled
from repro.verify.lockstep import run_lockstep

WATCHED = (PEEntry, DisabledRun, Activation, Cluster, _RobEntry,
           MainMemory, Cache, ISS)

# A loop whose data-dependent branch mispredicts every other
# iteration, with FP work in flight across the squashes.
LOOP = """
    li t0, 0
    li t1, 30
    li t2, 3
    fcvt.s.w f1, t2
    fcvt.s.w f2, t1
loop:
    fdiv.s f3, f2, f1
    fadd.s f4, f4, f3
    andi t3, t0, 1
    bnez t3, odd
    fmul.s f5, f3, f3
    fdiv.s f6, f5, f1
odd:
    la t4, cell
    sw t0, 0(t4)
    lw t5, 0(t4)
    addi t0, t0, 1
    blt t0, t1, loop
    ebreak
trap:
    ebreak
.data
cell: .word 0
"""


def _diag(**overrides):
    def case():
        proc = DiAGProcessor(F4C2.with_overrides(**overrides),
                             assemble(LOOP))
        assert proc.run().halted
    return case


def _diag_interrupt():
    program = assemble(LOOP)
    proc = DiAGProcessor(F4C2, program)
    proc.run(max_cycles=100)
    assert proc.rings[0].window, "the interrupt should squash live work"
    proc.rings[0].post_interrupt(program.symbol("trap"))
    assert proc.run().halted


def _diag_paused():
    """A run stopped on its budget with entries still in flight."""
    proc = DiAGProcessor(F4C2, assemble(LOOP))
    proc.run(max_cycles=100)
    assert proc.rings[0].window


def _diag_simt():
    clear_cache()
    record = run_diag("nn", config="F4C16", scale=0.1, simt=True)
    clear_cache()
    assert record.status == "ok"
    assert record.stats["diag.ring0.simt.regions"] > 0


def _ooo():
    core = OoOCore(OoOConfig(), assemble(LOOP))
    assert core.run().halted


def _ooo_paused():
    core = OoOCore(OoOConfig(), assemble(LOOP))
    core.run(max_cycles=100)
    assert core.rob


def _iss_reruns():
    """One program run by 12 ISS instances. Compiled blocks are cached
    per program, so every block, the once-a-run halting line included,
    is compiled and bound to the later instances."""
    program = assemble(LOOP)
    for __ in range(12):
        iss = ISS(program)
        assert iss.run() is HaltReason.EBREAK


def _lockstep(machine):
    def case():
        assert run_lockstep(assemble(LOOP), machine=machine).halted
    return case


def _sampled():
    clear_cache()
    record = run_sampled("hotspot", machine="diag", config="F4C2",
                         params=SamplingParams(period=1_000, window=300,
                                               warmup=200))
    clear_cache()
    assert record.status == "ok"
    assert record.stats["sampling.windows"] >= 2


CASES = {
    "diag-mispredicting-loop": _diag(),
    "diag-interrupt": _diag_interrupt,
    "diag-paused-in-flight": _diag_paused,
    "diag-simt-region": _diag_simt,
    "diag-dual-path": _diag(enable_dual_path=True),
    "diag-fu-share4": _diag(fu_share_factor=4),
    "ooo": _ooo,
    "ooo-paused-in-flight": _ooo_paused,
    "iss-reruns": _iss_reruns,
    "lockstep-diag": _lockstep("diag"),
    "lockstep-ooo": _lockstep("ooo"),
    "sampled": _sampled,
}


def unreachable_engine_objects(case):
    """Run ``case``, drop what it built, and count the watched objects
    that only the cyclic collector could free."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        case()
        gc.collect()
        return collections.Counter(
            type(obj).__name__ for obj in gc.garbage
            if isinstance(obj, WATCHED))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", CASES)
def test_run_leaves_no_cyclic_engine_garbage(name):
    assert unreachable_engine_objects(CASES[name]) == {}


def test_census_sees_a_cycle():
    """The census itself finds an engine object kept only by a cycle."""
    def case():
        entry = PEEntry(0, None, None, 0x1000, None, 0)
        entry.blocked_on = entry
    assert unreachable_engine_objects(case) == {"PEEntry": 1}


def test_record_meters_the_collector():
    """``sim.host.gc_collections``/``gc_collected`` are a
    ``gc_totals`` delta around the run loop, outside the deterministic
    view; ``gc_totals`` counts what a collection freed."""
    clear_cache()
    record = run_diag("nn", config="F4C2", scale=0.1)
    clear_cache()
    view = deterministic_view(record.stats)
    for name in ("sim.host.gc_collections", "sim.host.gc_collected"):
        assert record.stats[name] >= 0
        assert name not in view
    runs, freed = gc_totals()
    for __ in range(10):
        pair = [[], []]
        pair[0].append(pair[1])
        pair[1].append(pair[0])
    del pair
    gc.collect()
    after = gc_totals()
    assert after[0] > runs and after[1] - freed >= 20
