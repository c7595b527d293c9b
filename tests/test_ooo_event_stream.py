"""Golden digests of the OoO baseline's traced event stream.

``tests/test_engine_golden.py`` pins each cell's counters, but a
stats digest cannot see two events swap places or an event move to
another cycle: the counts stay the same. This file pins the whole
ordered stream a traced OoO run emits (dispatch, execute, squash,
retire, lane_forward and cache_miss events), so host-speed work on
``repro.baseline.ooo`` must keep every event, its cycle, its
arguments and its position.

The cells are ``nn``, the mispredict-heavy ``btree``, ``kmeans`` and a
two-thread ``kmeans`` lockstep group, at the engine-golden scale. No
kernel forwards a store to a load, so one more cell runs a small
program that does, with calls, an indirect jump, CSR reads, M/F ops
and a SIMT region run as a loop; its twin takes an interrupt mid-run.
A change that is *meant* to move the event stream re-records the
fixture with ``PYTHONPATH=src python tests/test_ooo_event_stream.py``.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.baseline import OoOConfig, OoOCore
from repro.harness import run_baseline
from repro.obs import EventTracer

FIXTURE = Path(__file__).parent / "fixtures" / "ooo_event_stream.json"

SCALE = 0.25
KERNEL_CELLS = {"ooo/nn": ("nn", 1), "ooo/btree": ("btree", 1),
                "ooo/kmeans": ("kmeans", 1),
                "ooo/kmeans@2t": ("kmeans", 2)}

# Every store is read back at once (store-to-load forwarding); the
# parity branch mispredicts; ``helper`` is reached through an indirect
# jump the BTB has not seen on the first iteration.
PROGRAM = """
main:
    la s0, buf
    li t0, 0
    li t1, 24
    li t2, 3
    fcvt.s.w f1, t2
loop:
    andi t3, t0, 1
    bnez t3, odd
    mul t4, t0, t2
    div t5, t4, t2
    fcvt.s.w f2, t0
    fdiv.s f3, f2, f1
    fadd.s f4, f4, f3
odd:
    slli t4, t0, 2
    add t4, t4, s0
    sw t0, 0(t4)
    lw t5, 0(t4)
    add s1, s1, t5
    mv a0, t0
    call triple
    la t6, helper
    jalr ra, t6, 0
    csrr a1, cycle
    addi t0, t0, 1
    blt t0, t1, loop
    la a2, out
    li t2, 2
    li t3, 1
    li t4, 10
    simt_s t2, t3, t4, 1
    slli a3, t2, 2
    add a3, a3, a2
    sw t2, 0(a3)
    lw a4, 0(a3)
    simt_e t2, t4
    ebreak
triple:
    slli a5, a0, 1
    add a0, a0, a5
    ret
helper:
    addi s2, s2, 1
    ret
trap:
    csrr s3, 0x341
    ebreak
.data
buf: .space 128
out: .space 64
"""

#: the program cells: name -> cycle at which to post an interrupt
PROGRAM_CELLS = {"ooo/program": None, "ooo/program+interrupt": 150}

CELLS = sorted([*KERNEL_CELLS, *PROGRAM_CELLS])

#: the event names the baseline emits; each must occur in some cell
EVENT_NAMES = ("dispatch", "execute", "squash", "retire",
               "lane_forward", "cache_miss")


def traced(name):
    """The traced cell's ordered event list."""
    tracer = EventTracer(max_events=1_000_000)
    if name in KERNEL_CELLS:
        workload, threads = KERNEL_CELLS[name]
        record = run_baseline(workload, scale=SCALE, threads=threads,
                              tracer=tracer)
        assert record.status == "ok" and record.verified, record.error
    else:
        program = assemble(PROGRAM)
        core = OoOCore(OoOConfig(), program)
        core.tracer = tracer
        fire = PROGRAM_CELLS[name]
        if fire is not None:
            core.run(max_cycles=fire)
            core.post_interrupt(program.symbol("trap"))
        assert core.run(max_cycles=100_000).halted
    assert tracer.dropped == 0
    return tracer.events()


def kinds(events):
    """Events counted by schema type (an execute slice is named after
    its mnemonic and carries the type in ``cat``)."""
    return Counter(e.get("cat") if e["ph"] == "X" else e["name"]
                   for e in events)


def digest(events):
    blob = json.dumps(events, sort_keys=True, separators=(",", ":"))
    return {"events": len(events),
            "kinds": dict(sorted(kinds(events).items())),
            "sha256": hashlib.sha256(blob.encode()).hexdigest()}


def test_fixture_covers_every_cell():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CELLS)


def test_cells_emit_every_event_kind():
    seen = set()
    for expected in json.loads(FIXTURE.read_text()).values():
        seen.update(expected["kinds"])
    assert set(EVENT_NAMES) <= seen


@pytest.mark.parametrize("name", sorted(CELLS))
def test_event_stream_matches_golden(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert digest(traced(name)) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {name: digest(traced(name)) for name in CELLS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
