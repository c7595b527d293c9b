"""Retirement-trace equivalence: the strongest ordering invariant.

Both machines retire instructions strictly in program order (DiAG via
the PC lane, the OoO core via the ROB). For a deterministic program
the *retired address sequence* must therefore equal the ISS's executed
address sequence exactly — out-of-order execution must be invisible at
retirement (paper Sections 3.1.3 and 5.1.4).
"""

import pytest

from repro.asm import assemble
from repro.baseline import OoOConfig, OoOCore
from repro.core import DiAGProcessor, F4C2, F4C16
from repro.iss import ISS

PROGRAMS = {
    "loops": """
    li s0, 0
    li s1, 12
    outer:
        li s2, 0
    inner:
        mul t0, s0, s2
        add s3, s3, t0
        addi s2, s2, 1
        li t1, 4
        blt s2, t1, inner
        addi s0, s0, 1
        blt s0, s1, outer
    ebreak
    """,
    "branchy": """
    li s0, 0
    li s1, 24
    loop:
        andi t0, s0, 3
        beqz t0, mult4
        andi t0, s0, 1
        beqz t0, even
        addi s2, s2, 1
        j next
    even:
        addi s2, s2, 2
        j next
    mult4:
        addi s2, s2, 4
    next:
        addi s0, s0, 1
        blt s0, s1, loop
    ebreak
    """,
    "memory": """
    la s0, buf
    li s1, 0
    li s2, 16
    loop:
        slli t0, s1, 2
        add t0, t0, s0
        sw s1, 0(t0)
        lw t1, 0(t0)
        add s3, s3, t1
        addi s1, s1, 1
        blt s1, s2, loop
    ebreak
    .data
    buf: .space 64
    """,
    "calls": """
    main:
        li s0, 0
        li s1, 6
    loop:
        mv a0, s0
        call twice
        add s2, s2, a0
        addi s0, s0, 1
        blt s0, s1, loop
        ebreak
    twice:
        slli a0, a0, 1
        ret
    """,
}


def iss_trace(program):
    trace = []
    iss = ISS(program, trace=lambda pc, instr: trace.append(pc))
    iss.run(max_steps=200_000)
    return trace


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("config", [F4C2, F4C16])
def test_diag_retires_in_iss_order(name, config):
    program = assemble(PROGRAMS[name])
    reference = iss_trace(program)

    proc = DiAGProcessor(config, program)
    retired = []
    proc.rings[0].commit_hook = lambda e: retired.append(e.addr)
    assert proc.run(max_cycles=500_000).halted
    assert retired == reference, (
        f"{name}: first divergence at index "
        f"{next(i for i, (a, b) in enumerate(zip(retired, reference)) if a != b) if retired != reference else '?'}")


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_ooo_retires_in_iss_order(name):
    program = assemble(PROGRAMS[name])
    reference = iss_trace(program)

    core = OoOCore(OoOConfig(), program)
    retired = []
    core.commit_hook = lambda e: retired.append(e.addr)
    assert core.run(max_cycles=500_000).halted
    assert retired == reference


def test_hooks_see_mnemonics():
    program = assemble("li t0, 3\nmul t1, t0, t0\nebreak\n")
    core = OoOCore(OoOConfig(), program)
    mnems = []
    core.commit_hook = lambda e: mnems.append(e.instr.mnemonic)
    core.run()
    assert mnems == ["addi", "mul", "ebreak"]
