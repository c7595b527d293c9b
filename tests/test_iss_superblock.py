"""Superblock fast path == scalar interpretation, bit for bit.

The ISS compiles straight-line runs into generated-code superblocks
(``repro.iss.superblock``) and dispatches once per block instead of
once per instruction. Nothing architectural may change: every test
here drives the same program through the scalar ``step()`` loop and
the block engine and requires identical register files, PCs, halt
reasons, stats (including the per-mnemonic histogram), and the
*ordered* stream of memory writes.

Blocks compile only once they are hot (``superblock.HOT`` entries per
Program); colder lines are stepped scalar. The short loops of torture
programs never get that hot, so each equivalence test runs twice: with
``HOT`` patched to 1 (every block entry runs compiled code) and at the
production threshold (cold lines). The resumability sweep runs each
program fresh, after it is hot, and compiled on every entry, and the
exact-stop cases pin the cold line's pauses.

Hot loops also compile into loop regions (one generated function per
loop); the region tests below pin that those stop, warm and checkpoint
exactly like block-at-a-time dispatch.
"""

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.iss import superblock
from repro.iss.simulator import ISS, WARM_OFF, HaltReason
from repro.iss.superblock import (HOT, LOOP, MAX_BLOCK, block_source,
                                  region_source)
from repro.sampling import LineTrace, WarmTrace
from repro.verify.shrink import corpus_files
from repro.verify.torture import generate

CORPUS = os.path.join(os.path.dirname(__file__), "regressions")

TORTURE_CASES = [(seed, simt) for seed in range(8)
                 for simt in (False, True)]


class _StoreRecorder:
    """Wraps a memory object, logging every store in program order."""

    def __init__(self, memory):
        self._memory = memory
        self.writes = []

    def load(self, addr, size):
        return self._memory.load(addr, size)

    def store(self, addr, value, size):
        self.writes.append((addr, value, size))
        self._memory.store(addr, value, size)

    def __getattr__(self, name):
        return getattr(self._memory, name)


def _snap(iss):
    stats = iss.stats
    return (iss.pc, list(iss.x), list(iss.f), iss.halt_reason,
            stats.instructions, stats.loads, stats.stores,
            stats.branches, stats.taken_branches, stats.fp_ops,
            stats.simt_iterations, stats.mnemonic_counts)


def _recorded(program):
    iss = ISS(program)
    iss.memory = _StoreRecorder(iss.memory)
    return iss


def _scalar_run(iss, max_steps=5_000_000):
    """The pure per-instruction reference loop (no superblocks)."""
    if iss.halt_reason is HaltReason.MAX_STEPS:
        iss.halt_reason = None
    while iss.halt_reason is None:
        if iss.stats.instructions >= max_steps:
            iss.halt_reason = HaltReason.MAX_STEPS
            break
        iss.step()
    return iss.halt_reason


def _torture(seed, simt):
    return assemble(generate(seed, ops=60, simt=simt).source)


def _each_threshold(monkeypatch):
    """Set ``superblock.HOT`` to 1 (every block entry compiles), then
    to the production value. A Program keeps its factories and entry
    counts, so callers assemble fresh Programs on each pass."""
    for hot in (1, HOT):
        monkeypatch.setattr(superblock, "HOT", hot)
        yield hot


def _built(program):
    """Keys of the blocks whose factories are built; a colder block's
    cache entry is its entry count."""
    return {key for key, entry in getattr(program, "_sb_factories",
                                          {}).items()
            if not isinstance(entry, int)}


# ---------------------------------------------------------------------
# scalar <-> superblock equivalence
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed,simt", TORTURE_CASES,
                         ids=lambda c: str(c))
def test_superblock_matches_scalar(seed, simt, monkeypatch):
    for _ in _each_threshold(monkeypatch):
        program = _torture(seed, simt)
        ref = _recorded(program)
        _scalar_run(ref)
        sut = _recorded(program)
        sut.run()
        assert _snap(sut) == _snap(ref)
        assert sut.memory.writes == ref.memory.writes


@pytest.mark.parametrize("path", corpus_files(CORPUS),
                         ids=lambda p: os.path.basename(p))
def test_corpus_replays_identically(path, monkeypatch):
    """Every shrunk reproducer (each one a program that once exposed
    an engine bug) runs bit-identically through the block path."""
    with open(path) as fh:
        source = fh.read()
    ref = _recorded(assemble(source))
    _scalar_run(ref)
    for _ in _each_threshold(monkeypatch):
        sut = _recorded(assemble(source))
        sut.run()
        assert _snap(sut) == _snap(ref)
        assert sut.memory.writes == ref.memory.writes


def test_csr_mid_program_matches_scalar(monkeypatch):
    source = """
        .text
    main:
        li    x5, 0
        li    x6, 50
    loop:
        addi  x5, x5, 1
        csrrs x7, instret, x0
        csrrw x8, 0x001, x5
        bne   x5, x6, loop
        csrrs x9, 0x001, x0
        ebreak
    """
    ref = ISS(assemble(source))
    _scalar_run(ref)
    for _ in _each_threshold(monkeypatch):
        sut = ISS(assemble(source))
        sut.run()
        assert _snap(sut) == _snap(ref)
        assert sut.csrs == ref.csrs


class _Events:
    """A recorder that logs what the ISS feeds it, in order."""

    def __init__(self):
        self.events = []

    def touch(self, addr):
        self.events.append(("touch", addr))

    def branch(self, pc, instr, taken, target):
        self.events.append(("branch", pc, instr.mnemonic, taken, target))


class _Touches:
    """A lines-only recorder: it has no ``branch`` method."""

    def __init__(self):
        self.events = []

    def touch(self, addr):
        self.events.append(addr)


def test_warm_trace_sees_identical_streams(monkeypatch):
    for _ in _each_threshold(monkeypatch):
        program = _torture(3, True)
        ref, sut = ISS(program), ISS(program)
        ref.warm_trace, sut.warm_trace = _Events(), _Events()
        _scalar_run(ref)
        sut.run()
        assert _snap(sut) == _snap(ref)
        assert sut.warm_trace.events == ref.warm_trace.events


def test_lines_only_recorder_sees_identical_touches(monkeypatch):
    """A recorder without ``branch`` (a machine with no dynamic branch
    predictor) is fed data accesses only: a ``branch`` call on either
    path would raise AttributeError."""
    for _ in _each_threshold(monkeypatch):
        program = _torture(3, True)
        ref, sut = ISS(program), ISS(program)
        ref.warm_trace, sut.warm_trace = _Touches(), _Touches()
        _scalar_run(ref)
        sut.run()
        assert _snap(sut) == _snap(ref)
        assert sut.stats.branches and sut.warm_trace.events
        assert sut.warm_trace.events == ref.warm_trace.events
    base, end = program.text_range
    lines, front_end = ("".join(block_source(program, pc, mode) or ""
                                for pc in range(base, end, 4))
                        for mode in (1, 2))
    assert "touch(" in lines and "branch(" not in lines
    assert "branch(" in front_end


def test_trace_hook_forces_scalar_and_matches():
    program = _torture(1, False)
    ref, sut = ISS(program), ISS(program)
    seen = []
    sut.trace = lambda pc, instr: seen.append(pc)
    _scalar_run(ref)
    sut.run()
    assert _snap(sut) == _snap(ref)
    assert len(seen) == sut.stats.instructions


# ---------------------------------------------------------------------
# resumability and pause boundaries
# ---------------------------------------------------------------------

@pytest.mark.parametrize("simt", (False, True), ids=("plain", "simt"))
def test_run_is_resumable_at_any_split(simt, monkeypatch):
    """run(100) -> run(250) -> run() == one uninterrupted run()."""
    ref = ISS(_torture(5, simt))
    _scalar_run(ref)
    total = ref.stats.instructions
    assert total > 10, "torture program too short to split"
    first, second = total // 3, 2 * total // 3
    for _ in _each_threshold(monkeypatch):
        sut = ISS(_torture(5, simt))
        assert sut.run(max_steps=first) is HaltReason.MAX_STEPS
        assert sut.stats.instructions == first
        assert sut.run(max_steps=second) is HaltReason.MAX_STEPS
        assert sut.stats.instructions == second
        sut.run()
        assert _snap(sut) == _snap(ref)


def test_pause_is_exact_even_mid_block(monkeypatch):
    """MAX_STEPS pauses on the precise instruction even when it falls
    inside a superblock (the block engine must fall back to scalar
    steps rather than overshoot)."""
    for _ in _each_threshold(monkeypatch):
        program = _torture(2, False)
        for bound in (1, 7, 33, 100, 101):
            iss = ISS(program)
            reason = iss.run(max_steps=bound)
            assert reason is HaltReason.MAX_STEPS
            assert iss.stats.instructions == bound
            ref = ISS(_torture(2, False))
            _scalar_run(ref, max_steps=bound)
            assert _snap(iss) == _snap(ref)


def test_halt_exactly_on_boundary_step_reports_ebreak(monkeypatch):
    """Regression: a program that halts on precisely the boundary
    instruction must report EBREAK/ECALL, never MAX_STEPS — the halt
    check comes before the step-count comparison."""
    source = """
        .text
    main:
        addi x5, x0, 1
        addi x6, x0, 2
        addi x7, x0, 3
        ebreak
    """
    for _ in _each_threshold(monkeypatch):
        program = assemble(source)
        probe = ISS(program)
        probe.run()
        total = probe.stats.instructions  # 4: ebreak is the final step
        for runner in ("run", "run_to_boundary"):
            iss = ISS(program)
            reason = getattr(iss, runner)(total)
            assert reason is HaltReason.EBREAK, runner
            assert iss.stats.instructions == total
        # one short of the halt still pauses
        iss = ISS(program)
        assert iss.run(max_steps=total - 1) is HaltReason.MAX_STEPS
        assert iss.run() is HaltReason.EBREAK


def test_run_to_boundary_defers_pause_inside_simt(monkeypatch):
    ref = ISS(_torture(4, True))
    while ref.halt_reason is None:
        if ref.stats.instructions >= 200 and not ref._simt_stack:
            ref.halt_reason = HaltReason.MAX_STEPS
            break
        ref.step()
    for _ in _each_threshold(monkeypatch):
        sut = ISS(_torture(4, True))
        sut.run_to_boundary(200)
        assert _snap(sut) == _snap(ref)
        assert not sut._simt_stack or sut.halt_reason is not \
            HaltReason.MAX_STEPS


def test_run_until_pc_stops_on_target(monkeypatch):
    source = """
        .text
    main:
        li   x5, 0
        li   x6, 20
    loop:
        addi x5, x5, 1
    target:
        addi x7, x5, 0
        bne  x5, x6, loop
        ebreak
    """
    program = assemble(source)
    target = program.symbol("target")
    ref = ISS(program)
    steps = 0
    while ref.pc != target and ref.halt_reason is None and steps < 1000:
        ref.step()
        steps += 1
    for _ in _each_threshold(monkeypatch):
        sut = ISS(assemble(source))
        sut.run_until_pc(target, 1000)
        assert sut.pc == target
        assert _snap(sut) == _snap(ref)


# ---------------------------------------------------------------------
# checkpoints and caches
# ---------------------------------------------------------------------

def test_checkpoint_mid_run_through_block_path(monkeypatch):
    ref = ISS(_torture(6, True))
    _scalar_run(ref)
    for _ in _each_threshold(monkeypatch):
        sut = ISS(_torture(6, True))
        sut.run(max_steps=150)
        restored = ISS.restore_state(sut.save_state())
        restored.run()
        assert _snap(restored) == _snap(ref)


def test_program_pickles_with_factory_cache(tmp_path):
    program = _torture(0, False)
    for _ in range(HOT):
        ISS(program).run()  # hot: builds factories on the Program
    assert _built(program)
    clone = pickle.loads(pickle.dumps(program))
    fresh = ISS(clone)
    fresh.run()
    ref = ISS(_torture(0, False))
    ref.run()
    assert _snap(fresh) == _snap(ref)


def test_block_source_is_debuggable():
    program = _torture(0, False)
    source = block_source(program, program.entry)
    assert source is not None
    assert "stats.instructions" in source
    assert MAX_BLOCK >= 1


# ---------------------------------------------------------------------
# sliced runs == one run, cold and hot
# ---------------------------------------------------------------------

def _sliced(program, k):
    """run(k), run(2k), ... until a final halt."""
    iss = _recorded(program)
    bound = k
    while iss.run(max_steps=bound) is HaltReason.MAX_STEPS:
        assert iss.stats.instructions == bound
        bound += k
    return iss


def _assert_same_run(sut, ref):
    assert _snap(sut) == _snap(ref)
    assert sut.stats.mn_counts == ref.stats.mn_counts
    assert sut.memory.writes == ref.memory.writes


@given(seed=st.integers(min_value=0, max_value=400),
       simt=st.booleans(),
       k=st.one_of(st.integers(min_value=1, max_value=7),
                   st.integers(min_value=1, max_value=5000)))
@settings(max_examples=25, deadline=None)
def test_sliced_runs_match_one_run(seed, simt, k):
    """Slicing a run at any step count changes nothing, whether the
    program's blocks are still cold, already hot, or compiled on
    every entry: each sliced run equals one scalar ``step()`` run."""
    source = generate(seed, ops=40, simt=simt).source
    ref = _recorded(assemble(source))
    _scalar_run(ref)
    _assert_same_run(_sliced(assemble(source), k), ref)  # cold lines
    program = assemble(source)
    for _ in range(2 * HOT):  # well past the compile threshold
        ISS(program).run()
    _assert_same_run(_sliced(program, k), ref)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(superblock, "HOT", 1)
        _assert_same_run(_sliced(assemble(source), k), ref)


def test_slice_sizes_do_not_change_results(monkeypatch):
    ref = _recorded(_torture(7, True))
    _scalar_run(ref)
    for _ in _each_threshold(monkeypatch):
        program = _torture(7, True)
        for k in (1, 2, 13, 512, 1 << 20):
            _assert_same_run(_sliced(_torture(7, True), k), ref)
            # one Program, hotter every pass
            _assert_same_run(_sliced(program, k), ref)


# ---------------------------------------------------------------------
# exact stops inside a cold line
# ---------------------------------------------------------------------

_LINE = """
    .text
main:
""" + "".join(f"    addi x{5 + i}, x0, {i + 1}\n" for i in range(20)) + """
target:
    addi x26, x5, 0
    ebreak
"""


def _scalar_steps(program, steps):
    ref = ISS(program)
    for _ in range(steps):
        ref.step()
    return ref


def test_cold_pause_lands_mid_line():
    for bound in (1, 3, 7, 19):
        program = assemble(_LINE)
        iss = ISS(program)
        assert iss.run(max_steps=bound) is HaltReason.MAX_STEPS
        assert iss.stats.instructions == bound
        ref = _scalar_steps(program, bound)
        ref.halt_reason = HaltReason.MAX_STEPS
        assert _snap(iss) == _snap(ref)
        assert iss.run() is HaltReason.EBREAK
        assert iss.x[26] == 1


def test_cold_run_until_pc_stops_on_target_inside_line():
    program = assemble(_LINE)
    target = program.symbol("target")
    iss = ISS(program)
    iss.run_until_pc(target, 1000)
    assert iss.pc == target
    assert iss.halt_reason is None
    assert _snap(iss) == _snap(_scalar_steps(program, 20))
    # the step limit also lands mid-line, and sets no pause
    iss = ISS(assemble(_LINE))
    iss.run_until_pc(target, 6)
    assert iss.stats.instructions == 6
    assert iss.pc == program.entry + 24
    assert iss.halt_reason is None


_SIMT_LINE = """
    .text
main:
    li     x5, 0
    li     x6, 1
    li     x7, 6
    simt_s x5, x6, x7, 1
    addi   x8, x8, 1
    addi   x9, x9, 2
    addi   x10, x10, 3
    addi   x11, x11, 4
    simt_e x5, x7
    addi   x12, x8, 0
    ebreak
"""


def test_cold_run_to_boundary_defers_pause_in_open_simt_region():
    for target in (5, 6, 9, 14, 20):
        program = assemble(_SIMT_LINE)
        ref = ISS(program)
        while ref.halt_reason is None:
            if ref.stats.instructions >= target and not ref._simt_stack:
                ref.halt_reason = HaltReason.MAX_STEPS
                break
            ref.step()
        sut = ISS(program)
        sut.run_to_boundary(target)
        assert _snap(sut) == _snap(ref)
        assert not sut._simt_stack
        assert sut.stats.instructions >= target


# ---------------------------------------------------------------------
# compile on heat
# ---------------------------------------------------------------------

def test_run_once_straight_line_compiles_nothing():
    program = assemble(_LINE)
    assert ISS(program).run() is HaltReason.EBREAK
    assert not _built(program)
    assert program._sb_factories == {(program.entry, WARM_OFF): 1}


def test_hot_loop_body_compiles_exactly_once(monkeypatch):
    builds = []
    real = superblock._build_factory

    def counting(program, start_pc, mode):
        builds.append(start_pc)
        return real(program, start_pc, mode)

    monkeypatch.setattr(superblock, "_build_factory", counting)
    program = assemble(f"""
        .text
    main:
        li   x5, 0
        li   x6, {3 * HOT}
    loop:
        addi x5, x5, 1
        bne  x5, x6, loop
        ebreak
    """)
    loop = program.symbol("loop")
    ref = ISS(program)
    _scalar_run(ref)
    for _ in range(2):  # a second ISS binds the cached factory
        iss = ISS(program)
        iss.run()
        assert _snap(iss) == _snap(ref)
    assert builds.count(loop) == 1
    assert (loop, False) in _built(program)
    assert program.entry not in builds  # entered twice: still cold


def test_heat_counts_do_not_pickle():
    program = _torture(0, False)
    ISS(program).run()
    assert program._sb_factories  # entry counts of the cold blocks
    clone = pickle.loads(pickle.dumps(program))
    assert not hasattr(clone, "_sb_factories")


# ---------------------------------------------------------------------
# loop regions
# ---------------------------------------------------------------------

#: an if/else diamond in a loop: both arms rejoin before the latch
_DIAMOND = """
    .text
main:
    li   x5, 0
    li   x6, {n}
    li   x7, 0x2000
    li   x10, 0
loop:
    andi x8, x5, 1
    beqz x8, even
    addi x10, x10, 3
    sw   x10, 0(x7)
    j    join
even:
    lw   x11, 0(x7)
    add  x10, x10, x11
join:
    addi x5, x5, 1
    blt  x5, x6, loop
    ebreak
"""

#: an inner loop nested in an outer one: two regions, the outer one
#: holding the inner loop's blocks
_NESTED = """
    .text
main:
    li   x5, 0
    li   x6, {n}
    li   x12, 0
outer:
    li   x7, 0
inner:
    add  x12, x12, x7
    addi x7, x7, 1
    slti x9, x7, 11
    bnez x9, inner
    fcvt.s.w f1, x12
    fadd.s f2, f2, f1
    addi x5, x5, 1
    blt  x5, x6, outer
    ebreak
"""

#: a loop left through a jalr (a computed jump back into the loop) and
#: a call out of it, which returns through a jalr
_JALR = """
    .text
main:
    li   x5, 0
    li   x6, {n}
    li   x10, 0
loop:
    addi x5, x5, 1
    andi x9, x5, 1
    slli x9, x9, 2
    la   x8, land
    add  x8, x8, x9
    jalr x1, x8, 0
land:
    addi x10, x10, 1
    addi x11, x11, 2
    call twice
    blt  x5, x6, loop
    ebreak
twice:
    add  x10, x10, x10
    ret
"""

_REGION_PROGRAMS = {"diamond": _DIAMOND, "nested": _NESTED,
                    "jalr": _JALR}


def _region_heads(program):
    return {key[0] for key, entry in getattr(program, "_sb_factories",
                                             {}).items()
            if len(key) == 3 and key[2] == LOOP and entry is not None}


def _scalar_snaps(program, warm=None):
    """The scalar reference's snapshot after every step, and the
    recorder it fed."""
    ref = _recorded(program)
    ref.warm_trace = warm
    snaps = [_snap(ref)]
    while ref.halt_reason is None:
        ref.step()
        snaps.append(_snap(ref))
    return snaps, ref


@pytest.mark.parametrize("name", sorted(_REGION_PROGRAMS))
def test_region_matches_scalar(name, monkeypatch):
    source = _REGION_PROGRAMS[name].format(n=3 * HOT)
    _, ref = _scalar_snaps(assemble(source))
    for _ in _each_threshold(monkeypatch):
        program = assemble(source)
        sut = _recorded(program)
        assert sut.run() is HaltReason.EBREAK
        _assert_same_run(sut, ref)
        assert _region_heads(program)
        heads = [sut._sb_cache[head] for head in _region_heads(program)
                 if head in sut._sb_cache]
        assert heads and all(block.loop is not None for block in heads)


def test_nested_loops_build_both_regions():
    program = assemble(_NESTED.format(n=3 * HOT))
    ISS(program).run()
    outer, inner = program.symbol("outer"), program.symbol("inner")
    assert _region_heads(program) == {outer, inner}
    # the outer region holds the inner loop: its back edge stays inside
    assert f"if pc == {inner}:" in region_source(program, outer)


def test_jalr_leaves_the_region():
    program = assemble(_JALR.format(n=3 * HOT))
    ISS(program).run()
    head = program.symbol("loop")
    source = region_source(program, head)
    assert "return _t" in source  # the computed jump is an exit
    assert f"if pc == {program.symbol('land')}:" not in source


@pytest.mark.parametrize("name", sorted(_REGION_PROGRAMS))
def test_region_pauses_on_every_instruction(name, monkeypatch):
    """run(b) stops on instruction b for every b of the run, then
    resumes to the same end, whether the pause lands before, inside
    or after a region's block; sliced runs at every k agree too."""
    source = _REGION_PROGRAMS[name].format(n=HOT + 4)
    snaps, ref = _scalar_snaps(assemble(source))
    total = len(snaps) - 1
    for _ in _each_threshold(monkeypatch):
        program = assemble(source)
        for _ in range(HOT):
            ISS(program).run()  # hot: every region is built
        assert _region_heads(program)
        for bound in range(1, total):
            iss = ISS(program)
            assert iss.run(max_steps=bound) is HaltReason.MAX_STEPS
            expect = snaps[bound][:3] + (HaltReason.MAX_STEPS,) \
                + snaps[bound][4:]
            assert _snap(iss) == expect
            iss.run()
            assert _snap(iss) == _snap(ref)
        for k in range(1, 40):
            _assert_same_run(_sliced(program, k), ref)


_SIMT_LOOP = """
    .text
main:
    li     x5, 0
    li     x6, 1
    li     x7, 3
    simt_s x5, x6, x7, 1
    li     x8, 0
inner:
    addi   x8, x8, 1
    add    x9, x9, x8
    slti   x10, x8, 20
    bnez   x10, inner
    simt_e x5, x7
    addi   x12, x9, 0
    ebreak
"""


def test_region_runs_to_boundary_inside_open_simt_region(monkeypatch):
    """Inside an open SIMT region the pause is deferred, so a region
    runs with the budget waived and the pause lands on the same
    instruction as the scalar loop's, after ``simt_e``."""
    for target in (6, 9, 30, 61, 100):
        ref = ISS(assemble(_SIMT_LOOP))
        while ref.halt_reason is None:
            if ref.stats.instructions >= target and not ref._simt_stack:
                ref.halt_reason = HaltReason.MAX_STEPS
                break
            ref.step()
        for _ in _each_threshold(monkeypatch):
            program = assemble(_SIMT_LOOP)
            for _ in range(HOT):
                ISS(program).run()
            assert _region_heads(program) == {program.symbol("inner")}
            sut = ISS(program)
            sut.run_to_boundary(target)
            assert _snap(sut) == _snap(ref)
            assert not sut._simt_stack


def _warm_state(recorder):
    if isinstance(recorder, LineTrace):
        return list(recorder)
    if isinstance(recorder, WarmTrace):
        return (list(recorder.lines), recorder.btb, recorder.ras,
                pickle.dumps(recorder.predictor))
    return recorder.events


@pytest.mark.parametrize("recorder", (_Events, _Touches, LineTrace,
                                      WarmTrace))
@pytest.mark.parametrize("name", sorted(_REGION_PROGRAMS))
def test_region_feeds_recorders_like_scalar(name, recorder, monkeypatch):
    source = _REGION_PROGRAMS[name].format(n=3 * HOT)
    _, ref = _scalar_snaps(assemble(source), recorder())
    for _ in _each_threshold(monkeypatch):
        program = assemble(source)
        sut = _recorded(program)
        sut.warm_trace = recorder()
        sut.run()
        _assert_same_run(sut, ref)
        assert _region_heads(program)
        assert _warm_state(sut.warm_trace) == _warm_state(ref.warm_trace)


def test_run_until_pc_stops_inside_a_hot_loop(monkeypatch):
    source = _DIAMOND.format(n=6 * HOT)
    program = assemble(source)
    ISS(program).run()  # hot: the region is built
    target = program.symbol("even")
    snaps, _ = _scalar_snaps(assemble(source))
    for _ in _each_threshold(monkeypatch):
        sut = ISS(program)
        sut.run(max_steps=5 * HOT)  # part-way, through the region
        sut.halt_reason = None
        while True:
            sut.run_until_pc(target, 1000)
            assert sut.pc == target
            assert _snap(sut) == snaps[sut.stats.instructions]
            if sut.stats.instructions > 20 * HOT:
                break
            sut.step()


def test_checkpoint_inside_a_region(monkeypatch):
    source = _NESTED.format(n=3 * HOT)
    snaps, ref = _scalar_snaps(assemble(source))
    for _ in _each_threshold(monkeypatch):
        program = assemble(source)
        for _ in range(HOT):
            ISS(program).run()
        for bound in (97, 98, 101, 250):
            sut = ISS(program)
            sut.run(max_steps=bound)
            assert sut._sb_cache[program.symbol("outer")].loop
            restored = ISS.restore_state(sut.save_state())
            assert _snap(restored) == _snap(sut)
            restored.run()
            assert _snap(restored) == _snap(ref)


def test_region_factories_do_not_pickle():
    program = assemble(_NESTED.format(n=3 * HOT))
    ISS(program).run()
    assert _region_heads(program)
    clone = pickle.loads(pickle.dumps(program))
    assert not hasattr(clone, "_sb_factories")
    fresh = ISS(clone)
    fresh.run()
    ref = ISS(assemble(_NESTED.format(n=3 * HOT)))
    ref.run()
    assert _snap(fresh) == _snap(ref)


def test_short_loop_compiles_no_region():
    """A torture-style loop of 6 iterations stays below ``HOT``: its
    latch never compiles, so neither does its region."""
    program = assemble(_DIAMOND.format(n=6))
    assert ISS(program).run() is HaltReason.EBREAK
    assert not _built(program)
    assert not _region_heads(program)


def test_oversized_region_is_not_built(monkeypatch):
    """A loop larger than ``MAX_REGION`` keeps block-at-a-time
    dispatch; its cache entry records that no region exists."""
    monkeypatch.setattr(superblock, "MAX_REGION", 4)
    source = _NESTED.format(n=3 * HOT)
    _, ref = _scalar_snaps(assemble(source))
    program = assemble(source)
    sut = _recorded(program)
    sut.run()
    _assert_same_run(sut, ref)
    outer = program.symbol("outer")
    assert program._sb_factories[(outer, WARM_OFF, LOOP)] is None
    assert _region_heads(program) == {program.symbol("inner")}


_EDGES = (0, 1, 2047, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFF800,
          0xFFFFFFFF)


@pytest.mark.parametrize("imm", (-2048, -1, 0, 1, 2047))
def test_signed_compares_match_scalar_at_the_edges(imm, monkeypatch):
    """Generated ``slt``/``slti``/``blt``/``bge`` compare sign-flipped
    patterns; the scalar path compares signed integers."""
    monkeypatch.setattr(superblock, "HOT", 1)
    for a in _EDGES:
        for b in _EDGES:
            source = f"""
                .text
            main:
                li   x5, {a}
                li   x6, {b}
                slt  x7, x5, x6
                slti x8, x5, {imm}
                addi x9, x5, 0
                li   x10, 0
                blt  x5, x6, lt
                addi x10, x10, 1
            lt:
                bge  x5, x6, ge
                addi x10, x10, 2
            ge:
                ebreak
            """
            ref = ISS(assemble(source))
            _scalar_run(ref)
            sut = ISS(assemble(source))
            sut.run()
            assert _snap(sut) == _snap(ref), (a, b)


# ---------------------------------------------------------------------
# region locals: registers and stat counts flushed in ``finally``
# ---------------------------------------------------------------------

class _Boom(Exception):
    """Raised by a patched FP helper inside a hot region."""


#: a diamond loop whose ``even`` arm raises mid-block (``fadd.s``) once
#: the patched helper reaches its Nth call: registers are written both
#: before the raise (x12, f2) and after it (x13, f3)
_RAISING = """
    .text
main:
    li   x5, 0
    li   x6, 40
    li   x7, 0x3000
    li   x10, 1
loop:
    andi x8, x5, 1
    beqz x8, even
    addi x10, x10, 3
    sw   x10, 0(x7)
    j    join
even:
    lw   x11, 0(x7)
    fcvt.s.w f2, x11
    addi x12, x12, 1
    fadd.s f3, f3, f2
    addi x13, x13, 1
    fsw  f3, 4(x7)
join:
    addi x5, x5, 1
    blt  x5, x6, loop
    ebreak
"""


def _raising_fadd(nth):
    """``fadd.s``'s helper, raising :class:`_Boom` on call ``nth``."""
    real = superblock._FP_BINARY["fadd.s"]
    calls = []

    def fadd(a, b):
        calls.append(None)
        if len(calls) == nth:
            raise _Boom
        return real(a, b)
    return fadd


def _raised_state(monkeypatch, nth):
    """Run ``_RAISING`` until the helper raises; returns the state it
    leaves (every register, ISSStats field and mnemonic tally, the
    recorder's stream and the store stream) and the Program."""
    monkeypatch.setitem(superblock._FP_BINARY, "fadd.s", _raising_fadd(nth))
    program = assemble(_RAISING)
    iss = _recorded(program)
    iss.warm_trace = _Events()
    with pytest.raises(_Boom):
        iss.run()
    stats = iss.stats
    return (iss.pc, list(iss.x), list(iss.f), stats.instructions,
            stats.loads,
            stats.stores, stats.branches, stats.taken_branches,
            stats.fp_ops, stats.simt_iterations, list(stats.mn_counts),
            iss.warm_trace.events, iss.memory.writes), program


@pytest.mark.parametrize("nth", (2, 7, 19))
def test_raise_inside_a_region_leaves_block_dispatch_state(nth,
                                                           monkeypatch):
    """A helper that raises inside a region leaves the pc, registers,
    stats, tallies and streams that block-at-a-time dispatch leaves
    (``MAX_REGION`` 0: no region is built): the region's ``finally``
    stores its register locals back, folds its counts, including the
    whole raising block's, as the block's prologue counted them, and
    hands back the raising block's pc, where dispatch leaves it."""
    monkeypatch.setattr(superblock, "HOT", 1)  # every entry compiled
    monkeypatch.setattr(superblock, "MAX_REGION", 0)
    ref, program = _raised_state(monkeypatch, nth)
    assert not _region_heads(program)
    monkeypatch.setattr(superblock, "MAX_REGION", 256)
    sut, program = _raised_state(monkeypatch, nth)
    assert _region_heads(program) == {program.symbol("loop")}
    assert sut == ref
    pc, x, f = sut[:3]
    assert pc == program.symbol("even")  # the raising block's start
    assert x[12] == nth and x[13] == nth - 1  # the raise split a block


# ---------------------------------------------------------------------
# region loads read memory pages inline
# ---------------------------------------------------------------------

_PAGE = 4096

#: every load mnemonic at a pointer (x7) that slides one byte an
#: iteration, and a store read straight back at a second sliding
#: pointer (x8); x20.. accumulate what was loaded, x22 collects any
#: store/load mismatch
_LOADS = """
    .text
main:
    li   x5, 0
    li   x6, {n}
    li   x7, {load_at}
    li   x8, {store_at}
loop:
    lb   x10, 0(x7)
    lbu  x11, 1(x7)
    lh   x12, 2(x7)
    lhu  x13, 3(x7)
    lw   x14, 4(x7)
    flw  f1, 5(x7)
    fmv.x.w x15, f1
    add  x20, x20, x10
    add  x21, x21, x11
    add  x23, x23, x12
    add  x24, x24, x13
    xor  x25, x25, x14
    xor  x26, x26, x15
    li   x9, 0x81828384
    xor  x9, x9, x5
    sw   x9, 0(x8)
    lw   x16, 0(x8)
    sub  x17, x16, x9
    or   x22, x22, x17
    sh   x9, 5(x8)
    lh   x18, 5(x8)
    add  x27, x27, x18
    addi x7, x7, 1
    addi x8, x8, 1
    addi x5, x5, 1
    blt  x5, x6, loop
    ebreak
"""

#: a page whose last 12 bytes the load pointer starts at
_LOAD_PAGE = 0x40000
#: the store pointer's page, likewise (its next page starts unmapped)
_STORE_PAGE = 0x60000


def _loads_program(mapped):
    """``_LOADS`` over the last bytes of a page and on into the next,
    and the memory writes made before it runs: the load page and its
    next page both written (``"both"``), only the load page (``"one"``),
    or neither (``"none"``, the pages are never written)."""
    source = _LOADS.format(n=3 * HOT, load_at=_LOAD_PAGE + _PAGE - 12,
                           store_at=_STORE_PAGE + _PAGE - 12)
    pages = {"both": 2, "one": 1, "none": 0}[mapped]
    pattern = bytes((i * 37 + 0x80) & 0xFF for i in range(pages * _PAGE))
    return source, pattern


def _loads_iss(source, pattern):
    iss = ISS(assemble(source))
    iss.memory.write_bytes(_LOAD_PAGE, pattern)
    iss.memory.write_log = []
    return iss


@pytest.mark.parametrize("mapped", ("both", "one", "none"))
def test_region_loads_match_scalar_at_page_edges(mapped, monkeypatch):
    """Loads of every size and signedness, in a page's last 8 bytes,
    across into a mapped and an unmapped next page and on a page never
    written, read what ``step()`` reads; a load reads the store before
    it; ``write_log`` gets every store, in order."""
    source, pattern = _loads_program(mapped)
    ref = _loads_iss(source, pattern)
    _scalar_run(ref)
    assert ref.x[22] == 0 and ref.memory.write_log
    for _ in _each_threshold(monkeypatch):
        sut = _loads_iss(source, pattern)
        program = sut.program
        assert sut.run() is HaltReason.EBREAK
        assert _snap(sut) == _snap(ref)
        assert sut.stats.mn_counts == ref.stats.mn_counts
        assert sut.memory.write_log == ref.memory.write_log
        head = program.symbol("loop")
        assert _region_heads(program) == {head}
        assert "page(_a >> 12)" in region_source(program, head)


#: a loop summing a word of the program's data page (x7) and one of a
#: page (x8) that is not written until the run is under way
_RELOAD = """
    .text
main:
    li   x5, 0
    li   x6, 200
    la   x7, word
    li   x8, 0x49000
loop:
    lw   x10, 0(x7)
    lw   x11, 0(x8)
    add  x20, x20, x10
    add  x21, x21, x11
    addi x5, x5, 1
    blt  x5, x6, loop
    ebreak
    .data
word: .word 3
"""

#: (run bound, word written to both pages before the run); the copy
#: is taken after the first run
_RELOADS = ((300, 5), (600, 7), (None, 1000))


def _pickled(iss):
    return pickle.loads(pickle.dumps(iss))


def _checkpointed(iss):
    return ISS.restore_state(iss.save_state())


def _reload(iss, value, bound, run):
    iss.memory.write_word(iss.program.symbol("word"), value)
    iss.memory.write_word(0x49000, value + 1)
    run(iss, bound or 5_000_000)


@pytest.mark.parametrize("copy", (_pickled, _checkpointed))
def test_restored_region_reads_its_own_pages(copy):
    """A region reads the pages of the ISS its block is bound to, not
    those of the ISS that built it, and a restored copy of an ISS
    rebinds to its own memory; pages written from outside between
    runs -- the x8 page new -- are read at once."""
    ref = ISS(assemble(_RELOAD))
    for bound, value in _RELOADS:
        _reload(ref, value, bound, _scalar_run)
    program = assemble(_RELOAD)
    for _ in range(HOT):
        ISS(program).run()  # hot: another ISS builds the region
    head = program.symbol("loop")
    original = ISS(program)
    (bound, value), *later = _RELOADS
    _reload(original, value, bound, ISS.run)
    assert original._sb_cache[head].loop is not None
    sut = copy(original)
    for bound, value in later:
        _reload(sut, value, bound, ISS.run)
    assert _snap(sut) == _snap(ref)
    assert sut._sb_cache[head].loop is not None
    # the original never sees the copy's writes
    original.run()
    alone = ISS(assemble(_RELOAD))
    _reload(alone, 5, None, _scalar_run)
    assert _snap(original) == _snap(alone)
