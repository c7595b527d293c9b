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
"""

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.iss import superblock
from repro.iss.simulator import ISS, WARM_OFF, HaltReason
from repro.iss.superblock import HOT, MAX_BLOCK, block_source
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


def test_warm_trace_sees_identical_streams(monkeypatch):
    class _Warm:
        def __init__(self):
            self.events = []

        def touch(self, addr):
            self.events.append(("touch", addr))

        def branch(self, pc, instr, taken, target):
            self.events.append(("branch", pc, instr.mnemonic,
                                taken, target))

    for _ in _each_threshold(monkeypatch):
        program = _torture(3, True)
        ref, sut = ISS(program), ISS(program)
        ref.warm_trace, sut.warm_trace = _Warm(), _Warm()
        _scalar_run(ref)
        sut.run()
        assert _snap(sut) == _snap(ref)
        assert sut.warm_trace.events == ref.warm_trace.events


def test_lines_only_recorder_sees_identical_touches(monkeypatch):
    """A recorder without ``branch`` (a machine with no dynamic branch
    predictor) is fed data accesses only: a ``branch`` call on either
    path would raise AttributeError."""
    class _Lines:
        def __init__(self):
            self.touches = []

        def touch(self, addr):
            self.touches.append(addr)

    for _ in _each_threshold(monkeypatch):
        program = _torture(3, True)
        ref, sut = ISS(program), ISS(program)
        ref.warm_trace, sut.warm_trace = _Lines(), _Lines()
        _scalar_run(ref)
        sut.run()
        assert _snap(sut) == _snap(ref)
        assert sut.stats.branches and sut.warm_trace.touches
        assert sut.warm_trace.touches == ref.warm_trace.touches
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
