"""Deterministic checkpoint/restore: run N -> save -> restore -> run M
must equal one uninterrupted N+M run, exactly.

The contract (docs/RESILIENCE.md): every simulator in the repo —
DiAGProcessor (single- and multi-ring), OoOCore, MulticoreCPU, the ISS,
and a whole LockstepSession co-simulation — snapshots into a
:class:`repro.checkpoint.Checkpoint` and resumes with byte-identical
``deterministic_view()`` stats, identical architectural state, and (for
LockstepSession) a lockstep-clean restored segment. The on-disk format
is validated on load: any damage raises CheckpointError rather than
silently restoring garbage.
"""

import json
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.baseline.multicore import MulticoreCPU
from repro.baseline.ooo import OoOConfig, OoOCore
from repro.checkpoint import (
    CKPT_SCHEMA,
    Checkpoint,
    CheckpointError,
    load,
    restore_state,
    save,
    save_state,
    write,
)
from repro.core import CONFIG_PRESETS, DiAGProcessor
from repro.iss.simulator import ISS, HaltReason
from repro.obs import deterministic_view, collect_diag, collect_ooo
from repro.obs.resilience import (
    CKPT_BYTES,
    CKPT_SAVE_MS,
    reset_resilience,
    resilience_snapshot,
)
from repro.verify.lockstep import LockstepSession, run_lockstep
from repro.verify.torture import generate


@pytest.fixture(autouse=True)
def fresh_counters():
    reset_resilience()
    yield
    reset_resilience()


def torture_program(seed, ops=24, simt=False):
    return assemble(generate(seed, ops=ops, simt=simt).source)


def diag_stats(proc, result):
    return deterministic_view(
        collect_diag(result, proc.hierarchy).as_dict())


def ooo_stats(cores, result):
    return deterministic_view(
        collect_ooo(result, [c.hierarchy for c in cores]).as_dict())


def make_diag(program, config="F4C2", threads=1):
    return DiAGProcessor(CONFIG_PRESETS[config], program,
                         num_threads=threads)


# ---------------------------------------------------------------------
# split == uninterrupted, per engine
# ---------------------------------------------------------------------

class TestSplitEquivalence:
    def check_diag(self, program, config="F4C2", threads=1):
        full = make_diag(program, config, threads)
        full_result = full.run()
        total = full_result.cycles
        assert full_result.halted

        part = make_diag(program, config, threads)
        part.run(max_cycles=max(1, total // 2))
        ckpt = part.save_state()
        assert ckpt.machine == "DiAGProcessor"
        assert 0 < ckpt.cycle < total
        restored = DiAGProcessor.restore_state(ckpt)
        result = restored.run()

        assert result.cycles == total
        assert result.instructions == full_result.instructions
        assert diag_stats(restored, result) == \
            diag_stats(full, full_result)
        for full_ring, ring in zip(full.rings, restored.rings):
            assert ring.arch.x == full_ring.arch.x
            assert ring.arch.f == full_ring.arch.f

    def test_diag_single_ring(self):
        self.check_diag(torture_program(3))

    def test_diag_simt(self):
        self.check_diag(torture_program(5, simt=True), config="F4C16")

    def test_diag_multi_ring(self):
        self.check_diag(torture_program(7), threads=2)

    def test_ooo_core(self):
        program = torture_program(11)
        full = OoOCore(OoOConfig(), program)
        full_result = full.run()
        total = full_result.cycles
        assert full.halted

        part = OoOCore(OoOConfig(), program)
        part.run(max_cycles=max(1, total // 3))
        restored = OoOCore.restore_state(part.save_state())
        result = restored.run()
        assert result.cycles == total
        assert ooo_stats([restored], result) == \
            ooo_stats([full], full_result)
        assert restored.arch.x == full.arch.x
        assert restored.arch.f == full.arch.f

    def test_multicore(self):
        program = torture_program(13)
        full = MulticoreCPU(OoOConfig(), program, 2)
        full_result = full.run()
        total = full_result.cycles
        assert full_result.halted

        part = MulticoreCPU(OoOConfig(), program, 2)
        part.run(max_cycles=max(1, total // 2))
        restored = MulticoreCPU.restore_state(part.save_state())
        result = restored.run()
        assert result.cycles == total
        assert ooo_stats(restored.cores, result) == \
            ooo_stats(full.cores, full_result)

    def test_iss_resume_exact(self):
        program = torture_program(17)
        full = ISS(program)
        assert full.run() in (HaltReason.EBREAK, HaltReason.ECALL)
        total = full.stats.instructions

        part = ISS(program)
        assert part.run(max_steps=max(1, total // 2)) \
            is HaltReason.MAX_STEPS
        restored = ISS.restore_state(part.save_state())
        assert restored.run() is full.halt_reason
        assert restored.stats.instructions == total
        assert restored.x == full.x
        assert restored.f == full.f
        assert restored.pc == full.pc
        assert restored.stats.mnemonic_counts == \
            full.stats.mnemonic_counts

    def test_iss_final_halt_is_final(self):
        # an EBREAK halt is not a resumable pause: a restored ISS that
        # already halted must return immediately without re-executing
        program = torture_program(19)
        iss = ISS(program)
        iss.run()
        count = iss.stats.instructions
        restored = ISS.restore_state(iss.save_state())
        assert restored.run() is iss.halt_reason
        assert restored.stats.instructions == count


# ---------------------------------------------------------------------
# hooks
# ---------------------------------------------------------------------

class TestHooks:
    def test_unpicklable_hook_detached_and_reattached(self):
        program = torture_program(3)
        proc = make_diag(program)
        seen = []
        hook = lambda entry: seen.append(entry.addr)  # noqa: E731
        proc.rings[0].commit_hook = hook
        with pytest.raises(Exception):
            pickle.dumps(hook)  # genuinely unpicklable
        ckpt = proc.save_state()
        # the live simulator keeps its hook across a save ...
        assert proc.rings[0].commit_hook is hook
        proc.run(max_cycles=400)
        assert seen
        # ... while the restored one comes back bare
        restored = DiAGProcessor.restore_state(ckpt)
        assert restored.rings[0].commit_hook is None

    def test_save_state_reports_unpicklable_graph(self):
        proc = make_diag(torture_program(3))
        proc.rings[0].arch.poison = lambda: None  # not a known hook slot
        with pytest.raises(CheckpointError, match="cannot pickle"):
            proc.save_state()


# ---------------------------------------------------------------------
# the on-disk format
# ---------------------------------------------------------------------

class TestDisk:
    def make_ckpt(self):
        iss = ISS(torture_program(23))
        iss.run(max_steps=100)
        return iss, save_state(iss, meta={"note": "halfway"})

    def test_roundtrip(self, tmp_path):
        iss, ckpt = self.make_ckpt()
        path = tmp_path / "iss.ckpt"
        write(ckpt, path)
        loaded = load(path)
        assert loaded.machine == "ISS"
        assert loaded.cycle == ckpt.cycle
        assert loaded.meta == {"note": "halfway"}
        assert loaded.sha256 == ckpt.sha256
        restored = restore_state(loaded, expect="ISS")
        restored.run()
        iss.run()
        assert restored.x == iss.x
        assert restored.stats.instructions == iss.stats.instructions

    def test_save_convenience(self, tmp_path):
        iss, _ = self.make_ckpt()
        path = tmp_path / "deep" / "nested" / "iss.ckpt"
        ckpt = save(iss, path)
        assert path.exists()
        assert load(path).sha256 == ckpt.sha256

    @pytest.mark.parametrize("damage", [
        "not_magic", "truncated", "header_garbage", "payload_flip",
        "schema", "old_schema",
    ])
    def test_damage_raises(self, tmp_path, damage):
        _, ckpt = self.make_ckpt()
        path = tmp_path / "iss.ckpt"
        write(ckpt, path)
        blob = bytearray(path.read_bytes())
        if damage == "not_magic":
            blob[:4] = b"XXXX"
        elif damage == "truncated":
            blob = blob[:len(blob) // 2]
        elif damage == "header_garbage":
            blob[10] = (blob[10] + 1) % 256
        elif damage == "payload_flip":
            blob[-1] ^= 0xFF
        elif damage in ("schema", "old_schema"):
            # rewrite the JSON header with a future schema number, or
            # the one before runs of disabled PEs became one object
            hlen = struct.unpack("<I", bytes(blob[8:12]))[0]
            header = json.loads(bytes(blob[12:12 + hlen]))
            assert header["schema"] == CKPT_SCHEMA
            header["schema"] = (CKPT_SCHEMA + 1 if damage == "schema"
                                else CKPT_SCHEMA - 1)
            raw = json.dumps(header, sort_keys=True).encode()
            blob = bytearray(bytes(blob[:8]) + struct.pack("<I", len(raw))
                             + raw + bytes(blob[12 + hlen:]))
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load(tmp_path / "nope.ckpt")

    def test_restore_rejects_tampered_payload(self):
        _, ckpt = self.make_ckpt()
        bad = Checkpoint(machine=ckpt.machine, cycle=ckpt.cycle,
                         payload=ckpt.payload + b"x",
                         sha256=ckpt.sha256,
                         code_version=ckpt.code_version)
        with pytest.raises(CheckpointError, match="hash mismatch"):
            restore_state(bad)

    def test_restore_rejects_wrong_class(self):
        _, ckpt = self.make_ckpt()
        with pytest.raises(CheckpointError, match="expected"):
            restore_state(ckpt, expect="DiAGProcessor")

    def test_counters_recorded(self):
        self.make_ckpt()
        snap = resilience_snapshot()
        assert snap[CKPT_BYTES] > 0
        assert snap[CKPT_SAVE_MS + ".count"] == 1


# ---------------------------------------------------------------------
# property: random program, random split, both engines x SIMT,
# lockstep-clean restored segment
# ---------------------------------------------------------------------

_reference_cache = {}


def _reference(seed, machine, simt):
    """Uninterrupted lockstep result for one cell (memoized: hypothesis
    revisits cells with different splits)."""
    key = (seed, machine, simt)
    if key not in _reference_cache:
        program = torture_program(seed, simt=simt)
        config = "F4C16" if simt else "F4C2"
        result = run_lockstep(program, machine=machine, config=config)
        _reference_cache[key] = result
    return _reference_cache[key]


class TestCheckpointProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=3),
           machine=st.sampled_from(["diag", "ooo"]),
           simt=st.booleans(),
           split=st.floats(min_value=0.05, max_value=0.95))
    def test_restored_run_equals_uninterrupted(self, seed, machine,
                                               simt, split):
        full = _reference(seed, machine, simt)
        assert full.halted

        program = torture_program(seed, simt=simt)
        config = "F4C16" if simt else "F4C2"
        session = LockstepSession(program, machine=machine,
                                  config=config)
        cut = max(1, int(full.cycles * split))
        session.run(max_cycles=cut)
        ckpt = session.save_state()

        # the restored segment runs with the oracle still attached: a
        # single mismatched commit would raise Divergence here
        restored = LockstepSession.restore_state(ckpt)
        result = restored.finish(restored.run())
        assert result.retired == full.retired
        assert result.cycles == full.cycles
        assert result.halted
        assert restored.engine.arch.x == restored.iss.x


# ---------------------------------------------------------------------
# property: the checkpoint round-trip composes with commit_hook
# reattach across the ISS -> engine state transfer sampling performs
# ---------------------------------------------------------------------

class TestWarmStartLockstepProperty:
    """The sampled-simulation handoff (repro.sampling): fast-forward
    the ISS, clone it through save_state/restore_state, warm-start a
    timing engine from the clone — then prove the transfer was exact by
    attaching a fresh lockstep oracle (a second clone, rebased to the
    engine's frame) and letting every commit be checked. Any state the
    transfer dropped or mangled would surface as a Divergence within
    the first few commits."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=3),
           machine=st.sampled_from(["diag", "ooo"]),
           cut=st.integers(min_value=1, max_value=48),
           window=st.integers(min_value=1, max_value=64))
    def test_warm_started_engine_is_lockstep_clean(self, seed, machine,
                                                   cut, window):
        from repro.sampling import clone_iss, warm_engine
        from repro.verify.lockstep import _Oracle, _StoreRecorder

        program = torture_program(seed, ops=32)
        iss = ISS(program)
        if iss.run_to_boundary(cut) is not HaltReason.MAX_STEPS:
            return  # program ended before the cut: nothing to window
        clone = clone_iss(iss)
        assert clone.pc == iss.pc and clone.x == iss.x

        cfg = CONFIG_PRESETS["F4C2"] if machine == "diag" \
            else OoOConfig()
        engine, hierarchy = warm_engine(machine, cfg, program, clone)

        # reattach recipe: the oracle ISS is another clone, un-paused
        # and with its instruction counter rebased to the engine's
        # frame (the count invariant is engine-relative: at each commit
        # iss.instructions == engine.retired + 1)
        oracle_iss = clone_iss(iss)
        oracle_iss.halt_reason = None
        oracle_iss.stats.instructions = 0
        engine_rec = _StoreRecorder(hierarchy.memory)
        iss_rec = _StoreRecorder(oracle_iss.memory)
        oracle = _Oracle(machine, oracle_iss, engine.arch,
                         engine.stats, engine_rec, iss_rec)
        engine.commit_hook = oracle

        engine.run(max_cycles=cfg.max_cycles, max_retired=window)
        assert engine.stats.retired >= 1
        assert engine.arch.x[1:] == oracle_iss.x[1:]
