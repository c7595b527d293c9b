"""Deterministic checkpoint/restore for every simulator in the repo.

DiAG's distinguishing claim (paper Sections 4-5) is that in-flight
state lives *distributed* across the PE register lanes and cluster
buffers rather than in a central ROB, so "a restorable snapshot of this
machine" is not a handful of architectural registers: it is the whole
object graph — lane occupancy, window/heap entries, store buffers,
in-flight loads, predictor and cache state, the stats counters, even
the event-skip bookkeeping. Both engines (and the ISS) are pure,
seed-free Python with no wall-clock input, so pickling that graph *is*
an exact snapshot by construction: run N cycles, save, restore, run M
more, and every ``deterministic_view()`` stat is byte-identical to an
uninterrupted N+M run (``tests/test_checkpoint.py`` enforces this,
including a lockstep pass over the restored segment).

The only unpicklable residents are the observation hooks — tracers and
the lockstep ``commit_hook`` et al. may be closures — so
:func:`pickle_detached` detaches them around the pickle and the caller
re-attaches after restore. (Instruction execute thunks are already
stripped by ``Instruction.__getstate__`` and rebound lazily.)

The on-disk format follows the :mod:`repro.harness.diskcache` idioms:
versioned schema, sha256 content hash over the payload, atomic
temp-file + ``os.replace`` writes, and corruption detected on load
(a damaged checkpoint raises :class:`CheckpointError`, never silently
restores garbage). See docs/RESILIENCE.md.
"""

import hashlib
import json
import os
import pickle
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import telemetry
from repro.obs.resilience import (
    CKPT_BYTES,
    CKPT_RESTORE_MS,
    CKPT_SAVE_MS,
    resilience,
)

#: bump when the checkpoint container format changes; payload
#: compatibility across code versions is additionally guarded by
#: ``code_version`` in the header (a mismatch warns via ``strict``).
#: 2: a pickled Cache holds only the sets it has touched
#: 3: a run of disabled PEs is one ``DisabledRun``
#: 4: an ``Activation`` counts its live entries and the ring its
#:    executing ones (no drain-scan cursor)
#: 5: a ``PEEntry`` keeps no start cycle
#: 6: a processor or multicore CPU is an ``EngineGroup`` holding
#:    ``engines``; engines keep no fast-forward enable flag
#: 7: entries keep no ``waiters`` (engines hold the wake-up lists), a
#:    ``Cluster`` counts its live entries and an ``Activation`` holds
#:    no entry list
#: 8: an OoO ``_RobEntry`` keeps no dispatch cycle or drained flag and
#:    leaves unused slots unset; the core counts sequence numbers in
#:    an int and keeps its FU-pool sizes as a list
CKPT_SCHEMA = 8

#: on-disk magic prefix
MAGIC = b"DIAGCKPT"

#: hook attributes detached (engine-wide) before pickling: any of them
#: may hold a closure or an open tracer. Restored simulators come back
#: with these set to None; the caller re-attaches what it needs.
HOOK_ATTRS = ("tracer", "commit_hook", "fault_hook", "trace")


class CheckpointError(RuntimeError):
    """A checkpoint could not be created, validated or restored."""


@dataclass
class Checkpoint:
    """One in-memory snapshot: a pickled simulator + integrity data."""

    machine: str                    # simulator class name
    cycle: int                      # progress marker at save time
    payload: bytes                  # zlib-compressed pickle
    sha256: str                     # hex digest of the payload
    code_version: str
    schema: int = CKPT_SCHEMA
    meta: dict = field(default_factory=dict)

    def restore(self):
        return restore_state(self)


def _progress_of(sim):
    """Best progress marker for a simulator: its cycle counter, the max
    over an engine group's engines, or the ISS instruction count."""
    value = getattr(sim, "cycle", None)
    if isinstance(value, int):
        return value
    engines = getattr(sim, "engines", None)
    if engines:
        return max(engine.cycle for engine in engines)
    stats = getattr(sim, "stats", None)
    return getattr(stats, "instructions", 0) if stats is not None else 0


def _hook_sites(sim):
    """The simulator plus an engine group's engines, which carry their
    own hook attributes."""
    sites = [sim]
    sites.extend(getattr(sim, "engines", None) or ())
    # a LockstepSession-style wrapper exposes the engine it drives
    engine = getattr(sim, "engine", None)
    if engine is not None and engine not in sites:
        sites.append(engine)
    return sites


def pickle_detached(sim, hooks=HOOK_ATTRS):
    """Pickle ``sim`` with its hooks detached; the pickle's bytes.

    ``hooks`` lists the attributes set to None for the duration of the
    pickle on the simulator and its engines, and put back after it;
    pass ``hooks=()`` to pickle hooks along (only valid when every
    installed hook is itself picklable, e.g. a lockstep oracle).
    ``pickle.loads`` of the bytes is an independent copy of ``sim``
    whose detached hooks are None.
    """
    detached = []
    for site in _hook_sites(sim):
        for name in hooks:
            if hasattr(site, name) and getattr(site, name) is not None:
                detached.append((site, name, getattr(site, name)))
                setattr(site, name, None)
    try:
        return pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"cannot pickle {type(sim).__name__}: "
            f"{type(exc).__name__}: {exc}") from exc
    finally:
        for site, name, value in detached:
            setattr(site, name, value)


def save_state(sim, hooks=HOOK_ATTRS, meta=None):
    """Snapshot ``sim`` into a :class:`Checkpoint`.

    ``hooks`` is as for :func:`pickle_detached`.
    """
    start = time.perf_counter()
    raw = pickle_detached(sim, hooks)
    payload = zlib.compress(raw, level=6)
    from repro.harness.diskcache import code_version
    ckpt = Checkpoint(
        machine=type(sim).__name__,
        cycle=_progress_of(sim),
        payload=payload,
        sha256=hashlib.sha256(payload).hexdigest(),
        code_version=code_version(),
        meta=dict(meta or {}))
    reg = resilience()
    reg.inc(CKPT_BYTES, len(payload))
    save_ms = (time.perf_counter() - start) * 1000.0
    reg.histogram(CKPT_SAVE_MS).sample(save_ms)
    telemetry.emit("checkpoint_save", machine=ckpt.machine,
                   cycle=ckpt.cycle, bytes=len(payload),
                   ms=round(save_ms, 3))
    return ckpt


def restore_state(ckpt, expect=None):
    """Rebuild the simulator a :class:`Checkpoint` captured.

    Verifies schema and content hash first; ``expect`` optionally names
    the class the caller requires (mismatch raises). The restored
    object has its hook attributes set to None.
    """
    start = time.perf_counter()
    if ckpt.schema != CKPT_SCHEMA:
        raise CheckpointError(
            f"checkpoint schema {ckpt.schema} != supported {CKPT_SCHEMA}")
    digest = hashlib.sha256(ckpt.payload).hexdigest()
    if digest != ckpt.sha256:
        raise CheckpointError(
            f"checkpoint payload hash mismatch "
            f"({digest[:12]} != {ckpt.sha256[:12]}): corrupt payload")
    if expect is not None and ckpt.machine != expect:
        raise CheckpointError(
            f"checkpoint holds a {ckpt.machine}, caller expected "
            f"{expect}")
    try:
        sim = pickle.loads(zlib.decompress(ckpt.payload))
    except Exception as exc:
        raise CheckpointError(
            f"cannot unpickle {ckpt.machine} checkpoint: "
            f"{type(exc).__name__}: {exc}") from exc
    restore_ms = (time.perf_counter() - start) * 1000.0
    resilience().histogram(CKPT_RESTORE_MS).sample(restore_ms)
    telemetry.emit("checkpoint_restore", machine=ckpt.machine,
                   cycle=ckpt.cycle, ms=round(restore_ms, 3))
    return sim


# ---------------------------------------------------------------- disk

def write(ckpt, path):
    """Atomically persist a :class:`Checkpoint`.

    Layout: ``MAGIC | header-length (4 bytes LE) | header JSON |
    payload``; the header carries schema, machine, cycle, code version,
    payload hash and meta, so :func:`load` can validate before touching
    the pickle. Same temp-file + ``os.replace`` discipline as the disk
    cache: a crash mid-write can never leave a partial file visible.
    """
    path = Path(path)
    header = json.dumps({
        "schema": ckpt.schema, "machine": ckpt.machine,
        "cycle": ckpt.cycle, "sha256": ckpt.sha256,
        "code_version": ckpt.code_version, "meta": ckpt.meta,
    }, sort_keys=True).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(MAGIC)
            handle.write(len(header).to_bytes(4, "little"))
            handle.write(header)
            handle.write(ckpt.payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load(path):
    """Read and validate a checkpoint file into a :class:`Checkpoint`
    (restore separately via :func:`restore_state`). Any damage —
    truncation, bad magic, header garbage, payload hash mismatch —
    raises :class:`CheckpointError`."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from exc
    if not blob.startswith(MAGIC) or len(blob) < len(MAGIC) + 4:
        raise CheckpointError(f"{path} is not a checkpoint file")
    offset = len(MAGIC)
    hlen = int.from_bytes(blob[offset:offset + 4], "little")
    offset += 4
    try:
        header = json.loads(blob[offset:offset + hlen])
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt header") from exc
    payload = blob[offset + hlen:]
    ckpt = Checkpoint(
        machine=header.get("machine", "?"),
        cycle=header.get("cycle", 0),
        payload=payload,
        sha256=header.get("sha256", ""),
        code_version=header.get("code_version", ""),
        schema=header.get("schema", -1),
        meta=header.get("meta", {}))
    if ckpt.schema != CKPT_SCHEMA:
        raise CheckpointError(
            f"{path}: schema {ckpt.schema} != supported {CKPT_SCHEMA}")
    if hashlib.sha256(payload).hexdigest() != ckpt.sha256:
        raise CheckpointError(f"{path}: payload hash mismatch "
                              "(truncated or corrupt)")
    return ckpt


def save(sim, path, hooks=HOOK_ATTRS, meta=None):
    """:func:`save_state` + :func:`write` in one call; returns the
    in-memory :class:`Checkpoint` (its ``meta`` notes the path)."""
    ckpt = save_state(sim, hooks=hooks, meta=meta)
    write(ckpt, path)
    return ckpt
