"""Persistent run-cache properties: key sensitivity, damage tolerance,
concurrency, and the program-bytes aliasing regression.

The contract (docs/PARALLEL.md): a disk hit returns a record equal to
the one that was stored; *any* difference in the run identity —
including the workload's program bytes — produces a different key; and
nothing a hostile filesystem can contain (truncation, garbage,
concurrent writers, entries from another schema) ever raises — it all
degrades to a miss.
"""

import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.harness import (
    RunSpec,
    clear_cache,
    execute_spec,
    run_diag,
    run_machine,
)
from repro.harness import diskcache
from repro.harness.diskcache import (
    CACHE_SCHEMA,
    DiskCache,
    code_version,
    key_for,
    program_digest,
)
from repro.harness.runner import RunRecord
from repro.obs import deterministic_view
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.registry import RODINIA_WORKLOADS


@pytest.fixture(autouse=True)
def isolated(tmp_path):
    """Every test gets a fresh cache dir and cold in-memory caches."""
    diskcache.configure(None)
    clear_cache()
    yield
    diskcache.reset()
    clear_cache()


def make_record(**overrides):
    base = dict(workload="nn", machine="diag", config="F4C2",
                threads=1, simt=False, cycles=123, instructions=456,
                verified=True, status="ok", energy_j=1.5e-6,
                energy_breakdown={"alu": 1e-6}, stall_fractions={},
                extra={}, wall_seconds=0.25,
                stats={"core.cycles": 123, "core.instructions": 456})
    base.update(overrides)
    return RunRecord(**base)


# Key components mirror the runner's: strings, numbers, bools, None,
# and nested tuples of sorted override pairs.
scalars = st.one_of(st.text(max_size=8), st.integers(), st.booleans(),
                    st.none(), st.floats(allow_nan=False))
key_parts = st.lists(
    st.one_of(scalars, st.tuples(st.text(max_size=4), st.integers())),
    min_size=1, max_size=6)


class TestKeys:
    @settings(max_examples=50, deadline=None)
    @given(parts=key_parts)
    def test_key_is_stable(self, parts):
        assert key_for(parts) == key_for(parts)
        assert len(key_for(parts)) == 64
        int(key_for(parts), 16)  # hex

    @settings(max_examples=50, deadline=None)
    @given(parts=key_parts, index=st.integers(min_value=0),
           extra=st.integers())
    def test_any_changed_part_changes_key(self, parts, index, extra):
        mutated = list(parts)
        slot = index % len(mutated)
        mutated[slot] = ("__mutated__", extra)
        if mutated == parts:
            return
        assert key_for(mutated) != key_for(parts)

    @settings(max_examples=25, deadline=None)
    @given(parts=key_parts)
    def test_shorter_parts_change_key(self, parts):
        assert key_for(parts) != key_for(parts[:-1])

    def test_tuples_and_lists_hash_alike(self):
        # the runner builds keys with tuples; JSON canonicalization
        # makes the persisted form list-shaped — both must agree
        assert key_for(("diag", "nn", 0.2)) == key_for(["diag", "nn", 0.2])

    def test_key_covers_code_version(self, monkeypatch):
        before = key_for(["x"])
        monkeypatch.setattr(diskcache, "_code_version_cache",
                            "deadbeef")
        assert code_version() == "deadbeef"
        assert key_for(["x"]) != before

    def test_program_digest_tracks_bytes(self):
        a = assemble("li t0, 1\n    ebreak\n")
        b = assemble("li t0, 2\n    ebreak\n")
        assert program_digest(a) == program_digest(
            assemble("li t0, 1\n    ebreak\n"))
        assert program_digest(a) != program_digest(b)


class TestRoundtrip:
    def test_hit_returns_equal_record(self, tmp_path):
        cache = DiskCache(tmp_path)
        record = make_record()
        assert cache.put("k" * 64, record)
        got = cache.get("k" * 64)
        assert got is not record
        assert got == record
        assert got.stats == record.stats
        assert got.ipc == record.ipc
        assert cache.stats()["hits"] == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.stats()["misses"] == 1

    def test_wrong_key_slot_is_a_miss(self, tmp_path):
        # an entry renamed (or hash-colliding) to another key must not
        # be served under that key
        cache = DiskCache(tmp_path)
        cache.put("a" * 64, make_record())
        target = cache._path("b" * 64)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache._path("a" * 64).rename(target)
        assert cache.get("b" * 64) is None

    def test_unwritable_root_degrades(self):
        cache = DiskCache("/proc/definitely/not/writable")
        assert cache.put("k" * 64, make_record()) is False
        assert cache.get("k" * 64) is None  # no raise either way


DAMAGES = {
    "empty": lambda raw: "",
    "truncated": lambda raw: raw[: len(raw) // 2],
    "garbage": lambda raw: "not json at all {{{",
    "binary": lambda raw: "\x00\xff\x00\xff",
    "wrong_schema": lambda raw: json.dumps(
        {**json.loads(raw), "schema": CACHE_SCHEMA + 1}),
    "flipped_sha": lambda raw: json.dumps(
        {**json.loads(raw), "sha": "0" * 64}),
    "tampered_record": lambda raw: json.dumps(
        {**json.loads(raw),
         "record": {**json.loads(raw)["record"], "cycles": 1}}),
    "record_not_a_dict": lambda raw: json.dumps(
        {**json.loads(raw), "record": [1, 2, 3]}),
}


class TestDamage:
    @pytest.mark.parametrize("kind", sorted(DAMAGES))
    def test_damage_is_a_silent_miss(self, tmp_path, kind):
        cache = DiskCache(tmp_path)
        key = "c" * 64
        cache.put(key, make_record())
        path = cache._path(key)
        path.write_text(DAMAGES[kind](path.read_text()))
        assert cache.get(key) is None
        assert cache.stats()["dropped"] == 1
        assert not path.exists()  # damaged entries are removed

    def test_verify_reports_without_removing(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a" * 64, make_record())
        cache.put("b" * 64, make_record(cycles=999))
        cache._path("b" * 64).write_text("junk")
        report = cache.verify()
        assert report == {"checked": 2, "ok": 1, "corrupt": 1,
                          "removed": 0}
        # the audit must not mutate the cache under audit
        assert cache._path("b" * 64).exists()
        assert cache.stats()["repaired"] == 0

    def test_verify_repair_removes_only_damaged(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a" * 64, make_record())
        cache.put("b" * 64, make_record(cycles=999))
        cache._path("b" * 64).write_text("junk")
        report = cache.verify(repair=True)
        assert report == {"checked": 2, "ok": 1, "corrupt": 1,
                          "removed": 1}
        assert not cache._path("b" * 64).exists()
        assert cache.get("a" * 64) is not None
        assert cache.stats()["repaired"] == 1
        # a second pass finds a clean cache
        assert cache.verify(repair=True)["corrupt"] == 0

    def test_stray_tmp_files_ignored(self, tmp_path):
        cache = DiskCache(tmp_path)
        (tmp_path / "leftover.tmp").write_text("partial write")
        cache.put("a" * 64, make_record())
        assert cache.stats()["entries"] == 1
        assert cache.verify()["checked"] == 1


class TestConcurrency:
    def test_concurrent_writers_same_key(self, tmp_path):
        """Pool workers finishing the same spec race on one entry;
        atomic replace means readers only ever see a whole entry."""
        cache = DiskCache(tmp_path)
        key = "d" * 64
        errors = []

        def hammer(cycles):
            try:
                local = DiskCache(tmp_path)  # separate instance, as
                for __ in range(20):         # in another process
                    local.put(key, make_record(cycles=cycles))
                    got = local.get(key)
                    assert got is None or got.cycles in (111, 222)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(c,))
                   for c in (111, 222)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        final = cache.get(key)
        assert final is not None and final.cycles in (111, 222)

    def test_lru_eviction_keeps_recent(self, tmp_path):
        import os
        cache = DiskCache(tmp_path, max_entries=3)
        keys = [c * 64 for c in "abcde"]
        for i, key in enumerate(keys):
            cache.put(key, make_record(cycles=i))
            # distinct mtimes without sleeping wall-clock time
            os.utime(cache._path(key), (i, i))
        cache._evict()
        assert cache.stats()["entries"] == 3
        assert cache.get(keys[0]) is None
        assert cache.get(keys[-1]) is not None


class TestActiveConfiguration:
    def test_env_off_values(self, monkeypatch):
        diskcache.reset()
        for off in ("", "0", "off", "no", "false", "OFF"):
            monkeypatch.setenv("REPRO_DISK_CACHE", off)
            assert diskcache.active() is None

    def test_env_on_uses_default_root(self, monkeypatch, tmp_path):
        diskcache.reset()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        cache = diskcache.active()
        assert cache is not None
        assert str(tmp_path) in str(cache.root)

    def test_env_path_is_a_directory(self, monkeypatch, tmp_path):
        diskcache.reset()
        monkeypatch.setenv("REPRO_DISK_CACHE", str(tmp_path / "runs"))
        cache = diskcache.active()
        assert cache.root == tmp_path / "runs"

    def test_configure_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        cache = diskcache.configure(tmp_path)
        assert cache is not None
        assert diskcache.active() is cache  # one instance per root


class TestRunnerIntegration:
    def test_disk_hit_after_memory_clear(self, tmp_path):
        cache = diskcache.configure(tmp_path)
        fresh = run_diag("nn", config="F4C2", scale=0.2)
        assert fresh.status == "ok"
        assert cache.stats()["writes"] == 1
        clear_cache()  # kill the in-memory layer; disk must answer
        cached = run_diag("nn", config="F4C2", scale=0.2)
        assert cached is not fresh
        assert cached.cycles == fresh.cycles
        assert deterministic_view(cached.stats) \
            == deterministic_view(fresh.stats)
        assert cache.stats()["hits"] == 1

    @pytest.mark.parametrize("spec", [RunSpec.diag("nn", config="F4C2"),
                                      RunSpec.ooo("nn")],
                             ids=["diag", "ooo"])
    def test_int_scale_direct_run_is_a_float_spec_disk_hit(self, tmp_path,
                                                          spec):
        # the spec's scale is the float 1.0; a Python caller's int 1
        # must name the same disk entry, not a second one
        cache = diskcache.configure(tmp_path)
        direct = run_machine(spec.machine, "nn", config=spec.config,
                             scale=1)
        assert direct.status == "ok"
        assert cache.stats()["writes"] == 1
        clear_cache()
        served = execute_spec(spec)
        assert served is not direct
        assert cache.stats()["hits"] == 1
        assert cache.stats()["entries"] == 1
        assert deterministic_view(served.stats) \
            == deterministic_view(direct.stats)

    def test_failed_runs_never_persisted(self, tmp_path):
        cache = diskcache.configure(tmp_path)
        record = run_diag("nn", config="F4C2", scale=0.2,
                          max_cycles=10)
        assert record.status == "timed_out"
        assert cache.stats()["entries"] == 0

    def test_corrupt_disk_entry_falls_back_to_rerun(self, tmp_path):
        cache = diskcache.configure(tmp_path)
        fresh = run_diag("nn", config="F4C2", scale=0.2)
        [entry] = cache._entries()
        entry.write_text("oops")
        clear_cache()
        rerun = run_diag("nn", config="F4C2", scale=0.2)
        assert rerun.status == "ok"
        assert rerun.cycles == fresh.cycles


# =====================================================================
# Program-bytes keying: the stale-alias regression (ISSUE satellite)
# =====================================================================

SRC_V1 = """
    li t0, 1
    li t1, 2
    add t2, t0, t1
    ebreak
"""

SRC_V2 = """
    li t0, 1
    li t1, 2
    add t2, t0, t1
    add t2, t2, t2
    add t2, t2, t2
    ebreak
"""


def _register(src):
    class _Editable(Workload):
        NAME = "_editable"
        SUITE = "rodinia"
        MT_CAPABLE = False
        SRC = src

        def build(self, scale=1.0, threads=1, simt=False, seed=1234):
            return WorkloadInstance(name=self.NAME,
                                    program=assemble(self.SRC),
                                    setup=lambda memory: None,
                                    verify=lambda memory: True)

    RODINIA_WORKLOADS[_Editable.NAME] = _Editable
    return _Editable


@pytest.fixture
def editable_workload():
    yield
    RODINIA_WORKLOADS.pop("_editable", None)
    clear_cache()


class TestProgramBytesKey:
    def test_edited_workload_never_aliases(self, tmp_path,
                                           editable_workload):
        """Same name + same scale but different program bytes: the
        cache (both tiers) must treat them as different runs. Before
        program-bytes keying this returned v1's stale record for v2."""
        diskcache.configure(tmp_path)
        _register(SRC_V1)
        v1 = run_diag("_editable", config="F4C2", scale=1.0)
        assert v1.status == "ok"
        # "edit" the workload in place, as a developer iterating would
        _register(SRC_V2)
        v2 = run_diag("_editable", config="F4C2", scale=1.0)
        assert v2.status == "ok"
        assert v2 is not v1
        assert v2.instructions > v1.instructions
        # and both identities stay cached independently on disk
        clear_cache()
        again = run_diag("_editable", config="F4C2", scale=1.0)
        assert again.instructions == v2.instructions

    def test_memory_cache_also_keyed_by_bytes(self, editable_workload):
        # no disk cache: the in-memory tier alone must not alias
        _register(SRC_V1)
        v1 = run_diag("_editable", config="F4C2", scale=1.0)
        _register(SRC_V2)
        v2 = run_diag("_editable", config="F4C2", scale=1.0)
        assert v1.instructions != v2.instructions


# =====================================================================
# verify --repair across the whole damage matrix (ISSUE satellite)
# =====================================================================

class TestVerifyRepairMatrix:
    """Every corruption kind the damage matrix knows must be detected
    by the audit, left in place without ``repair``, removed with it,
    and never take a healthy neighbour down with it."""

    @pytest.mark.parametrize("kind", sorted(DAMAGES))
    def test_each_damage_kind_repaired(self, tmp_path, kind):
        cache = DiskCache(tmp_path)
        cache.put("a" * 64, make_record())
        cache.put("b" * 64, make_record(cycles=999))
        path = cache._path("b" * 64)
        path.write_text(DAMAGES[kind](path.read_text()))
        audit = cache.verify()
        assert audit == {"checked": 2, "ok": 1, "corrupt": 1,
                         "removed": 0}
        assert path.exists()  # audit alone never mutates
        repaired = cache.verify(repair=True)
        assert repaired == {"checked": 2, "ok": 1, "corrupt": 1,
                            "removed": 1}
        assert not path.exists()
        assert cache.get("a" * 64) is not None
        assert cache.stats()["repaired"] == 1
        assert cache.verify(repair=True) == {
            "checked": 1, "ok": 1, "corrupt": 0, "removed": 0}

    def test_cli_verify_repair_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        cache = DiskCache(tmp_path)
        cache.put("a" * 64, make_record())
        cache.put("b" * 64, make_record(cycles=7))
        path = cache._path("a" * 64)
        path.write_text("junk")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        assert path.exists()  # report-only
        assert main(["cache", "verify", "--dir", str(tmp_path),
                     "--repair"]) == 1
        assert not path.exists()
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out


# =====================================================================
# sampled-run keying: sampling params are run identity (ISSUE satellite)
# =====================================================================

class TestSampledCacheKey:
    """Two sampled runs differing only in schedule must never alias in
    either cache tier; an identical re-request must hit; and sampled
    vs. full-detail identities stay disjoint."""

    PARAMS = dict(period=1_500, window=300, warmup=200)

    def _run(self, tweak=None):
        from repro.sampling import SamplingParams, run_sampled

        params = dict(self.PARAMS)
        params.update(tweak or {})
        return run_sampled("nn", machine="diag", config="F4C2",
                           scale=1.0, params=SamplingParams(**params))

    def test_every_sampling_param_changes_the_key(self, tmp_path):
        cache = diskcache.configure(tmp_path)
        base = self._run()
        assert base.status == "ok"
        assert cache.stats()["writes"] == 1
        tweaks = ({"period": 1_600}, {"window": 350},
                  {"warmup": 150}, {"phase": 40},
                  {"max_windows": 2}, {"ci_floor_rel": 0.05},
                  {"warm_lines": 512})
        for count, tweak in enumerate(tweaks, start=2):
            rec = self._run(tweak=tweak)
            assert rec.status == "ok"
            assert cache.stats()["writes"] == count, \
                f"{tweak} aliased an earlier sampled run"

    def test_sampled_record_roundtrips_through_disk(self, tmp_path):
        cache = diskcache.configure(tmp_path)
        fresh = self._run()
        assert fresh.status == "ok"
        clear_cache()  # memory tier gone; disk must answer
        again = self._run()
        assert cache.stats()["hits"] == 1
        assert again is not fresh
        assert again.cycles == fresh.cycles
        assert again.extra["windows"] == fresh.extra["windows"]
        assert deterministic_view(again.stats) \
            == deterministic_view(fresh.stats)

    def test_sampled_and_full_identities_are_disjoint(self, tmp_path):
        cache = diskcache.configure(tmp_path)
        sampled = self._run()
        full = run_diag("nn", config="F4C2", scale=1.0)
        assert sampled.status == full.status == "ok"
        assert cache.stats()["writes"] == 2
        assert sampled.cycles != 0 and full.cycles != 0


# =====================================================================
# put() never raises — the encode-outside-try regression (ISSUE 10)
# =====================================================================

class _ExplodingStr:
    """An object no JSON canonicalization can stringify."""

    def __str__(self):
        raise RuntimeError("unprintable")

    __repr__ = __str__


class TestPutNeverRaises:
    """``DiskCache.put`` documents "never raises"; before ISSUE 10 the
    JSON encode ran *outside* the try, so an unserializable RunRecord
    field blew a TypeError/ValueError through the sweep that produced
    it instead of degrading to a skipped write."""

    def test_circular_record_degrades_to_dropped(self, tmp_path):
        cache = DiskCache(tmp_path)
        loop = {}
        loop["self"] = loop  # json.dumps -> ValueError (circular)
        record = make_record(extra=loop)
        assert cache.put("e" * 64, record) is False
        assert cache.stats()["dropped"] == 1
        assert cache.stats()["writes"] == 0
        assert cache.get("e" * 64) is None  # nothing half-written

    def test_unstringifiable_field_degrades(self, tmp_path):
        cache = DiskCache(tmp_path)
        record = make_record(extra={"bad": _ExplodingStr()})
        assert cache.put("f" * 64, record) is False
        assert cache.stats()["dropped"] == 1

    def test_non_dataclass_record_degrades(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.put("a" * 64, {"not": "a RunRecord"}) is False
        assert cache.stats()["dropped"] == 1

    def test_healthy_writes_still_land_afterwards(self, tmp_path):
        cache = DiskCache(tmp_path)
        loop = {}
        loop["self"] = loop
        assert cache.put("e" * 64, make_record(extra=loop)) is False
        assert cache.put("a" * 64, make_record()) is True
        assert cache.get("a" * 64) is not None


# =====================================================================
# sharded layout: first-byte fan-out + migration on open (ISSUE 10)
# =====================================================================

class TestSharding:
    def test_entries_land_in_first_byte_shards(self, tmp_path):
        cache = DiskCache(tmp_path)
        for char in "abc":
            cache.put(char * 64, make_record())
        for char in "abc":
            assert (tmp_path / (char * 2)
                    / (char * 64 + ".json")).exists()
        assert cache.stats()["entries"] == 3

    def test_flat_entries_migrate_on_open(self, tmp_path):
        old = DiskCache(tmp_path)
        key = "a" * 64
        old.put(key, make_record(cycles=77))
        # simulate a pre-shard cache: move the entry back to the flat
        # location an old writer would have used
        flat = tmp_path / (key + ".json")
        os.replace(old._path(key), flat)
        fresh = DiskCache(tmp_path)  # migration on open
        assert fresh.migrated == 1
        assert not flat.exists()
        assert fresh._path(key).exists()
        got = fresh.get(key)
        assert got is not None and got.cycles == 77
        assert fresh.stats()["hits"] == 1

    def test_flat_straggler_migrates_on_access(self, tmp_path):
        # an old-version concurrent writer can still drop flat entries
        # after this instance opened; get() migrates them on touch
        cache = DiskCache(tmp_path)
        key = "b" * 64
        cache.put(key, make_record(cycles=5))
        os.replace(cache._path(key), tmp_path / (key + ".json"))
        got = cache.get(key)
        assert got is not None and got.cycles == 5
        assert cache._path(key).exists()
        assert not (tmp_path / (key + ".json")).exists()

    def test_stats_clear_verify_span_shards_and_flat(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a" * 64, make_record())
        cache.put("b" * 64, make_record())
        # one flat straggler from an old writer
        flat = tmp_path / ("c" * 64 + ".json")
        flat.write_text(cache._path("a" * 64).read_text())
        assert cache.stats()["entries"] == 3
        audit = cache.verify()
        assert audit["checked"] == 3
        # the straggler's content names key a..a, not c..c -> corrupt
        assert audit["corrupt"] == 1
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_eviction_spans_shards(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=2)
        keys = [c * 64 for c in "abcd"]
        for i, key in enumerate(keys):
            cache.put(key, make_record(cycles=i))
            os.utime(cache._path(key), (i, i))
        cache._evict()
        assert cache.stats()["entries"] == 2
        assert cache.get(keys[0]) is None
        assert cache.get(keys[-1]) is not None


# =====================================================================
# the ok-only rule and the remote read-through write path
# =====================================================================

class TestOkOnlyStore:
    def test_put_refuses_non_ok_records(self, tmp_path):
        cache = DiskCache(tmp_path)
        for status in ("timed_out", "hang", "error", "timeout",
                       "quarantined"):
            assert cache.put("a" * 64, make_record(status=status)) \
                is False
        assert cache.stats()["writes"] == 0
        assert cache.stats()["entries"] == 0

    def test_peer_fed_cache_respects_its_lru_bound(self, tmp_path):
        """A remote read-through write is a write: it is counted and
        it evicts down to ``max_entries`` like a ``put``."""
        from repro.obs import telemetry
        from repro.service import serve_in_thread

        peer = DiskCache(tmp_path / "peer")
        keys = [c * 64 for c in "abc"]
        for i, key in enumerate(keys):
            assert peer.put(key, make_record(cycles=i))
        handle = serve_in_thread(workers=1, inline=True, cache=peer,
                                 telemetry_path=tmp_path / "t.jsonl")
        try:
            local = DiskCache(tmp_path / "local", max_entries=2,
                              remote=handle.url)
            for key in keys:
                assert local.get(key) is not None
        finally:
            handle.close()
            telemetry.reset()
        assert local.remote_hits == 3
        assert local.writes == 3
        assert local.stats()["entries"] == 2
