"""Serial vs. pooled execution: same specs, byte-identical records.

The contract (docs/PARALLEL.md): a :class:`RunSpec` executed through
the process pool produces the same :class:`RunRecord` — status, IPC,
and the full deterministic stats view — as the same spec executed
in-process, and the merged cross-process aggregate equals the serial
fold. Pool-level failures (no fork, hung worker) degrade to serial
without changing any result.
"""

import json
import warnings

import pytest

from repro.harness import (
    RunSpec,
    aggregate_stats,
    clear_cache,
    execute_spec,
    resolve_jobs,
    run_specs,
)
from repro.harness import diskcache
from repro.harness import parallel
from repro.harness.sweeps import sweep_lsu_depth
from repro.obs import deterministic_view, merge_flat

SCALE = 0.2
CONFIG = "F4C2"

# >= 3 workloads x both engines (ISSUE acceptance floor)
EQUIV_SPECS = tuple(
    [RunSpec.diag(name, config=CONFIG, scale=SCALE)
     for name in ("nn", "hotspot", "srad")]
    + [RunSpec.ooo(name, scale=SCALE)
       for name in ("nn", "hotspot", "srad")])


@pytest.fixture(autouse=True)
def fresh_caches():
    """No disk cache and a cold in-memory cache on both sides of every
    comparison — equivalence must hold for genuinely fresh runs."""
    diskcache.configure(None)
    clear_cache()
    yield
    diskcache.reset()
    clear_cache()


def stats_bytes(record):
    """The byte-comparison form of a record's stats document."""
    return json.dumps(deterministic_view(record.stats),
                      sort_keys=True).encode()


class TestRunSpec:
    def test_specs_pickle_roundtrip(self):
        import pickle
        for spec in EQUIV_SPECS:
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_dict_overrides_normalized(self):
        a = RunSpec.diag("nn", config_overrides={"lsu_queue_depth": 2,
                                                 "flush_penalty": 1})
        b = RunSpec.diag("nn", config_overrides=(("flush_penalty", 1),
                                                 ("lsu_queue_depth", 2)))
        assert a == b
        assert a.config_overrides == (("flush_penalty", 1),
                                      ("lsu_queue_depth", 2))

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(machine="vliw", workload="nn")

    def test_resolve_jobs_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        assert resolve_jobs(2) == 2          # explicit arg wins
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert resolve_jobs() == 1           # garbage -> serial
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs() == 1
        assert resolve_jobs(0) == 1          # clamped


class TestSerialParallelEquivalence:
    def test_records_byte_identical(self):
        parallel_records = run_specs(EQUIV_SPECS, jobs=2)
        clear_cache()
        serial_records = run_specs(EQUIV_SPECS, jobs=1)
        assert len(parallel_records) == len(EQUIV_SPECS)
        for spec, ser, par in zip(EQUIV_SPECS, parallel_records,
                                  serial_records):
            assert ser.status == par.status == "ok", spec
            assert ser.verified and par.verified, spec
            assert ser.ipc == par.ipc, spec
            assert ser.cycles == par.cycles, spec
            assert stats_bytes(ser) == stats_bytes(par), spec

    def test_merged_aggregate_identical(self):
        parallel_records = run_specs(EQUIV_SPECS, jobs=2)
        clear_cache()
        serial_records = run_specs(EQUIV_SPECS, jobs=1)
        assert aggregate_stats(serial_records, deterministic=True) \
            == aggregate_stats(parallel_records, deterministic=True)

    def test_result_order_is_submission_order(self):
        records = run_specs(EQUIV_SPECS, jobs=2)
        for spec, record in zip(EQUIV_SPECS, records):
            assert record.workload == spec.workload
            expected = CONFIG if spec.machine == "diag" else "ooo8"
            assert record.config == expected

    def test_sweep_identical_across_job_counts(self):
        """`repro sweep --jobs N` for N in {1, 2, 4}: same table."""
        renders = set()
        for jobs in (1, 2, 4):
            clear_cache()
            result = sweep_lsu_depth("nn", scale=SCALE, depths=(1, 8),
                                     jobs=jobs)
            assert result.all_verified()
            renders.add(result.render())
        assert len(renders) == 1


class TestMergeDeterminism:
    def test_merge_is_a_pure_fold(self):
        records = run_specs(EQUIV_SPECS, jobs=1)
        docs = [r.stats for r in records]
        assert merge_flat(docs) == merge_flat(docs)
        # merging is insensitive to *where* the docs were computed,
        # not to their order (sim.halted et al. are order-free; doc
        # order is fixed by submission order upstream)
        merged = deterministic_view(merge_flat(docs))
        assert merged["core.instructions"] == sum(
            d["core.instructions"] for d in docs)
        assert merged["core.cycles"] == sum(
            d["core.cycles"] for d in docs)
        assert merged["core.ipc"] == pytest.approx(
            merged["core.instructions"] / merged["core.cycles"])

    def test_deterministic_view_strips_wall_clock(self):
        record = execute_spec(EQUIV_SPECS[0])
        view = deterministic_view(record.stats)
        assert not any(k.startswith(("host.", "sim.host."))
                       for k in view)
        assert any(k.startswith(("host.", "sim.host."))
                   for k in record.stats)

    def test_fresh_runs_are_deterministic(self):
        """The premise the whole layer rests on: two cold runs of one
        spec agree byte-for-byte outside the wall-clock gauges."""
        spec = EQUIV_SPECS[0]
        first = execute_spec(spec)
        clear_cache()
        second = execute_spec(spec)
        assert first is not second
        assert stats_bytes(first) == stats_bytes(second)


class TestDegradation:
    def test_pool_unavailable_falls_back_serially(self, monkeypatch):
        def broken_pool(max_workers):
            raise OSError("fork refused")
        monkeypatch.setattr(parallel, "_pool", broken_pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_specs(EQUIV_SPECS[:2], jobs=2)
        assert any("running serially" in str(w.message) for w in caught)
        assert [r.status for r in records] == ["ok", "ok"]
        clear_cache()
        serial = run_specs(EQUIV_SPECS[:2], jobs=1)
        assert [stats_bytes(r) for r in records] \
            == [stats_bytes(r) for r in serial]

    def test_hung_worker_abandoned_and_rerun(self, monkeypatch):
        """A watchdog timeout must abandon the pool (not join the hung
        worker) and still deliver every record via the serial path."""
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0.000001")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_specs(EQUIV_SPECS[:2], jobs=2)
        assert any("watchdog" in str(w.message) for w in caught)
        assert len(records) == 2
        assert all(r.status == "ok" for r in records)

    def test_worker_exception_filled_serially(self, monkeypatch):
        class _Sick:
            def submit(self, fn, spec):
                from concurrent.futures import Future
                future = Future()
                future.set_exception(RuntimeError("worker died"))
                return future

            def shutdown(self, wait=True, **kwargs):
                pass

        monkeypatch.setattr(parallel, "_pool", lambda n: _Sick())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_specs(EQUIV_SPECS[:2], jobs=2)
        assert any("re-running serially" in str(w.message)
                   for w in caught)
        assert all(r.status == "ok" for r in records)

    def test_single_spec_never_forks(self, monkeypatch):
        monkeypatch.setattr(parallel, "_pool", lambda n: pytest.fail(
            "pool created for a single spec"))
        [record] = run_specs(EQUIV_SPECS[:1], jobs=8)
        assert record.status == "ok"

    def test_prewarm_noop_without_disk_cache(self, monkeypatch):
        monkeypatch.setattr(parallel, "_pool", lambda n: pytest.fail(
            "prewarm forked with no disk cache active"))
        assert parallel.prewarm(EQUIV_SPECS, jobs=4) == 0


class TestParallelCLI:
    def test_sweep_output_identical_across_jobs(self, capsys):
        from repro.cli import main
        outputs = set()
        for jobs in ("1", "2", "4"):
            clear_cache()
            assert main(["sweep", "lsu_depth", "nn", "--scale",
                         str(SCALE), "--jobs", jobs]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_jobs_flag_parsed(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["sweep", "lsu_depth", "nn"])
        assert args.jobs is None
        args = build_parser().parse_args(
            ["sweep", "lsu_depth", "nn", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["faults", "--jobs", "2"])
        assert args.jobs == 2
