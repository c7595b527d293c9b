"""Counter parity between engines + harness stats threading.

The contract: a DiAG run and an OoO run of the same workload both
emit :data:`repro.obs.SHARED_CORE_COUNTERS` with identical names, so
experiments and fault campaigns can read either machine's stats
document without knowing which engine produced it. The parity records
are traced runs of two workloads on both engines, so a traced run
must also finish ``ok`` and verified with every shared counter.
"""

import json
from collections import Counter

import pytest

from repro.asm import assemble
from repro.baseline import OoOConfig, OoOCore
from repro.core import DiAGProcessor, F4C2
from repro.harness.runner import clear_cache, run_baseline, run_diag
from repro.obs import SHARED_CORE_COUNTERS, EventTracer

WORKLOAD = "nn"
#: the workloads of the parity records
WORKLOADS = ("nn", "hotspot")
SCALE = 0.25


@pytest.fixture(scope="module")
def traced():
    """``{(workload, machine): (record, tracer)}``: every run traced."""
    clear_cache()
    runs = {}
    for workload in WORKLOADS:
        for machine, run in (("diag", run_diag), ("ooo", run_baseline)):
            tracer = EventTracer()
            kwargs = {"config": "F4C2"} if machine == "diag" else {}
            record = run(workload, scale=SCALE, tracer=tracer, **kwargs)
            runs[workload, machine] = (record, tracer)
    return runs


@pytest.fixture(scope="module")
def records(traced):
    return {key: record for key, (record, _) in traced.items()}


class TestCounterParity:
    def test_both_runs_clean(self, records):
        for rec in records.values():
            assert rec.status == "ok"
            assert rec.verified

    def test_shared_namespace_on_both_engines(self, records):
        for name, rec in records.items():
            missing = [key for key in SHARED_CORE_COUNTERS
                       if key not in rec.stats]
            assert not missing, f"{name} missing {missing}"

    def test_core_counters_match_record_fields(self, records):
        for rec in records.values():
            assert rec.stat("core.cycles") == rec.cycles
            assert rec.stat("core.instructions") == rec.instructions
            assert rec.stat("core.ipc") == pytest.approx(rec.ipc)

    def test_same_program_same_retired_count(self, records):
        # both engines execute the identical binary to completion
        for workload in WORKLOADS:
            assert records[workload, "diag"].stat("core.instructions") \
                == records[workload, "ooo"].stat("core.instructions")

    def test_stall_total_is_sum_of_reasons(self, records):
        for rec in records.values():
            total = sum(rec.stat(f"core.stall.{r}")
                        for r in ("memory", "control", "other"))
            assert rec.stat("core.stall.total") == total

    def test_engine_detail_is_namespaced(self, records):
        for workload in WORKLOADS:
            diag = records[workload, "diag"].stats
            ooo = records[workload, "ooo"].stats
            assert any(k.startswith("diag.ring0.") for k in diag)
            assert not any(k.startswith("ooo.") for k in diag)
            assert any(k.startswith("ooo.") for k in ooo)
            assert not any(k.startswith("diag.") for k in ooo)

    def test_every_parity_run_was_traced(self, traced):
        for record, tracer in traced.values():
            assert tracer.emitted > 0
            assert record.stat("sim.host.events_per_sec") > 0

    def test_profiling_gauges_present(self, records):
        for rec in records.values():
            assert rec.stat("sim.host.run_seconds") > 0
            assert rec.stat("sim.host.cycles_per_sec") > 0
            assert rec.stat("host.phase.run.seconds") > 0

    def test_stats_document_is_json_serializable(self, records):
        for rec in records.values():
            assert json.loads(json.dumps(rec.stats)) == rec.stats


class TestTracedRuns:
    def test_diag_emits_events(self):
        clear_cache()
        tracer = EventTracer()
        record = run_diag(WORKLOAD, config="F4C2", scale=SCALE,
                          tracer=tracer)
        assert record.status == "ok"
        assert tracer.emitted > 0
        categories = {e.get("cat", e["name"])
                      for e in tracer.events()}
        assert {"dispatch", "execute", "retire"} <= categories

    def test_ooo_emits_events(self):
        clear_cache()
        tracer = EventTracer()
        record = run_baseline(WORKLOAD, scale=SCALE, tracer=tracer)
        assert record.status == "ok"
        assert tracer.emitted > 0
        categories = {e.get("cat", e["name"])
                      for e in tracer.events()}
        assert {"dispatch", "execute", "retire"} <= categories

    def test_traced_run_bypasses_cache(self):
        clear_cache()
        first = run_diag(WORKLOAD, config="F4C2", scale=SCALE)
        cached = run_diag(WORKLOAD, config="F4C2", scale=SCALE)
        assert cached is first  # plain runs are cached
        tracer = EventTracer()
        traced = run_diag(WORKLOAD, config="F4C2", scale=SCALE,
                          tracer=tracer)
        assert traced is not first
        assert tracer.emitted > 0
        # and a traced record never poisons the cache
        again = run_diag(WORKLOAD, config="F4C2", scale=SCALE)
        assert again is first

    def test_trace_pids_separate_machines(self):
        clear_cache()
        tracer = EventTracer()
        run_diag(WORKLOAD, config="F4C2", scale=SCALE, tracer=tracer)
        run_baseline(WORKLOAD, scale=SCALE, tracer=tracer)
        pids = {e["pid"] for e in tracer.events()}
        assert pids == {0, 1}
        doc = tracer.chrome_trace()
        process_names = {e["args"]["name"]
                         for e in doc["traceEvents"]
                         if e["name"] == "process_name"}
        assert process_names == {"diag", "ooo"}


def trace_program(machine, src, interrupt_at=None):
    """``(engine, events)`` of one traced run of ``src``; with
    ``interrupt_at``, an interrupt to ``trap`` is posted at that cycle."""
    program = assemble(src)
    tracer = EventTracer()
    if machine == "diag":
        engine = DiAGProcessor(F4C2, program, tracer=tracer).rings[0]
    else:
        engine = OoOCore(OoOConfig(), program)
        engine.tracer = tracer
    if interrupt_at is not None:
        for __ in range(interrupt_at):
            engine.step()
        engine.post_interrupt(program.symbol("trap"))
    engine.run()
    assert engine.halted
    return engine, tracer.events()


def by_cat(events, cat):
    return [e for e in events if e.get("cat") == cat]


class TestEntryEvents:
    """The four entry events carry the entry's ``seq`` on both engines
    (docs/OBSERVABILITY.md §2)."""

    STORES = """
    li t0, 0x2000
    li t1, 7
    sw t1, 0(t0)
    sw t1, 4(t0)
    lw t2, 0(t0)
    ebreak
    """

    TRAP_LOOP = """
    li t0, 0
    li t1, 1000
    loop:
    addi t0, t0, 1
    andi t2, t0, 1
    beqz t2, skip
    addi t3, t3, 1
    skip:
    blt t0, t1, loop
    ebreak
    trap:
    ebreak
    """

    def test_stores_execute_on_both_engines(self):
        executed = {
            machine: Counter(e["name"] for e in by_cat(
                trace_program(machine, self.STORES)[1], "execute"))
            for machine in ("diag", "ooo")}
        assert executed["diag"] == executed["ooo"]
        assert executed["diag"]["sw"] == 2

    @pytest.mark.parametrize("machine", ["diag", "ooo"])
    def test_entry_events_carry_seq(self, machine):
        __, events = trace_program(machine, self.TRAP_LOOP)
        for cat in ("dispatch", "execute", "retire", "squash"):
            assert by_cat(events, cat), cat
            assert all(isinstance(e["args"]["seq"], int)
                       for e in by_cat(events, cat)), cat
        # every executed entry was dispatched first
        dispatched = set()
        for e in events:
            args = e.get("args", {})
            if e.get("cat") == "dispatch":
                dispatched.update(range(args["seq"],
                                        args["seq"] + args.get("count", 1)))
            elif e.get("cat") == "execute":
                assert args["seq"] in dispatched

    @pytest.mark.parametrize("machine", ["diag", "ooo"])
    def test_interrupt_emits_squash(self, machine):
        engine, events = trace_program(machine, self.TRAP_LOOP,
                                       interrupt_at=150)
        squashes = by_cat(events, "squash")
        assert len(squashes) == engine.stats.mispredicts + 1
        flush = [e for e in squashes if e["ts"] == 150]
        assert len(flush) == 1 and flush[0]["args"]["entries"] > 0


class TestFailureStats:
    def test_failed_run_keeps_empty_stats(self):
        clear_cache()
        record = run_diag(WORKLOAD, config="F4C2", scale=SCALE,
                          max_cycles=3)
        assert record.status == "timed_out"
        assert record.stat("core.cycles", default=-1) in (-1, 3)
        # stat() never raises on a sparse document
        assert record.stat("no.such.counter") == 0
