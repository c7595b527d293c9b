"""Fleet telemetry: event bus, campaign progress, OpenMetrics export,
and campaign Chrome trace.

Pins down the docs/OBSERVABILITY.md §6 contracts: the event schema and
its multi-process append discipline, the golden lifecycle sequence a
serial campaign emits, serial/pooled event-set equality (modulo
timestamps and pids), ``--resume`` marking journal hits ``replayed``
rather than ``started``, and the exposition-format sanity of
``repro stats --format openmetrics``.
"""

import json
import multiprocessing
import threading
import urllib.request
from dataclasses import dataclass

import pytest

from repro.harness.parallel import run_specs
from repro.obs import (
    CampaignProgress,
    MetricsServer,
    campaign_trace,
    read_events,
    telemetry,
)
from repro.obs.progress import summary_extras
from repro.obs.resilience import reset_resilience

#: lifecycle kinds whose (ev, run) multiset must not depend on how the
#: campaign was sharded across processes
CELL_KINDS = ("scheduled", "replayed", "started", "finished", "failed")


@pytest.fixture(autouse=True)
def fresh_telemetry(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    telemetry.reset()
    reset_resilience()
    yield
    telemetry.reset()
    reset_resilience()


@dataclass(frozen=True)
class AddSpec:
    """Cheap deterministic cell (module-level: picklable into pools)."""

    a: int
    b: int

    @property
    def workload(self):
        return f"add-{self.a}-{self.b}"

    def execute(self):
        return {"workload": self.workload, "sum": self.a + self.b,
                "status": "ok"}

    def failure_record(self, status, error, failure_class):
        return {"workload": self.workload, "status": status,
                "error": error, "failure_class": failure_class}


def specs4():
    return [AddSpec(i, i + 1) for i in range(4)]


# ---------------------------------------------------------------------
# the bus itself
# ---------------------------------------------------------------------

class TestBus:
    def test_roundtrip_and_schema(self, tmp_path):
        bus = telemetry.configure(path=tmp_path / "t.jsonl")
        assert bus.emit("started", run="abc", span=1, label="nn")
        assert telemetry.emit("finished", run="abc", span=1,
                              status="ok")
        events = read_events(bus.path)
        assert [ev["ev"] for ev in events] == ["started", "finished"]
        first = events[0]
        assert first["schema"] == telemetry.TELEMETRY_SCHEMA
        assert first["campaign"] == bus.campaign
        assert first["run"] == "abc" and first["span"] == 1
        assert isinstance(first["ts"], float)
        assert isinstance(first["pid"], int)

    def test_emit_is_noop_when_off(self):
        assert telemetry.active() is None
        assert telemetry.emit("started", run="x") is False

    def test_vocabulary_is_closed(self):
        assert "started" in telemetry.EVENTS
        assert "sample_window" in telemetry.EVENTS
        assert "journal_skip" in telemetry.EVENTS
        assert len(telemetry.EVENTS) == 19

    def test_run_scope_supplies_identity(self, tmp_path):
        bus = telemetry.configure(path=tmp_path / "t.jsonl")
        with telemetry.run_scope("r1", 2):
            telemetry.emit("cache_hit", tier="mem")
            with telemetry.run_scope("r2"):
                telemetry.emit("cache_miss")
            # explicit identity always wins over the scope
            telemetry.emit("cache_hit", run="r3", span=9, tier="disk")
        telemetry.emit("journal_load", entries=0)  # outside any scope
        events = read_events(bus.path)
        idents = [(ev.get("run"), ev.get("span")) for ev in events]
        assert idents == [("r1", 2), ("r2", None), ("r3", 9),
                          (None, None)]
        assert telemetry.scoped_identity() is None

    def test_reader_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        bus = telemetry.configure(path=path)
        bus.emit("started", run="a")
        with open(path, "a") as handle:
            handle.write("not json\n")
            handle.write('{"schema":99,"ev":"started"}\n')
            handle.write('{"schema":1,"ev":"fini')  # torn tail
        events = read_events(path)
        assert len(events) == 1 and events[0]["run"] == "a"

    def test_env_handshake_publishes_stream(self, tmp_path):
        bus = telemetry.configure(path=tmp_path / "t.jsonl")
        import os
        assert os.environ[telemetry.ENV_PATH] == str(bus.path)
        # simulate a worker: no process-local bus, env still set
        telemetry._bus = None
        adopted = telemetry.active()
        assert adopted is not None
        assert str(adopted.path) == str(bus.path)
        assert adopted.campaign == bus.campaign

    def test_unwritable_stream_counts_dropped(self, tmp_path):
        bus = telemetry.TelemetryBus(tmp_path)  # a directory
        assert bus.emit("started") is False
        assert bus.dropped == 1 and bus.emitted == 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    def test_fork_waits_out_a_write_in_another_thread(self, tmp_path):
        """A process forked while another thread holds the bus lock (a
        pool built off the service's event-loop thread) must not
        inherit the held lock: its first emit would hang forever."""
        bus = telemetry.configure(path=tmp_path / "t.jsonl")
        held, release = threading.Event(), threading.Event()

        def writer():
            with bus._lock:      # a write in progress
                held.set()
                release.wait(10)

        thread = threading.Thread(target=writer)
        thread.start()
        assert held.wait(10)
        threading.Timer(0.2, release.set).start()
        child = multiprocessing.get_context("fork").Process(
            target=telemetry.emit, args=("started",),
            kwargs={"run": "child"})
        child.start()
        child.join(5)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        release.set()
        thread.join()
        assert not hung and child.exitcode == 0
        assert [ev["run"] for ev in read_events(bus.path)] == ["child"]


# ---------------------------------------------------------------------
# harness lifecycle events
# ---------------------------------------------------------------------

class TestCampaignEvents:
    def test_serial_golden_sequence(self, tmp_path):
        telemetry.configure(path=tmp_path / "t.jsonl")
        run_specs(specs4())
        kinds = [ev["ev"] for ev in read_events(tmp_path / "t.jsonl")]
        assert kinds == (["campaign_begin"] + ["scheduled"] * 4
                         + ["started", "finished"] * 4
                         + ["campaign_end"])

    def test_run_ids_are_stable_spec_hashes(self, tmp_path):
        telemetry.configure(path=tmp_path / "a.jsonl")
        run_specs(specs4())
        telemetry.configure(path=tmp_path / "b.jsonl")
        run_specs(specs4())

        def ids(path):
            return sorted(ev["run"]
                          for ev in read_events(path)
                          if ev["ev"] == "scheduled")

        first = ids(tmp_path / "a.jsonl")
        assert first == ids(tmp_path / "b.jsonl")
        assert len(set(first)) == 4

    def test_serial_equals_pooled_event_set(self, tmp_path):
        telemetry.configure(path=tmp_path / "serial.jsonl")
        serial = run_specs(specs4(), jobs=1)
        telemetry.configure(path=tmp_path / "pooled.jsonl")
        pooled = run_specs(specs4(), jobs=2)
        assert serial == pooled

        def cells(path):
            return sorted((ev["ev"], ev.get("run"))
                          for ev in read_events(path)
                          if ev["ev"] in CELL_KINDS)

        assert cells(tmp_path / "serial.jsonl") \
            == cells(tmp_path / "pooled.jsonl")

    def test_pooled_started_events_carry_worker_pids(self, tmp_path):
        import os
        telemetry.configure(path=tmp_path / "t.jsonl")
        run_specs(specs4(), jobs=2)
        started = [ev for ev in read_events(tmp_path / "t.jsonl")
                   if ev["ev"] == "started"]
        assert len(started) == 4
        assert all(ev["pid"] != os.getpid() for ev in started)

    def test_resume_emits_replayed_not_started(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        telemetry.configure(path=tmp_path / "first.jsonl")
        first = run_specs(specs4(), journal=journal)
        telemetry.configure(path=tmp_path / "resumed.jsonl")
        resumed = run_specs(specs4(), journal=journal, resume=True)
        assert resumed == first
        events = read_events(tmp_path / "resumed.jsonl")
        kinds = [ev["ev"] for ev in events]
        assert kinds.count("replayed") == 4
        assert "started" not in kinds and "scheduled" not in kinds
        # replayed cells keep the identity of the original attempt
        original = {ev["run"]
                    for ev in read_events(tmp_path / "first.jsonl")
                    if ev["ev"] == "scheduled"}
        assert {ev["run"] for ev in events
                if ev["ev"] == "replayed"} == original

    def test_failed_cells_emit_failed(self, tmp_path):
        @dataclass(frozen=True)
        class SadSpec:
            workload: str = "sad"

            def execute(self):
                return {"workload": "sad", "status": "error"}

        telemetry.configure(path=tmp_path / "t.jsonl")
        run_specs([SadSpec()])
        kinds = [ev["ev"] for ev in read_events(tmp_path / "t.jsonl")]
        assert "failed" in kinds and "finished" not in kinds

    def test_sample_window_events_carry_parent_run(self, tmp_path):
        """Regression: windows measured deep inside run_sampled must
        attribute to the harness run that triggered them — without the
        executor's run_scope they would carry a campaign but no
        (run, span), orphaning them from campaign tooling."""
        from repro.harness.runner import clear_cache
        from repro.sampling import SampledSpec

        telemetry.configure(path=tmp_path / "t.jsonl")
        clear_cache()
        spec = SampledSpec(workload="nn", machine="diag",
                           config="F4C2", period=1_500, window=300,
                           warmup=200, phase=11)
        records = run_specs([spec])
        assert records[0].status == "ok"
        events = read_events(tmp_path / "t.jsonl")
        started = [ev for ev in events if ev["ev"] == "started"]
        ident = (started[0]["run"], started[0]["span"])
        assert ident[0] is not None
        windows = [ev for ev in events if ev["ev"] == "sample_window"]
        assert windows, "sampled run emitted no window events"
        assert all((ev.get("run"), ev.get("span")) == ident
                   for ev in windows)
        # the checkpoint clones each window takes inherit it too
        saves = [ev for ev in events if ev["ev"] == "checkpoint_save"]
        assert saves and all(ev.get("run") == ident[0] for ev in saves)


# ---------------------------------------------------------------------
# campaign Chrome trace
# ---------------------------------------------------------------------

class TestCampaignTrace:
    def test_merges_spans_per_worker(self, tmp_path):
        telemetry.configure(path=tmp_path / "t.jsonl")
        run_specs(specs4(), jobs=2)
        doc = campaign_trace(str(tmp_path / "t.jsonl"))
        events = doc["traceEvents"]
        spans = [ev for ev in events if ev["ph"] == "X"]
        assert len(spans) == 4
        assert all(ev["pid"] == 0 for ev in spans)
        assert all(ev["dur"] >= 1 for ev in spans)
        labels = sorted(ev["name"] for ev in spans)
        assert labels == sorted(s.workload for s in specs4())
        # the completed counter track reaches the cell count
        counters = [ev for ev in events if ev["ph"] == "C"]
        assert counters and counters[-1]["args"]["completed"] == 4

    def test_open_span_becomes_instant(self):
        events = [
            {"schema": 1, "ev": "started", "ts": 1.0, "pid": 9,
             "campaign": "c", "run": "r1", "span": 1, "label": "x"},
        ]
        doc = campaign_trace(events)
        names = [ev["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "i"]
        assert "started (never finished)" in names

    def test_empty_stream_is_valid_trace(self, tmp_path):
        doc = campaign_trace(str(tmp_path / "missing.jsonl"))
        assert doc["traceEvents"] == []


# ---------------------------------------------------------------------
# progress fold + summary extras + metrics server
# ---------------------------------------------------------------------

class TestProgress:
    def _fold(self, events):
        progress = CampaignProgress()
        for ev in events:
            progress.observe(ev)
        return progress

    def test_fold_counts_and_eta(self):
        events = [
            {"ev": "campaign_begin", "cells": 4},
            {"ev": "replayed", "run": "r0"},
            {"ev": "started", "run": "r1", "pid": 7, "label": "nn",
             "ts": 10.0},
            {"ev": "finished", "run": "r1", "pid": 1, "ts": 12.0},
            {"ev": "started", "run": "r2", "pid": 7, "label": "nn",
             "ts": 12.0},
            {"ev": "failed", "run": "r2", "pid": 1, "ts": 14.0},
            {"ev": "retry", "run": "r3"},
            {"ev": "cache_hit"}, {"ev": "cache_miss"},
        ]
        progress = self._fold(events)
        assert progress.total == 4
        assert progress.completed == 3  # 2 fresh + 1 replayed
        assert progress.failed == 1 and progress.retries == 1
        assert progress.rate() == pytest.approx(0.5)  # 2 in 4s
        assert progress.eta_seconds() == pytest.approx(2.0)
        assert progress.eta_source() == "fresh-rate+resume"
        assert progress.cache_hit_ratio() == pytest.approx(0.5)
        line = progress.status_line("torture")
        assert "3/4" in line and "replayed 1" in line
        assert "failed 1" in line and "cache 50%" in line

    def test_terminal_events_release_workers(self):
        """The ISSUE 10 leak: timeout / quarantine / retry are
        terminal for the attempt that was occupying a worker, so each
        must free that worker — before the fix ``busy_workers()`` and
        the ``campaign.workers.busy`` gauge overcounted for the rest
        of a long campaign."""
        for terminal in ("timeout", "quarantine", "retry"):
            progress = self._fold([
                {"ev": "started", "run": "r1", "pid": 7, "ts": 1.0},
                {"ev": "started", "run": "r2", "pid": 8, "ts": 1.0},
                {"ev": terminal, "run": "r1"},
            ])
            assert progress.busy_workers() == 1, terminal
            assert progress._owner == {"r2": 8}, terminal
            registry = progress.to_registry().as_dict()
            assert registry["campaign.workers.busy"] == 1, terminal

    def test_sigkilled_worker_sequence_frees_everyone(self):
        """A SIGKILL'd pool worker: both in-flight runs die with the
        pool, the harness emits ``requeue`` and re-runs them on the
        rebuilt pool. The fold must not leave the dead pids counted
        busy forever."""
        progress = self._fold([
            {"ev": "campaign_begin", "cells": 2},
            {"ev": "started", "run": "rA", "pid": 100, "ts": 1.0},
            {"ev": "started", "run": "rB", "pid": 101, "ts": 1.0},
            # pool dies (worker 100 SIGKILLed) -> both requeued
            {"ev": "requeue", "count": 2},
        ])
        assert progress.busy_workers() == 0
        assert progress._owner == {}
        # the rebuilt pool re-runs both; accounting recovers cleanly
        for ev in [
            {"ev": "started", "run": "rA", "pid": 200, "ts": 2.0},
            {"ev": "started", "run": "rB", "pid": 201, "ts": 2.0},
            {"ev": "finished", "run": "rA", "ts": 3.0},
        ]:
            progress.observe(ev)
        assert progress.busy_workers() == 1
        progress.observe({"ev": "finished", "run": "rB", "ts": 4.0})
        assert progress.busy_workers() == 0
        assert progress.completed == 2

    def test_fold_to_registry(self):
        progress = self._fold([
            {"ev": "campaign_begin", "cells": 2},
            {"ev": "started", "run": "r", "pid": 5, "ts": 1.0},
            {"ev": "finished", "run": "r", "ts": 2.0},
        ])
        flat = progress.to_registry().as_dict()
        assert flat["campaign.cells.total"] == 2
        assert flat["campaign.cells.completed"] == 1
        assert flat["campaign.workers.busy"] == 0

    def test_summary_extras_from_monitor(self):
        class FakeMonitor:
            progress = self._fold([
                {"ev": "campaign_begin", "cells": 2},
                {"ev": "cache_hit"}, {"ev": "cache_hit"},
                {"ev": "cache_miss"},
                {"ev": "started", "run": "r", "ts": 1.0},
                {"ev": "finished", "run": "r", "ts": 2.0},
            ])

        extras = summary_extras(FakeMonitor())
        assert "cache_hits=67% (2/3)" in extras
        assert "eta_source=fresh-rate" in extras

    def test_summary_extras_without_monitor(self):
        extras = summary_extras(None)
        assert any(field.startswith("cache_hits=") for field in extras)
        assert "eta_source=n/a (run with --progress)" in extras

    def test_metrics_server_serves_openmetrics(self):
        body = "# TYPE repro_x gauge\nrepro_x 1\n# EOF\n"
        server = MetricsServer(lambda: body, port=0).start()
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
                assert "openmetrics-text" in \
                    response.headers["Content-Type"]
                assert response.read().decode() == body
        finally:
            server.close()


# ---------------------------------------------------------------------
# CLI surfaces: stats exposition, campaign trace, live progress
# ---------------------------------------------------------------------

def _check_exposition(text):
    """OpenMetrics text-format sanity: families declared, samples
    grammatical, exactly one trailing # EOF."""
    import re

    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    assert sum(1 for line in lines if line == "# EOF") == 1
    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")
    meta = re.compile(r"^# (TYPE|HELP|UNIT) [a-zA-Z_:][a-zA-Z0-9_:]* ")
    for line in lines[:-1]:
        assert sample.match(line) or meta.match(line), line


class TestCli:
    def test_stats_openmetrics_exposition(self, capsys):
        from repro.cli import main

        rc = main(["stats", "nn", "--machine", "diag", "--config",
                   "F4C2", "--scale", "0.25", "--format",
                   "openmetrics"])
        out = capsys.readouterr().out
        assert rc == 0
        _check_exposition(out)
        assert "repro_diag_core_cycles" in out

    def test_stats_filter_prefix(self, capsys):
        from repro.cli import main

        rc = main(["stats", "nn", "--machine", "diag", "--config",
                   "F4C2", "--scale", "0.25", "--format",
                   "openmetrics", "--filter", "core.stall"])
        out = capsys.readouterr().out
        assert rc == 0
        _check_exposition(out)
        for line in out.splitlines():
            if not line.startswith("#"):
                assert line.startswith("repro_diag_core_stall")

    def test_faults_progress_and_campaign_trace(self, tmp_path,
                                                capsys):
        from repro.cli import main

        stream = tmp_path / "telemetry.jsonl"
        trace = tmp_path / "campaign-trace.json"
        rc = main(["faults", "nn", "--config", "F4C2", "--scale",
                   "0.2", "--trials", "2", "--progress",
                   "--telemetry", str(stream)])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"telemetry: {stream}" in captured.err
        assert "cells/s" in captured.err
        # the stderr campaign summary carries the §6 extras
        assert "cache_hits=" in captured.err
        assert "eta_source=" in captured.err
        kinds = {ev["ev"] for ev in read_events(stream)}
        assert {"plan", "campaign_begin", "started", "finished",
                "campaign_end"} <= kinds

        rc = main(["trace", "--campaign", str(stream), "-o",
                   str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert any(ev["ph"] == "X" for ev in doc["traceEvents"])

    def test_trace_requires_workload_or_campaign(self, capsys):
        from repro.cli import main

        assert main(["trace"]) == 2
        assert "workload" in capsys.readouterr().err
