"""One spec, one record, whichever front door admits it.

A small spec set (a DiAG and an OoO cell) runs through every harness
path — serial and pooled ``run_specs``, a journaled run cut after its
first record and resumed, the run service over a process pool, and a
second pass served from a ``DiskCache`` — and each path must give the
same ``status``, ``cycles`` and deterministic stats bytes
(docs/RESILIENCE.md §3 is the ladder all of them share). Two variants
inject faults into both doors: a SIGKILLed pool worker (records stay
identical; ``harness.requeued`` equals the specs actually
resubmitted) and a hang (a ``timeout`` record from each door).
Checkpoint-split equivalence lives in ``tests/test_checkpoint.py``.
"""

import json
import multiprocessing
import os
import signal
import threading
import warnings

import pytest

from repro.harness import RunSpec, clear_cache, diskcache, run_specs
from repro.harness import parallel
from repro.obs import deterministic_view, telemetry
from repro.obs.resilience import (
    JOURNAL_HITS,
    REQUEUED,
    RETRIES,
    TIMEOUTS,
    reset_resilience,
    resilience_snapshot,
)
from repro.service import ServiceClient, serve_in_thread

#: big enough (~0.1-0.3 s a cell) that a worker killed as soon as it
#: appears is always holding a spec
SPECS = (RunSpec.diag("nn", config="F4C2", scale=0.5),
         RunSpec.ooo("nn", scale=0.5))

DOORS = ("serial", "pooled", "resumed", "service", "cache_replay")


@pytest.fixture(autouse=True)
def isolated(tmp_path):
    """No ambient disk cache, cold run memo, fresh counters and a
    telemetry stream of the test's own (the service joins it)."""
    telemetry.reset()
    diskcache.configure(None)
    clear_cache()
    reset_resilience()
    telemetry.configure(path=tmp_path / "telemetry.jsonl")
    yield
    telemetry.reset()
    diskcache.reset()
    clear_cache()
    reset_resilience()


def view(record):
    """What every door must agree on, for a RunRecord or the record
    document the service streams back."""
    doc = record if isinstance(record, dict) else vars(record)
    return (doc["status"], doc["cycles"],
            json.dumps(deterministic_view(doc["stats"]), sort_keys=True))


@pytest.fixture(scope="module")
def reference():
    clear_cache()
    diskcache.configure(None)
    try:
        return [view(r) for r in run_specs(SPECS, jobs=1)]
    finally:
        diskcache.reset()
        clear_cache()


def serve(tmp_path, **kwargs):
    return serve_in_thread(workers=2, inline=False,
                           cache=diskcache.DiskCache(tmp_path / "svc"),
                           stream_interval=0.05, **kwargs)


def through_service(tmp_path):
    handle = serve(tmp_path)
    try:
        client = ServiceClient(handle.url, timeout=120.0)
        outcomes = [None] * len(SPECS)

        def post(i):
            outcomes[i] = client.run(
                {k: v for k, v in vars(SPECS[i]).items()
                 if v is not None and k != "config_overrides"})

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(len(SPECS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
    finally:
        handle.close()
    assert all(o is not None and o.outcome == "scheduled"
               for o in outcomes)
    return [o.record for o in outcomes]


def through(door, tmp_path):
    """``SPECS``' records as ``door`` delivers them."""
    if door == "serial":
        return run_specs(SPECS, jobs=1)
    if door == "pooled":
        return run_specs(SPECS, jobs=2)
    if door == "resumed":
        journal = tmp_path / "j.jsonl"
        run_specs(SPECS, jobs=2, journal=journal)
        first = journal.read_text().splitlines(keepends=True)[0]
        journal.write_text(first)          # cut after the first record
        clear_cache()
        reset_resilience()
        records = run_specs(SPECS, jobs=2, journal=journal,
                            resume=True)
        assert resilience_snapshot()[JOURNAL_HITS] == 1
        return records
    if door == "service":
        return through_service(tmp_path)
    assert door == "cache_replay"
    cache = diskcache.configure(tmp_path / "cache")
    run_specs(SPECS, jobs=1)
    clear_cache()                          # only the disk tier is left
    records = run_specs(SPECS, jobs=1)
    assert cache.hits == len(SPECS)
    assert cache.writes == len(SPECS)
    return records


@pytest.mark.parametrize("door", DOORS)
def test_every_door_gives_the_same_record(door, reference, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = through(door, tmp_path)
    assert [view(r) for r in records] == reference


class _Killer(threading.Thread):
    """SIGKILL the first pool worker that appears, once."""

    def __init__(self):
        super().__init__(daemon=True)
        self.before = {p.pid for p in multiprocessing.active_children()}
        self.stop = threading.Event()
        self.killed = None

    def run(self):
        while not self.stop.wait(0.005):
            fresh = [p for p in multiprocessing.active_children()
                     if p.pid not in self.before]
            if fresh:
                os.kill(fresh[0].pid, signal.SIGKILL)
                self.killed = fresh[0].pid
                return


@pytest.mark.parametrize("door", ("pooled", "service"))
def test_sigkilled_worker_changes_no_record(door, reference, tmp_path,
                                            monkeypatch):
    submits = []
    real_submit = parallel._submit

    def counting_submit(*args):
        future = real_submit(*args)
        submits.append(args[1])
        return future

    monkeypatch.setattr(parallel, "_submit", counting_submit)
    killer = _Killer()
    killer.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = through(door, tmp_path)
    finally:
        killer.stop.set()
        killer.join()
    assert killer.killed is not None, "no pool worker appeared to kill"
    assert [view(r) for r in records] == reference
    counters = resilience_snapshot()
    assert counters[RETRIES] == 0
    assert counters[REQUEUED] >= 1
    assert counters[REQUEUED] == len(submits) - len(SPECS)


@pytest.mark.parametrize("door", ("pooled", "service"))
def test_hung_worker_becomes_a_timeout_record(door, tmp_path,
                                              monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0.01")
    monkeypatch.setenv("REPRO_SERIAL_RETRY_TIMEOUT", "0.01")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = through(door, tmp_path)
    for record in records:
        doc = record if isinstance(record, dict) else vars(record)
        assert doc["status"] == "timeout"
        assert doc["failure_class"] == "hang"
        assert doc["wall_seconds"] > 0
    # one timeout per spec on either door
    assert resilience_snapshot()[TIMEOUTS] == len(SPECS)
