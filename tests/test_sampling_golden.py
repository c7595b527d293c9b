"""Golden digests of sampled runs on both machines.

Host-speed work on the ISS fast-forward or on functional warming must
not move what a sampled run reports. Each cell pins the run's status,
its instruction count, its estimated cycles and the sha256 of its
whole ``deterministic_view`` stats document (every window's IPC,
energy and the estimator's summary are in it).

The DiAG cells run the two programs of the ``sampled`` benchmark
workload at a small scale. The OoO cell runs a branchy game-tree
search: its windows start from the predictor, BTB and RAS that
functional warming trained, so a change that stops training the OoO
front end moves its digest.

A change that is *meant* to move sampled outcomes re-records the
fixture with ``PYTHONPATH=src python tests/test_sampling_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs import deterministic_view
from repro.sampling import SamplingParams, run_sampled

FIXTURE = Path(__file__).parent / "fixtures" / "sampled_golden.json"

PARAMS = SamplingParams(period=5_000, window=1_000, warmup=1_000,
                        phase=2_000)

#: name -> zero-argument sampled run
CELLS = {
    "diag/hotspot": lambda: run_sampled(
        "hotspot", machine="diag", config="F4C32", scale=2.0,
        params=PARAMS),
    "diag/pathfinder": lambda: run_sampled(
        "pathfinder", machine="diag", config="F4C32", scale=1.5,
        params=PARAMS),
    "ooo/leela": lambda: run_sampled(
        "leela", machine="ooo", scale=1.0, params=PARAMS),
}


def digest(record):
    assert record.status == "ok" and record.verified, record.error
    assert record.stats["sampling.windows"] >= 5
    view = json.dumps(deterministic_view(record.stats), sort_keys=True)
    return {"status": record.status,
            "cycles": record.cycles,
            "instructions": record.instructions,
            "stats_sha256": hashlib.sha256(view.encode()).hexdigest()}


def test_fixture_covers_every_cell():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert digest(CELLS[name]()) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {name: digest(run()) for name, run in sorted(CELLS.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
