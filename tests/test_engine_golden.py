"""Golden digests of both cycle engines on the Fig 9a/10a cell set.

Host-speed work on the DiAG ring or the OoO engine must not move a
simulated outcome. Each cell pins its cycle count, its instruction
count and the sha256 of its whole ``deterministic_view`` stats
document, so any change to timing, stalls, energy or counters fails
here with the cell's name.

The cells are the eight kernels of the ``figure`` benchmark workload
at scale 0.25 on DiAG F4C32 and on the OoO baseline, plus one
SIMT-pipelined DiAG cell and one DiAG cell with shared FU groups. The
same eight kernels also run on the two-cluster F4C2 ring, where
clusters are evicted, re-arms miss and squashes cut through runs of
disabled PEs; one more DiAG cell runs with a non-default lane geometry
(a lane buffer every 4 PEs, 2 cycles per cluster boundary). Four
two-thread cells (``kmeans`` and the pointer-chasing ``btree``, on
F4C32 and on the baseline) pin the lockstep group loop: rings or cores
that share one hierarchy and may only fast-forward together. (``mcf``
is single-threaded: ``threads=2`` folds to one engine.)

A change that is *meant* to move simulated outcomes re-records the
fixture with ``PYTHONPATH=src python tests/test_engine_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness import run_baseline, run_diag
from repro.obs import deterministic_view

FIXTURE = Path(__file__).parent / "fixtures" / "engine_golden.json"

SCALE = 0.25
KERNELS = ("kmeans", "nn", "btree", "pathfinder", "mcf", "deepsjeng",
           "xz", "povray")

#: name -> zero-argument run; the three extra DiAG cells reach the
#: pipelined-SIMT path, the shared-FU arbitration path and the lane
#: delays of a non-default geometry
CELLS = {}
for _kernel in KERNELS:
    CELLS[f"diag/{_kernel}"] = (
        lambda k=_kernel: run_diag(k, config="F4C32", scale=SCALE))
    CELLS[f"ooo/{_kernel}"] = (
        lambda k=_kernel: run_baseline(k, scale=SCALE))
    CELLS[f"diag-F4C2/{_kernel}"] = (
        lambda k=_kernel: run_diag(k, config="F4C2", scale=SCALE))
CELLS["diag/nn+simt"] = lambda: run_diag(
    "nn", config="F4C32", scale=SCALE, simt=True)
CELLS["diag/kmeans+fu_share4"] = lambda: run_diag(
    "kmeans", config="F4C32", scale=SCALE,
    config_overrides={"fu_share_factor": 4})
CELLS["diag/mcf+lane_geometry"] = lambda: run_diag(
    "mcf", config="F4C32", scale=SCALE,
    config_overrides={"lane_buffer_every": 4, "inter_cluster_delay": 2})
THREAD_KERNELS = ("kmeans", "btree")
for _kernel in THREAD_KERNELS:
    CELLS[f"diag/{_kernel}@2t"] = (
        lambda k=_kernel: run_diag(k, config="F4C32", scale=SCALE,
                                   threads=2))
    CELLS[f"ooo/{_kernel}@2t"] = (
        lambda k=_kernel: run_baseline(k, scale=SCALE, threads=2))


def digest(record):
    assert record.status == "ok" and record.verified, record.error
    view = json.dumps(deterministic_view(record.stats), sort_keys=True)
    return {"cycles": record.cycles,
            "instructions": record.instructions,
            "stats_sha256": hashlib.sha256(view.encode()).hexdigest()}


def test_fixture_covers_every_cell():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert digest(CELLS[name]()) == expected


def test_extra_cells_reach_their_paths():
    simt = CELLS["diag/nn+simt"]()
    assert simt.extra["simt_regions"] > 0
    shared = CELLS["diag/kmeans+fu_share4"]()
    assert shared.cycles != CELLS["diag/kmeans"]().cycles
    geometry = CELLS["diag/mcf+lane_geometry"]()
    assert geometry.cycles != CELLS["diag/mcf"]().cycles


@pytest.mark.parametrize("machine", ("diag", "ooo"))
def test_thread_cells_run_as_groups(machine):
    """The two-thread cells really run two engines, and both take
    group fast-forward skips."""
    for kernel in THREAD_KERNELS:
        record = CELLS[f"{machine}/{kernel}@2t"]()
        assert record.threads == 2
        assert record.stats["sim.host.ff_skipped_cycles"] > 0


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {name: digest(run()) for name, run in sorted(CELLS.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
