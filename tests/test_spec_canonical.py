"""Canonical, validated run specs (docs/SERVICE.md §2).

``RunSpec.__post_init__`` is the one place a spec is canonicalized and
validated, so every front door — ``RunSpec(...)``, ``RunSpec.diag`` /
``ooo``, ``from_dict`` (the service, saved sweep points) — gives one
run one ``spec_key``, and a spec no machine can run raises
``ValueError`` at construction instead of failing inside a worker.

* a Hypothesis property: two independently drawn spellings of one run
  map to one spec and one key (``scale`` type, omitted vs explicit
  default config, override order and shape, ``simt``/``threads`` on
  incapable workloads, the ``num_clusters`` spelling, the front door);
* a table of invalid specs, each a ``ValueError``;
* the named aliases that used to hash apart.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import RunSpec
from repro.harness.journal import spec_key
from repro.harness.parallel import DEFAULT_CONFIG
from repro.workloads import get_workload

#: MT- and SIMT-capable, MT only, and neither
WORKLOADS = ("nn", "hotspot", "leela", "lud", "bfs", "xz")

#: DiAG knobs the property varies (num_clusters is drawn separately)
KNOBS = {"lsu_queue_depth": (2, 4, 8), "flush_penalty": (1, 3, 6)}


@st.composite
def runs(draw):
    """One run, as its canonical field values."""
    machine = draw(st.sampled_from(("diag", "ooo")))
    workload = draw(st.sampled_from(WORKLOADS))
    cls = get_workload(workload)
    diag = machine == "diag"
    run = {"machine": machine, "workload": workload,
           "config": draw(st.sampled_from(("F4C2", "F4C16", "F4C32")))
           if diag else "ooo8",
           "scale": draw(st.sampled_from((0.25, 0.5, 1.0, 2.0))),
           "threads": draw(st.sampled_from((1, 2, 4)))
           if cls.MT_CAPABLE else 1,
           "simt": draw(st.booleans()) and diag and cls.SIMT_CAPABLE,
           "num_clusters": draw(st.sampled_from((None, 2, 8)))
           if diag else None,
           "max_cycles": draw(st.sampled_from((None, 10_000_000))),
           "config_overrides": ()}
    if diag:
        chosen = draw(st.lists(st.sampled_from(sorted(KNOBS)),
                               unique=True))
        run["config_overrides"] = tuple(sorted(
            (knob, draw(st.sampled_from(KNOBS[knob])))
            for knob in chosen))
    return run


@st.composite
def spellings(draw, run):
    """``(front door, arguments)``: one way of asking for ``run``."""
    cls = get_workload(run["workload"])
    doc = {"machine": run["machine"], "workload": run["workload"]}
    if run["config"] != DEFAULT_CONFIG[run["machine"]] \
            or draw(st.booleans()):
        doc["config"] = run["config"]
    scale = run["scale"]
    doc["scale"] = draw(st.sampled_from(
        [scale, np.float64(scale)]
        + ([int(scale), np.int64(scale)] if scale.is_integer() else [])))
    if cls.MT_CAPABLE:
        threads = run["threads"]
    else:   # threads mean nothing here: any valid count is the run
        threads = draw(st.integers(min_value=1, max_value=16))
    if threads != 1 or draw(st.booleans()):
        doc["threads"] = draw(st.sampled_from((threads,
                                               np.int64(threads))))
    # simt is only honoured on a SIMT-capable workload on DiAG
    if run["machine"] == "diag" and cls.SIMT_CAPABLE:
        simt = run["simt"]
    else:
        simt = draw(st.booleans())
    if simt or draw(st.booleans()):
        doc["simt"] = simt
    if run["max_cycles"] is not None:
        doc["max_cycles"] = run["max_cycles"]
    pairs = list(run["config_overrides"])
    clusters = run["num_clusters"]
    if clusters is not None:
        where = draw(st.sampled_from(("field", "override", "both")))
        if where != "override":
            doc["num_clusters"] = clusters
        if where != "field":
            pairs.append(("num_clusters", clusters))
    if pairs or draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
        shape = draw(st.sampled_from(("dict", "lists", "tuples")))
        doc["config_overrides"] = (
            dict(pairs) if shape == "dict"
            else [list(p) for p in pairs] if shape == "lists"
            else tuple(pairs))
    door = draw(st.sampled_from(("from_dict", "init", "classmethod")))
    return door, doc


def build(door, doc):
    if door == "from_dict":
        return RunSpec.from_dict(doc)
    if door == "init":
        return RunSpec(**doc)
    kwargs = dict(doc)
    machine = kwargs.pop("machine")
    workload = kwargs.pop("workload")
    return getattr(RunSpec, machine)(workload, **kwargs)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_equal_runs_share_one_key(data):
    run = data.draw(runs())
    a = build(*data.draw(spellings(run)))
    b = build(*data.draw(spellings(run)))
    assert a == b
    assert spec_key(a) == spec_key(b)
    assert {field: getattr(a, field) for field in run} == run
    assert type(a.scale) is float and type(a.threads) is int


def test_distinct_runs_keep_distinct_keys():
    specs = [RunSpec.diag("nn"), RunSpec.diag("nn", scale=0.5),
             RunSpec.diag("nn", config="F4C2"), RunSpec.ooo("nn"),
             RunSpec.diag("nn", threads=2), RunSpec.diag("nn", simt=True),
             RunSpec.diag("nn", num_clusters=8),
             RunSpec.diag("nn", config_overrides={"flush_penalty": 6})]
    assert len({spec_key(spec) for spec in specs}) == len(specs)


def test_named_aliases():
    # the three spellings of one run that used to be three keys
    canonical = RunSpec.diag("nn")
    for doc in ({"machine": "diag", "workload": "nn", "scale": 1},
                {"machine": "diag", "workload": "nn", "scale": 1.0},
                {"machine": "diag", "workload": "nn",
                 "config": "F4C32"}):
        spec = RunSpec.from_dict(doc)
        assert spec == canonical
        assert spec_key(spec) == spec_key(canonical)
    assert canonical.config == "F4C32" and canonical.scale == 1.0
    ooo = RunSpec.from_dict({"machine": "ooo", "workload": "nn"})
    assert ooo == RunSpec.from_dict({"machine": "ooo", "workload": "nn",
                                     "config": "ooo8"})
    assert ooo.config == DEFAULT_CONFIG["ooo"]
    assert ooo.failure_record("timeout", "x", "hang").config == "ooo8"


VALID = {"machine": "diag", "workload": "nn", "scale": 0.5}

INVALID = [
    ("not an object", ["diag", "nn"]),
    ("unknown field", dict(VALID, bogus=1)),
    ("missing workload", {"machine": "diag"}),
    ("unknown machine", dict(VALID, machine="vliw")),
    ("unknown workload", dict(VALID, workload="nope")),
    ("workload not a name", dict(VALID, workload=3)),
    ("unknown diag config", dict(VALID, config="XX")),
    ("config not a name", dict(VALID, config=["F4C32"])),
    ("diag preset on ooo", dict(VALID, machine="ooo", config="F4C32")),
    ("other ooo config", dict(VALID, machine="ooo", config="ooo4")),
    ("scale string", dict(VALID, scale="1.0")),
    ("scale bool", dict(VALID, scale=True)),
    ("scale nan", dict(VALID, scale=math.nan)),
    ("scale inf", dict(VALID, scale=math.inf)),
    ("scale zero", dict(VALID, scale=0)),
    ("scale negative", dict(VALID, scale=-0.5)),
    ("scale null", dict(VALID, scale=None)),
    ("threads negative", dict(VALID, threads=-3)),
    ("threads zero", dict(VALID, threads=0)),
    ("threads float", dict(VALID, threads=2.0)),
    ("threads bool", dict(VALID, threads=True)),
    ("threads string", dict(VALID, threads="2")),
    # invalid even where threads would fold to 1
    ("threads negative, non-MT", dict(VALID, workload="lud",
                                      threads=-3)),
    ("simt not a bool", dict(VALID, simt="yes")),
    ("max_cycles zero", dict(VALID, max_cycles=0)),
    ("max_cycles float", dict(VALID, max_cycles=1e6)),
    ("num_clusters zero", dict(VALID, num_clusters=0)),
    ("num_clusters float", dict(VALID, num_clusters=2.5)),
    ("num_clusters override zero",
     dict(VALID, config_overrides={"num_clusters": 0})),
    ("num_clusters spellings disagree",
     dict(VALID, num_clusters=4, config_overrides={"num_clusters": 8})),
    ("unknown override knob", dict(VALID, config_overrides={"bogus": 1})),
    ("override knob not a name", dict(VALID, config_overrides=[[1, 2]])),
    ("override pairs malformed",
     dict(VALID, config_overrides=[["flush_penalty"]])),
    ("override not pairs", dict(VALID, config_overrides="abc")),
    ("override knob twice",
     dict(VALID, config_overrides=[["flush_penalty", 1],
                                   ["flush_penalty", 3]])),
    ("override value a string",
     dict(VALID, config_overrides={"lsu_queue_depth": "x"})),
    ("override value null",
     dict(VALID, config_overrides={"watchdog_window": None})),
    ("override latency negative",
     dict(VALID, config_overrides={"flush_penalty": -1})),
    ("override size zero",
     dict(VALID, config_overrides={"pes_per_cluster": 0})),
    ("override queue depth zero",
     dict(VALID, config_overrides={"lsu_queue_depth": 0})),
    ("override int as float",
     dict(VALID, config_overrides={"flush_penalty": 3.0})),
    ("override int as bool",
     dict(VALID, config_overrides={"flush_penalty": True})),
    ("override bool as int",
     dict(VALID, config_overrides={"enable_reuse": 0})),
    ("override float nan",
     dict(VALID, config_overrides={"freq_ghz": math.nan})),
    ("override float zero",
     dict(VALID, config_overrides={"freq_ghz": 0})),
    ("override str knob not a str",
     dict(VALID, config_overrides={"isa": 32})),
    ("override nested knob",
     dict(VALID, config_overrides={"mem_timings": {"l1d_hit": 2}})),
    ("overrides on ooo", dict(VALID, machine="ooo",
                              config_overrides={"flush_penalty": 1})),
    ("num_clusters on ooo", dict(VALID, machine="ooo", num_clusters=4)),
]


@pytest.mark.parametrize("doc", [doc for _, doc in INVALID],
                         ids=[name for name, _ in INVALID])
def test_invalid_spec_raises(doc):
    with pytest.raises(ValueError):
        RunSpec.from_dict(doc)


def test_override_values_in_range_are_accepted():
    # 0 is a real setting for a latency or the watchdog (0 disables it)
    spec = RunSpec.from_dict(dict(VALID, config_overrides={
        "watchdog_window": 0, "flush_penalty": 0, "enable_reuse": False,
        "freq_ghz": 1}))
    assert dict(spec.config_overrides) == {
        "watchdog_window": 0, "flush_penalty": 0, "enable_reuse": False,
        "freq_ghz": 1.0}
    assert type(dict(spec.config_overrides)["freq_ghz"]) is float
    numpy_int = RunSpec.diag(
        "nn", config_overrides={"lsu_queue_depth": np.int64(4)})
    assert spec_key(numpy_int) == spec_key(
        RunSpec.diag("nn", config_overrides={"lsu_queue_depth": 4}))
    assert type(dict(numpy_int.config_overrides)["lsu_queue_depth"]) \
        is int
