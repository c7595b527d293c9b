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
* a table of invalid specs, each a ``ValueError``, cache and cluster
  geometry included;
* the named aliases that used to hash apart, overrides equal to the
  preset's own value included;
* the same rules for :class:`repro.sampling.SampledSpec`, which shares
  the machine, workload, config, scale, simt and override checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CONFIG_PRESETS
from repro.harness import RunSpec
from repro.harness.journal import spec_key
from repro.harness.parallel import execute_spec
from repro.machines import MACHINES
from repro.sampling import SampledSpec
from repro.workloads import get_workload

#: MT- and SIMT-capable, MT only, and neither
WORKLOADS = ("nn", "hotspot", "leela", "lud", "bfs", "xz")

#: DiAG knobs the property varies (num_clusters is drawn separately)
KNOBS = {"lsu_queue_depth": (2, 4, 8), "flush_penalty": (1, 3, 6)}


@st.composite
def runs(draw):
    """One run, as its canonical field values: an override equal to
    the preset's own value (``num_clusters`` included) is no override."""
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
           "num_clusters": None,
           "max_cycles": draw(st.sampled_from((None, 10_000_000))),
           "config_overrides": ()}
    if diag:
        preset = CONFIG_PRESETS[run["config"]]
        clusters = draw(st.sampled_from((None, 2, 8)))
        if clusters != preset.num_clusters:
            run["num_clusters"] = clusters
        chosen = draw(st.lists(st.sampled_from(sorted(KNOBS)),
                               unique=True))
        pairs = [(knob, draw(st.sampled_from(KNOBS[knob])))
                 for knob in chosen]
        run["config_overrides"] = tuple(sorted(
            (knob, value) for knob, value in pairs
            if value != getattr(preset, knob)))
    return run


@st.composite
def spellings(draw, run):
    """``(front door, arguments)``: one way of asking for ``run``."""
    cls = get_workload(run["workload"])
    doc = {"machine": run["machine"], "workload": run["workload"]}
    if run["config"] != MACHINES[run["machine"]].default_config \
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
    if run["machine"] == "diag":
        # knobs the run leaves at the preset's value may be spelled out
        preset = CONFIG_PRESETS[run["config"]]
        for knob in sorted(set(KNOBS) - dict(pairs).keys()):
            if draw(st.booleans()):
                pairs.append((knob, getattr(preset, knob)))
        if clusters is None and draw(st.booleans()):
            clusters = preset.num_clusters
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
    # the spellings of one run that used to be several keys
    canonical = RunSpec.diag("nn")
    for doc in ({"machine": "diag", "workload": "nn", "scale": 1},
                {"machine": "diag", "workload": "nn", "scale": 1.0},
                {"machine": "diag", "workload": "nn",
                 "config": "F4C32"},
                # overrides equal to F4C32's own values
                {"machine": "diag", "workload": "nn", "config": "F4C32",
                 "num_clusters": 32},
                {"machine": "diag", "workload": "nn",
                 "config_overrides": {"enable_reuse": True}},
                {"machine": "diag", "workload": "nn",
                 "config_overrides": {"num_clusters": 32,
                                      "lsu_queue_depth": 8,
                                      "line_bytes": 64}}):
        spec = RunSpec.from_dict(doc)
        assert spec == canonical
        assert spec_key(spec) == spec_key(canonical)
    assert canonical.config == "F4C32" and canonical.scale == 1.0
    ooo = RunSpec.from_dict({"machine": "ooo", "workload": "nn"})
    assert ooo == RunSpec.from_dict({"machine": "ooo", "workload": "nn",
                                     "config": "ooo8"})
    assert ooo.config == MACHINES["ooo"].default_config
    assert ooo.failure_record("timeout", "x", "hang").config == "ooo8"


def test_no_op_override_beside_a_real_one():
    # only the override that changes the preset stays in the spec
    spec = RunSpec("diag", "nn", config="F4C32", num_clusters=8,
                   config_overrides={"enable_reuse": True,
                                     "flush_penalty": 6})
    assert spec.num_clusters == 8
    assert spec.config_overrides == (("flush_penalty", 6),)


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
    # geometry: every cache a whole number of sets, and a cluster at
    # least one I-cache line of instructions wide (4 B each)
    ("line size not dividing the caches",
     dict(VALID, config_overrides={"line_bytes": 48})),
    ("L1D size not a whole number of sets",
     dict(VALID, config_overrides={"l1d_size": 1000})),
    ("L1I size not a whole number of sets",
     dict(VALID, config_overrides={"l1i_size": 100})),
    ("cluster narrower than a line",
     dict(VALID, config="F4C2", config_overrides={"pes_per_cluster": 12})),
    ("one-PE cluster",
     dict(VALID, config="F4C2", config_overrides={"pes_per_cluster": 1})),
    ("line wider than a 16-PE cluster",
     dict(VALID, config_overrides={"pes_per_cluster": 16,
                                   "line_bytes": 128})),
    ("no-op num_clusters disagreeing with the field",
     dict(VALID, num_clusters=4, config_overrides={"num_clusters": 32})),
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


@pytest.mark.parametrize("pes,line", [(8, 32), (4, 16), (32, 128)])
def test_cluster_holding_one_line_is_accepted_and_runs(pes, line):
    spec = RunSpec.diag("nn", config="F4C2", scale=0.25,
                        config_overrides={"pes_per_cluster": pes,
                                          "line_bytes": line})
    assert dict(spec.config_overrides) == {"pes_per_cluster": pes,
                                           "line_bytes": line}
    record = execute_spec(spec)
    assert record.status == "ok" and record.verified


# ------------------------------------------------------------ sampled

#: (name, spelling, the canonical spelling it must equal)
SAMPLED_ALIASES = [
    ("omitted vs explicit default config",
     {"config": "F4C32"}, {}),
    ("int vs float scale", {"scale": 1}, {"scale": 1.0}),
    ("numpy scale", {"scale": np.float64(0.5)}, {"scale": 0.5}),
    ("omitted vs explicit ooo config",
     {"machine": "ooo", "config": "ooo8"}, {"machine": "ooo"}),
    ("simt on ooo", {"machine": "ooo", "simt": True},
     {"machine": "ooo"}),
    ("simt on a non-SIMT workload", {"workload": "lud", "simt": True},
     {"workload": "lud"}),
    ("override shapes",
     {"config_overrides": [["lsu_queue_depth", 4], ["flush_penalty", 6]]},
     {"config_overrides": {"flush_penalty": 6, "lsu_queue_depth": 4}}),
    ("override equal to the preset's value",
     {"config_overrides": {"enable_reuse": True, "flush_penalty": 6}},
     {"config_overrides": {"flush_penalty": 6}}),
]


@pytest.mark.parametrize("spelling,canonical",
                         [(a, b) for _, a, b in SAMPLED_ALIASES],
                         ids=[name for name, _, _ in SAMPLED_ALIASES])
def test_sampled_aliases_share_one_key(spelling, canonical):
    a = SampledSpec(**dict({"workload": "nn"}, **spelling))
    b = SampledSpec(**dict({"workload": "nn"}, **canonical))
    assert a == b
    assert spec_key(a) == spec_key(b)
    assert type(a.scale) is float


def test_sampled_spec_canonical_fields():
    spec = SampledSpec("nn")
    assert spec.config == "F4C32" and spec.machine == "diag"
    assert spec.failure_record("timeout", "x", "hang").config == "F4C32"
    assert SampledSpec("nn", machine="ooo").config == "ooo8"
    assert SampledSpec("nn", simt=True).simt is True
    assert len({spec_key(SampledSpec("nn")),
                spec_key(SampledSpec("nn", config="F4C2")),
                spec_key(SampledSpec("nn", machine="ooo")),
                spec_key(SampledSpec("nn", simt=True))}) == 4


SAMPLED_INVALID = [
    ("unknown workload", {"workload": "nope"}),
    ("workload not a name", {"workload": 3}),
    ("unknown machine", {"machine": "vliw"}),
    ("unknown diag config", {"config": "XX"}),
    ("diag preset on ooo", {"machine": "ooo", "config": "F4C32"}),
    ("scale zero", {"scale": 0}),
    ("scale string", {"scale": "1.0"}),
    ("simt not a bool", {"simt": "yes"}),
    ("unknown override knob", {"config_overrides": {"bogus": 1}}),
    ("override value a string",
     {"config_overrides": {"lsu_queue_depth": "x"}}),
    ("overrides on ooo",
     {"machine": "ooo", "config_overrides": {"flush_penalty": 1}}),
    ("window outside the period",
     {"period": 100, "window": 90, "warmup": 20}),
    ("line size not dividing the caches",
     {"config_overrides": {"line_bytes": 48}}),
    ("cluster narrower than a line",
     {"config_overrides": {"pes_per_cluster": 8}}),
]


@pytest.mark.parametrize("doc", [doc for _, doc in SAMPLED_INVALID],
                         ids=[name for name, _ in SAMPLED_INVALID])
def test_invalid_sampled_spec_raises(doc):
    with pytest.raises(ValueError):
        SampledSpec(**dict({"workload": "nn"}, **doc))
