"""Statistical-equivalence suite for sampled simulation.

The contract of :mod:`repro.sampling` (docs/SAMPLING.md): a sampled
run's IPC point estimate must agree with the full-detail engine within
its own reported 95% confidence interval, on both engines, across
representative workloads — and the whole machinery must stay
deterministic (same params ⇒ byte-identical stats) and unbiased with
respect to where the window schedule happens to land (phase
invariance, checked as a Hypothesis property).

Full-detail reference runs go through the ordinary runner cache, so
each (workload, machine) reference simulates once per session no
matter how many tests consult it.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.runner import clear_cache, run_baseline, run_diag
from repro.iss.simulator import ISS, HaltReason
from repro.machines import MACHINES
from repro.obs.registry import deterministic_view
from repro.sampling import (
    SampledSpec,
    SamplingParams,
    WarmTrace,
    estimate,
    run_sampled,
    t95,
)
from repro.workloads import get_workload

#: the tier-1 equivalence matrix: memory-bound (lud), branchy
#: game-tree search (leela), and a SIMT-capable clustering kernel
#: (streamcluster) — each large enough for a double-digit window count
EQUIV_WORKLOADS = ("leela", "lud", "streamcluster")

EQUIV_PARAMS = SamplingParams(period=2_500, window=500, warmup=500)

DIAG_CONFIG = "F4C2"


def full_record(workload, machine):
    """Full-detail reference run (runner-cached across tests)."""
    if machine == "diag":
        rec = run_diag(workload, config=DIAG_CONFIG, scale=1.0)
    else:
        rec = run_baseline(workload, scale=1.0)
    assert rec.status == "ok" and rec.verified, \
        f"reference run failed: {rec.error}"
    return rec


def sampled_record(workload, machine, params=EQUIV_PARAMS):
    cfg = DIAG_CONFIG if machine == "diag" else None
    rec = run_sampled(workload, machine=machine, config=cfg,
                      scale=1.0, params=params)
    assert rec.status == "ok", f"sampled run failed: {rec.error}"
    return rec


# ----------------------------------------------------- estimator units

class TestEstimator:
    def test_t95_table_and_tail(self):
        assert t95(1) == pytest.approx(12.706)
        assert t95(9) == pytest.approx(2.262)
        assert t95(1000) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t95(0)

    def test_estimate_known_values(self):
        mean, ci, std = estimate([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)
        # t95(2) * 1.0 / sqrt(3)
        assert ci == pytest.approx(4.303 / 3 ** 0.5, rel=1e-6)

    def test_estimate_single_window_is_fully_uncertain(self):
        mean, ci, std = estimate([1.5])
        assert mean == ci == 1.5
        assert std == 0.0

    def test_estimate_floor_binds_on_zero_variance(self):
        mean, ci, _ = estimate([2.0, 2.0, 2.0, 2.0], ci_floor_rel=0.02)
        assert ci == pytest.approx(0.04)

    def test_estimate_empty_raises(self):
        with pytest.raises(ValueError):
            estimate([])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SamplingParams(period=1000, window=800,
                           warmup=300).validate()
        with pytest.raises(ValueError):
            SamplingParams(period=0).validate()
        with pytest.raises(ValueError):
            SamplingParams(ci_floor_rel=1.5).validate()
        SamplingParams().validate()  # defaults are coherent

    def test_spec_validates_at_construction(self):
        with pytest.raises(ValueError):
            SampledSpec(workload="nn", period=100, window=90,
                        warmup=20)
        with pytest.raises(ValueError):
            SampledSpec(workload="nn", machine="vliw")


# --------------------------------------------------- ISS boundary runs

class TestRunToBoundary:
    def _iss(self, workload="nn", scale=1.0):
        inst = get_workload(workload)().build(scale=scale)
        iss = ISS(inst.program)
        inst.setup(iss.memory)
        return iss, inst

    def test_boundary_composes_with_run(self):
        iss, inst = self._iss()
        reason = iss.run_to_boundary(1_000)
        assert reason is HaltReason.MAX_STEPS
        assert iss.stats.instructions >= 1_000
        assert not iss._simt_stack
        iss.run()
        ref, ref_inst = self._iss()
        ref.run()
        assert iss.stats.instructions == ref.stats.instructions
        assert iss.x == ref.x
        assert inst.verify(iss.memory)

    def test_boundary_never_pauses_inside_simt(self):
        inst = get_workload("nn")().build(scale=1.0, simt=True)
        iss = ISS(inst.program)
        inst.setup(iss.memory)
        step = 500
        target = step
        while iss.run_to_boundary(target) is HaltReason.MAX_STEPS:
            assert not iss._simt_stack
            target += step
        assert inst.verify(iss.memory)


# ------------------------------------------------- the headline matrix

@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("workload", EQUIV_WORKLOADS)
class TestSampledEquivalence:
    def test_full_ipc_within_sampled_ci(self, workload, machine):
        full = full_record(workload, machine)
        rec = sampled_record(workload, machine)
        assert rec.verified, "sampling must not skip verification"
        mean = rec.stat("sampling.ipc_mean")
        ci = rec.stat("sampling.ipc_ci95")
        windows = rec.stat("sampling.windows")
        assert windows >= 5, "matrix workloads must yield real samples"
        assert mean > 0 and ci > 0
        assert abs(mean - full.ipc) <= ci, (
            f"{workload}/{machine}: full IPC {full.ipc:.4f} outside "
            f"sampled {mean:.4f} ± {ci:.4f} ({windows} windows)")
        # the record reads back the estimate and matches the
        # functional instruction count exactly
        assert rec.instructions == full.instructions
        assert rec.ipc == pytest.approx(mean, rel=0.01)
        coverage = rec.stat("sampling.coverage")
        assert 0.0 < coverage < 1.0


# ------------------------------------------------ statistical hygiene

class TestDeterminism:
    def test_sampled_stats_are_byte_identical(self):
        params = SamplingParams(period=2_500, window=400, warmup=300)
        views = []
        for _ in range(2):
            clear_cache()
            rec = run_sampled("streamcluster", machine="diag",
                              config=DIAG_CONFIG, scale=1.0,
                              params=params)
            assert rec.status == "ok"
            views.append((
                json.dumps(deterministic_view(rec.stats),
                           sort_keys=True),
                json.dumps(rec.extra["windows"], sort_keys=True),
                rec.cycles, rec.instructions, rec.energy_j))
        assert views[0] == views[1]


class TestPhaseInvariance:
    """On a (quasi-)periodic workload the estimator must not care
    where the systematic schedule lands: estimates taken at any phase
    agree within their joint confidence intervals."""

    PERIOD = 1_500
    _cache = {}

    @classmethod
    def _estimate(cls, phase):
        if phase not in cls._cache:
            params = SamplingParams(period=cls.PERIOD, window=300,
                                    warmup=300, phase=phase)
            rec = run_sampled("nn", machine="diag", config=DIAG_CONFIG,
                              scale=1.0, params=params)
            assert rec.status == "ok", rec.error
            cls._cache[phase] = (rec.stat("sampling.ipc_mean"),
                                 rec.stat("sampling.ipc_ci95"))
        return cls._cache[phase]

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(phase=st.integers(min_value=0, max_value=PERIOD - 1))
    def test_estimate_is_phase_invariant(self, phase):
        base_mean, base_ci = self._estimate(0)
        mean, ci = self._estimate(phase)
        assert abs(mean - base_mean) <= base_ci + ci, (
            f"phase {phase}: {mean:.4f}±{ci:.4f} does not overlap "
            f"phase 0's {base_mean:.4f}±{base_ci:.4f}")


# --------------------------------------------------- warming mechanics

class TestWarmTrace:
    def test_lines_evict_oldest_and_keep_recency(self):
        trace = WarmTrace(bound=2, line_bytes=64)
        trace.touch(0x100)
        trace.touch(0x180)
        trace.touch(0x104)  # same line as 0x100 -> refreshed
        trace.touch(0x200)  # evicts 0x180 (oldest)
        assert list(trace.lines) == [0x100, 0x200]

    def test_trace_survives_checkpoint_roundtrip(self):
        inst = get_workload("nn")().build(scale=1.0)
        iss = ISS(inst.program)
        inst.setup(iss.memory)
        iss.warm_trace = WarmTrace(bound=256, line_bytes=64)
        iss.run_to_boundary(2_000)
        assert len(iss.warm_trace.lines) > 0
        clone = ISS.restore_state(iss.save_state())
        assert clone.warm_trace is not None
        assert list(clone.warm_trace.lines) == list(iss.warm_trace.lines)
        assert clone.warm_trace.predictor.table == \
            iss.warm_trace.predictor.table
        assert clone.warm_trace.predictor.ghr == \
            iss.warm_trace.predictor.ghr
        assert clone.warm_trace.btb == iss.warm_trace.btb
        assert clone.warm_trace.ras == iss.warm_trace.ras

    def test_predictor_copy_is_independent(self):
        trace = WarmTrace()
        trace.predictor.update(0x400, True)
        copy = trace.predictor_copy()
        assert copy.table == trace.predictor.table
        assert copy.ghr == trace.predictor.ghr
        copy.update(0x400, False)
        assert copy.table != trace.predictor.table
