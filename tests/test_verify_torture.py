"""Torture generator and campaign runner tests (repro.verify)."""

import pickle
from collections import Counter
from dataclasses import replace

import pytest

from repro.asm import assemble
from repro.harness.parallel import run_specs
from repro.iss.simulator import ISS, HaltReason
from repro.verify import TortureSpec, build_specs, generate, run_torture
from repro.verify import campaign
from repro.verify.campaign import SEED_STRIDE, SIMT_CONFIG, TortureOutcome


class TestDeterminism:
    """Same seed -> identical program bytes (the shrinker, the corpus
    and CI replays all rest on this)."""

    @pytest.mark.parametrize("simt", (False, True))
    def test_same_seed_same_bytes(self, simt):
        a = generate(1234, ops=40, simt=simt)
        b = generate(1234, ops=40, simt=simt)
        assert a.source == b.source
        assert a.source.encode() == b.source.encode()

    def test_different_seeds_differ(self):
        assert generate(1, ops=40).source != generate(2, ops=40).source

    def test_ops_count_respected(self):
        program = generate(7, ops=25)
        assert len(program.ops) == 25

    def test_spec_seed_derivation(self):
        spec = TortureSpec(seed=3, index=5, machine="diag")
        assert spec.program_seed == 3 * SEED_STRIDE + 5
        assert spec.program().source == \
            generate(spec.program_seed, ops=spec.ops).source


class TestGeneratedPrograms:
    """Every generated program must assemble and terminate on the ISS."""

    @pytest.mark.parametrize("seed", range(8))
    def test_assembles_and_terminates(self, seed):
        program = generate(seed, ops=40)
        iss = ISS(assemble(program.source))
        reason = iss.run(max_steps=2_000_000)
        assert reason == HaltReason.EBREAK

    @pytest.mark.parametrize("seed", range(4))
    def test_simt_mode_assembles_and_terminates(self, seed):
        program = generate(seed, ops=30, simt=True)
        assert "simt_s" in program.source
        iss = ISS(assemble(program.source))
        reason = iss.run(max_steps=2_000_000)
        assert reason == HaltReason.EBREAK

    def test_with_ops_subset_still_assembles(self):
        program = generate(11, ops=30)
        subset = program.with_ops(program.ops[::3])
        assemble(subset.source)  # private labels keep subsets legal


class TestCampaign:
    def test_matrix_shape_and_order(self):
        specs = build_specs(seed=0, count=2)
        # 2 programs x {simt off,on} x {diag,ooo} x {ff on,off}
        assert len(specs) == 16
        assert specs[0].index == 0 and specs[-1].index == 1
        # SIMT cells run on the many-cluster preset
        for spec in specs:
            assert spec.config == (SIMT_CONFIG if spec.simt else "F4C2")

    def test_spec_pickles(self):
        spec = TortureSpec(seed=1, index=2, machine="ooo", ff=False)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.workload == spec.workload

    def test_outcome_pickles(self):
        outcome = TortureOutcome(
            spec=TortureSpec(seed=0, index=0, machine="diag"),
            status="divergence", detail="x", kind="reg")
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.status == "divergence" and not clone.ok

    def test_pooled_campaign_ordered_and_clean(self):
        specs = build_specs(seed=0, count=2, machines=("diag",),
                            ff_modes=(True,), simt_modes=(False,),
                            ops=15)
        outcomes = run_specs(specs, jobs=2)
        assert len(outcomes) == len(specs)
        for spec, outcome in zip(specs, outcomes):
            assert outcome.spec == spec  # pool preserves order
            assert outcome.ok, outcome.detail

    def test_run_torture_report(self):
        report = run_torture(seed=0, count=1, machines=("ooo",),
                             ff_modes=(True,), simt_modes=(False,),
                             ops=15, jobs=1)
        assert report.ok
        assert report.counts() == {"ok": 1}
        assert "1 cells" in report.summary()


def _cell_view(report):
    return [(o.spec, o.status, o.detail, o.retired, o.cycles,
             o.failure_class) for o in report.outcomes]


class TestProgramMemo:
    """Each campaign program is generated and assembled once, however
    many cells (and the prescreen) run it; outcomes never depend on
    which path built the program."""

    def test_serial_campaign_builds_each_program_once(self, monkeypatch):
        generated, assembled = Counter(), Counter()
        real_generate, real_assemble = campaign.generate, campaign.assemble

        def counting_generate(seed, ops=40, simt=False):
            generated[(seed, simt)] += 1
            return real_generate(seed, ops=ops, simt=simt)

        def counting_assemble(source):
            assembled[source] += 1
            return real_assemble(source)

        monkeypatch.setattr(campaign, "generate", counting_generate)
        monkeypatch.setattr(campaign, "assemble", counting_assemble)
        report = run_torture(seed=5, count=3, ops=15, jobs=1)
        assert report.ok
        assert len(report.outcomes) == 3 * 8
        # 3 programs x {simt off, on}: one build each, not 1 + 4
        assert sorted(generated) == sorted(
            (5 * SEED_STRIDE + i, simt) for i in range(3)
            for simt in (False, True))
        assert set(generated.values()) == {1}
        assert len(assembled) == 6 and set(assembled.values()) == {1}
        assert campaign._programs == {}

    def test_new_campaign_seed_drops_the_old_programs(self):
        spec = TortureSpec(seed=1, index=0, machine="diag", ops=15)
        try:
            spec.execute()
            assert set(campaign._programs) == {(spec.program_seed, 15,
                                                False)}
            replace(spec, seed=2).execute()
            assert set(campaign._programs) == {(2 * SEED_STRIDE, 15,
                                                False)}
        finally:
            campaign.clear_programs()

    @pytest.mark.parametrize("broken", (False, True))
    def test_outcomes_identical_across_build_paths(self, monkeypatch,
                                                   broken):
        bad_seed = 7 * SEED_STRIDE + 1
        if broken:
            real_generate = campaign.generate

            def unassemblable(seed, ops=40, simt=False):
                program = real_generate(seed, ops=ops, simt=simt)
                if seed == bad_seed and not simt:
                    program = replace(program, epilogue=program.epilogue
                                      + ("    frobnicate x1, x2",))
                return program

            monkeypatch.setattr(campaign, "generate", unassemblable)
        views, summaries = [], set()
        for prescreen in (True, False):
            for jobs in (1, 2):
                report = run_torture(seed=7, count=2, ops=15, jobs=jobs,
                                     prescreen=prescreen)
                views.append(_cell_view(report))
                summaries.add(report.summary())
        assert all(view == views[0] for view in views[1:])
        assert len(summaries) == 1
        failed = [cell for cell in views[0] if cell[1] != "ok"]
        if not broken:
            assert not failed
            return
        # every cell of the unassemblable program reports the
        # assembler's message, and no other cell fails
        assert summaries == {"16 cells, asm-error=4, ok=12"}
        assert [cell[0].program_seed for cell in failed] == [bad_seed] * 4
        for _, status, detail, retired, cycles, failure_class in failed:
            assert (status, detail, retired, cycles, failure_class) == (
                "asm-error", "line 57: unknown instruction 'frobnicate'",
                0, 0, "crash")


class TestPrescreen:
    def test_program_that_does_not_halt_is_counted_once(self):
        # 60 steps are too few for any 40-op program to halt, so every
        # program reports a no-halt anomaly on top of its lane
        report = campaign.prescreen_programs(7, 5, max_steps=60)
        assert len(report.anomalies) == 10
        assert all("no-halt" in a[2] for a in report.anomalies)
        assert report.programs == 10

    def test_unassemblable_program_is_counted(self, monkeypatch):
        real_generate = campaign.generate

        def unassemblable(seed, ops=40, simt=False):
            program = real_generate(seed, ops=ops, simt=simt)
            if seed == 9 * SEED_STRIDE and not simt:
                program = replace(program, epilogue=program.epilogue
                                  + ("    frobnicate x1, x2",))
            return program

        monkeypatch.setattr(campaign, "generate", unassemblable)
        try:
            report = campaign.prescreen_programs(9, 2)
        finally:
            campaign.clear_programs()
        assert [a[:2] for a in report.anomalies] == [(0, False)]
        assert report.programs == 4
