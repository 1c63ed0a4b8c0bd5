import contextlib
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pacc.cli import main
from pacc.core import ConceptSpec, InvalidArgumentError, Method, ModelChoice
from pacc.harness import (
    AUTO,
    SccsScenario,
    TrialSpec,
    adversarial_sweep,
    generator_params_from_dict,
    params_for_truth,
    read_report,
    resolve_sample_size,
    run_trial,
    verify,
    write_report,
)
from pacc.iv2sls import IvParams
from pacc.propensity import PsParams
from pacc.sccs import PointLaw, SccsDesign, TwoPointLaw, sccs_cell_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def iv_spec(truth=ModelChoice.M1, **overrides) -> TrialSpec:
    defaults = dict(
        truth=truth,
        concept=ConceptSpec(0.5, Method.IV2SLS),
        generator_params=IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0),
        trials=50,
        master_seed=42,
        epsilon=0.1,
        sample_size=1280,
    )
    defaults.update(overrides)
    return TrialSpec(**defaults)


def sccs_spec(truth=ModelChoice.M2, **overrides) -> TrialSpec:
    defaults = dict(
        truth=truth,
        concept=ConceptSpec(2.0, Method.SCCS),
        generator_params=SccsScenario(
            design=SccsDesign(250, 21),
            phi_law=PointLaw(math.log(0.02)),
            lambda_floor=0.01,
        ),
        trials=20,
        master_seed=7,
        epsilon=0.1,
        sample_size=500,
    )
    defaults.update(overrides)
    return TrialSpec(**defaults)


def ps_spec(truth=ModelChoice.M2, **overrides) -> TrialSpec:
    defaults = dict(
        truth=truth,
        concept=ConceptSpec(0.8, Method.PROPENSITY),
        generator_params=PsParams(
            n_covariates=3,
            treat_weights=(0.5,) * 3,
            treat_bias=-0.75,
            positivity_floor=0.2,
            outcome_base=0.05,
            effect=0.0,
            confound_weights=(0.03,) * 3,
        ),
        trials=10,
        master_seed=11,
        epsilon=0.2,
        sample_size=AUTO,
    )
    defaults.update(overrides)
    return TrialSpec(**defaults)


class TestSpecValidation:
    def test_concept_method_must_match(self):
        with pytest.raises(InvalidArgumentError):
            iv_spec(concept=ConceptSpec(2.0, Method.SCCS))

    def test_generator_type_must_match(self):
        with pytest.raises(InvalidArgumentError):
            iv_spec(generator_params=PsParams(
                n_covariates=1, treat_weights=(0.0,), treat_bias=0.0,
                positivity_floor=0.2, outcome_base=0.5, effect=0.0,
                confound_weights=(0.0,),
            ))

    def test_effect_free_base_required(self):
        with pytest.raises(InvalidArgumentError):
            iv_spec(generator_params=IvParams(alpha=1.0, beta=0.3))

    def test_round_trip(self):
        for spec in (iv_spec(), sccs_spec(), ps_spec()):
            assert TrialSpec.from_dict(spec.to_dict()) == spec

    def test_generator_block_rejects_effect_fields(self):
        with pytest.raises(InvalidArgumentError):
            generator_params_from_dict(Method.IV2SLS, {"alpha": 1.0, "beta": 0.5})
        scenario = sccs_spec().generator_params.to_dict()
        scenario["beta"] = 0.1
        with pytest.raises(InvalidArgumentError):
            generator_params_from_dict(Method.SCCS, scenario)


class TestTruthAndSizes:
    def test_params_for_truth_sets_effect(self):
        assert params_for_truth(iv_spec(ModelChoice.M1)).beta == 0.5
        assert params_for_truth(iv_spec(ModelChoice.M2)).beta == 0.0
        assert params_for_truth(sccs_spec(ModelChoice.M1)).beta == math.log(2.0)
        assert params_for_truth(ps_spec(ModelChoice.M1)).effect == 0.8

    def test_resolve_explicit(self):
        assert resolve_sample_size(iv_spec(sample_size=777)) == 777

    def test_resolve_auto_sccs(self):
        spec = sccs_spec(sample_size=AUTO)
        expected = math.ceil(8.0 / (0.01**2 * math.log(2.0) ** 2) * math.log(40.0))
        assert resolve_sample_size(spec) == expected

    def test_resolve_auto_iv_uses_worst_truth(self):
        spec = iv_spec(sample_size=AUTO)
        # Under M1 (beta=0.5) Var(dy) = 2.25 + 0 > 1, so the M1 size wins.
        n = resolve_sample_size(spec)
        assert n == math.ceil(32.0 * 2.25 / (0.1 * 0.25))

    def test_resolve_auto_iv_noiseless_rejected(self):
        spec = iv_spec(
            sample_size=AUTO, generator_params=IvParams(alpha=1.0, beta=0.0)
        )
        with pytest.raises(InvalidArgumentError):
            resolve_sample_size(spec)


class TestRunTrial:
    def test_noiseless_iv_m1_always_correct(self):
        spec = iv_spec(
            ModelChoice.M1,
            generator_params=IvParams(alpha=1.0, beta=0.0),
            sample_size=100,
        )
        for i in range(5):
            outcome = run_trial(spec, i)
            assert outcome.correct and outcome.decision is ModelChoice.M1
            assert outcome.statistic == pytest.approx(0.5)

    def test_noiseless_iv_m2_always_correct(self):
        spec = iv_spec(
            ModelChoice.M2,
            generator_params=IvParams(alpha=1.0, beta=0.0),
            sample_size=100,
        )
        for i in range(5):
            outcome = run_trial(spec, i)
            assert outcome.correct and outcome.statistic == 0.0

    def test_trial_reproducible(self):
        spec = sccs_spec()
        a = run_trial(spec, 3)
        b = run_trial(spec, 3)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_trials_differ_across_indices(self):
        spec = sccs_spec()
        stats = {run_trial(spec, i).statistic for i in range(5)}
        assert len(stats) > 1

    def test_stream_base_offsets_seed(self):
        spec = sccs_spec(stream_base=100)
        outcome = run_trial(spec, 3)
        assert outcome.seed == 103
        # Offset index and plain index resolve to the same stream:
        assert outcome.statistic == run_trial(sccs_spec(), 103).statistic


class TestVerify:
    def test_aggregation_identity(self):
        spec = iv_spec(trials=40)
        report = verify(spec)
        assert report.errors == sum(1 for t in report.per_trial if not t.correct)
        assert report.empirical_rate == report.errors / report.trials
        assert report.trials == 40

    def test_pass_consistency(self):
        report = verify(iv_spec(trials=50))
        assert report.passed == (report.upper_bound <= 0.1)

    def test_parallelism_invariance(self):
        spec = ps_spec(trials=8)
        reports = [verify(spec, workers=w).to_dict() for w in (1, 4, 8)]
        assert reports[0] == reports[1] == reports[2]

    def test_uneven_worker_blocks_keep_trial_order(self, monkeypatch):
        # 7 trials over 3 or 4 workers split into blocks of unequal length.
        import pacc.harness as harness_mod

        monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: 4)
        spec = iv_spec(trials=7)
        reports = [verify(spec, workers=w) for w in (1, 3, 4)]
        assert [t.seed for t in reports[0].per_trial] == [
            spec.stream_base + i for i in range(7)
        ]
        assert reports[0].to_dict() == reports[1].to_dict() == reports[2].to_dict()

    def test_failed_trials_count_as_errors(self, monkeypatch):
        # A pipeline halt must become an incorrect trial with the reason
        # recorded, never a discarded one.
        import pacc.harness as harness_mod
        from pacc.core import GenerationFailureError

        def exploding_generate(*args, **kwargs):
            raise GenerationFailureError("retry budget exhausted")

        monkeypatch.setattr(harness_mod, "draw_cell_counts", exploding_generate)
        report = verify(sccs_spec(trials=3))
        assert report.errors == 3
        assert all(not t.correct for t in report.per_trial)
        assert all(t.decision is None for t in report.per_trial)
        assert all("GenerationFailureError" in t.failure for t in report.per_trial)
        assert all(math.isnan(t.statistic) for t in report.per_trial)


    @pytest.mark.parametrize("command, name, trials", [
        ("verify", "sccs_verify", 30),
        ("sweep", "sccs_sweep", 10),
    ])
    def test_sccs_reports_identical_across_workers(self, monkeypatch, tmp_path, command,
                                                   name, trials):
        import pacc.harness as harness_mod

        monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: 4)
        blobs = []
        for workers in ("1", "2", "4"):
            out = tmp_path / f"report_{workers}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(CONFIGS / f"{name}.json"),
                             "--set", f"trials={trials}", "--threads", workers,
                             "--out", str(out)])
            assert code in (0, 1)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_sccs_designs_past_the_cell_cap_redraw_case_by_case(self, monkeypatch):
        import pacc.harness as harness_mod
        from pacc.core import GenerationFailureError

        def exploding_generate(*args, **kwargs):
            raise GenerationFailureError("retry budget exhausted")

        monkeypatch.setattr(harness_mod, "draw_sccs_counts", exploding_generate)
        wide = replace(
            sccs_spec().generator_params, design=SccsDesign(total_days=1000, exposure_days=200)
        )
        failed = verify(sccs_spec(trials=2, generator_params=wide))
        assert all("GenerationFailureError" in t.failure for t in failed.per_trial)
        assert verify(sccs_spec(trials=2)).errors == 0

    def test_trials_are_prepared_once_per_spec_and_size(self, monkeypatch):
        import pacc.harness as harness_mod

        built = []

        def counting_table(design, params):
            built.append(design)
            return sccs_cell_table(design, params)

        monkeypatch.setattr(harness_mod, "sccs_cell_table", counting_table)
        harness_mod._prepared_trial.cache_clear()
        spec = sccs_spec(trials=25, master_seed=1234)
        first = verify(spec)
        assert len(built) == 1
        assert verify(spec).to_dict() == first.to_dict()
        assert len(built) == 1
        run_trial(spec, 0, sample_size=400)
        assert len(built) == 2

    def test_workers_clamped_to_trials_and_cpus(self, monkeypatch):
        import pacc.harness as harness_mod

        monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: 4)
        assert harness_mod._clamp_workers(1000, 50) == 4
        assert harness_mod._clamp_workers(8, 3) == 3
        assert harness_mod._clamp_workers(2, 50) == 2
        monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: None)
        assert harness_mod._clamp_workers(8, 50) == 1


class TestSweep:
    def test_single_point_worst_is_zero(self):
        base = iv_spec(trials=10)
        report = adversarial_sweep(base, [base.generator_params])
        assert report.worst == 0
        assert len(report.reports) == 1

    def test_disjoint_stream_ranges(self):
        base = iv_spec(trials=10)
        grid = [
            IvParams(alpha=1.0, beta=0.0, conf_z=0.5, conf_y=0.5),
            IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0),
        ]
        report = adversarial_sweep(base, grid)
        seeds_0 = [t.seed for t in report.reports[0].per_trial]
        seeds_1 = [t.seed for t in report.reports[1].per_trial]
        assert seeds_0 == list(range(0, 10))
        assert seeds_1 == list(range(10, 20))

    def test_invalid_grid_point_rejected_with_diagnostic(self):
        base = sccs_spec(trials=5)
        bad = SccsScenario(
            design=SccsDesign(250, 21),
            phi_law=PointLaw(math.log(0.8)),  # exp(phi) * delta > 1 under M1
            lambda_floor=0.01,
        )
        good = base.generator_params
        with pytest.raises(InvalidArgumentError, match="grid point 1"):
            adversarial_sweep(base, [good, bad])

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            adversarial_sweep(iv_spec(), [])

    def test_sweep_passes_iff_all_points_pass(self):
        base = iv_spec(trials=30)
        grid = [
            IvParams(alpha=1.0, beta=0.0, conf_z=0.0, conf_y=0.0, noise_z_sd=0.3, noise_y_sd=0.3),
            IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0),
        ]
        report = adversarial_sweep(base, grid)
        assert report.passed == all(r.passed for r in report.reports)

    def test_sccs_phi_law_campaign_all_points_pass(self):
        # Reduced-scale rendition of the baseline-rate sweep: three phi
        # laws under truth M2 at a shared explicit size.
        base = sccs_spec(truth=ModelChoice.M2, trials=30, sample_size=20_000)
        grid = [
            SccsScenario(SccsDesign(250, 21), PointLaw(math.log(0.005)), 0.005),
            SccsScenario(SccsDesign(250, 21), PointLaw(math.log(0.01)), 0.01),
            SccsScenario(
                SccsDesign(250, 21),
                TwoPointLaw(math.log(0.01), math.log(0.1)),
                0.01,
            ),
        ]
        report = adversarial_sweep(base, grid, workers=2)
        assert report.passed
        assert all(r.errors == 0 for r in report.reports)

    def test_ps_confound_scale_campaign_all_points_pass(self):
        base = ps_spec(truth=ModelChoice.M2, trials=30)
        grid = [
            PsParams(
                n_covariates=3,
                treat_weights=(0.5,) * 3,
                treat_bias=-0.75,
                positivity_floor=0.2,
                outcome_base=0.05,
                effect=0.0,
                confound_weights=(scale * 0.02,) * 3,
            )
            for scale in (0.0, 0.5, 1.0)
        ]
        report = adversarial_sweep(base, grid, workers=2)
        assert report.passed


class TestReports:
    def test_json_round_trip_exact(self, tmp_path):
        report = verify(iv_spec(trials=15))
        path = tmp_path / "report.json"
        write_report(report, path)
        again = read_report(path)
        assert again.to_dict() == report.to_dict()
        write_report(again, tmp_path / "report2.json")
        assert (tmp_path / "report.json").read_bytes() == (
            tmp_path / "report2.json"
        ).read_bytes()

    def test_csv_row_count(self, tmp_path):
        report = verify(iv_spec(trials=15))
        path = tmp_path / "report.csv"
        write_report(report, path, format="csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 15 + 1
        assert lines[0] == "seed,decision,statistic,correct,failure"

    def test_sweep_csv_row_count(self, tmp_path):
        base = iv_spec(trials=5)
        report = adversarial_sweep(base, [base.generator_params] * 3)
        path = tmp_path / "sweep.csv"
        write_report(report, path, format="csv")
        assert len(path.read_text().splitlines()) == 3 + 1

    def test_sweep_json_round_trip(self, tmp_path):
        base = iv_spec(trials=5)
        report = adversarial_sweep(base, [base.generator_params] * 2)
        path = tmp_path / "sweep.json"
        write_report(report, path)
        again = read_report(path)
        assert again.to_dict() == report.to_dict()

    def test_schema_field_present(self, tmp_path):
        import json

        report = verify(iv_spec(trials=5))
        path = tmp_path / "r.json"
        write_report(report, path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "pacc-report/1"
        assert payload["spec"]["master_seed"] == 42

    def test_nonfinite_statistics_survive_round_trip(self, tmp_path):
        # Tiny SCCS samples can put all events in one period, giving the
        # signed-infinity sentinel statistic.
        spec = sccs_spec(trials=40, sample_size=1)
        report = verify(spec)
        stats = [t.statistic for t in report.per_trial]
        assert any(not math.isfinite(s) for s in stats)
        path = tmp_path / "inf.json"
        write_report(report, path)
        again = read_report(path)
        assert again.to_dict() == report.to_dict()


class TestMonotoneEvidence:
    def test_larger_samples_do_not_hurt(self):
        # Deliberately undersized runs with truth M1 near the threshold;
        # quadrupling the sample should not increase the error rate for
        # at least 90% of paired seeds (tolerance 0.02).
        wins = 0
        pairs = 20
        for k in range(pairs):
            small = iv_spec(ModelChoice.M1, trials=50, sample_size=40, master_seed=900 + k)
            large = iv_spec(ModelChoice.M1, trials=50, sample_size=160, master_seed=900 + k)
            r_small = verify(small)
            r_large = verify(large)
            if r_large.empirical_rate <= r_small.empirical_rate + 0.02:
                wins += 1
        assert wins >= 0.9 * pairs
