import contextlib
import io
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacc._jsonio import dumps
from pacc.cli import main
from pacc.core import (
    ConceptSpec, Decision, DegenerateFitError, InvalidArgumentError, Method, ModelChoice,
    GenerationFailureError, PaccError, WeakInstrumentError, rate_upper_bound, split_stream,
    stream_normals, streams,
)
from pacc.harness import (
    AUTO,
    CONFIDENCE,
    METHODS,
    TrialOutcome,
    TrialSpec,
    adversarial_sweep,
    params_for_truth,
    read_report,
    report_json,
    resolve_sample_size,
    verify,
    write_report,
)
from pacc.iv2sls import IvEstimate, IvParams, draw_iv_sums, iv_ratio, iv_rule
from pacc.propensity import PsParams, ate_decision
from pacc.sccs import (
    PointLaw,
    SccsCounts,
    SccsDesign,
    SccsModel,
    SccsParams,
    TwoPointLaw,
    law_from_dict,
    sccs_decide,
    sccs_trial_law,
)

from conftest import run_trial, wrap_blocks

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DEGENERATE = "DegenerateFitError: the 2SLS sums or ratios overflow the float range"


def halting_normals(master_seed, first, count, width):
    """``stream_normals`` with G1 infinite on about one stream in four, whose
    IV trial then halts with DEGENERATE: 0 * inf or inf - inf is NaN."""
    normals = stream_normals(master_seed, first, count, width)
    normals[stream_normals(master_seed ^ 1, first, count, 1)[:, 0] > 0.67, 0] = math.inf
    return normals


def run_command(tmp_path, command, name, threads, *overrides):
    """Run ``pacc command`` on ``configs/<name>.json`` at ``--threads
    threads`` with each ``--set`` override and read back its report."""
    out = tmp_path / f"{command}_{name}_{threads}.json"
    argv = [command, "--config", str(CONFIGS / f"{name}.json"), "--threads", threads]
    for override in overrides:
        argv += ["--set", override]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) in (0, 1)
    return read_report(out)


def record_walks(monkeypatch, record) -> None:
    """Call ``record(master_seed, first, count)`` for every stream walk that
    any method's trials make: SCCS's and propensity's, and IV's through
    ``stream_normals``."""
    import pacc.core as core_mod
    import pacc.propensity as propensity_mod
    import pacc.sccs as sccs_mod

    def recording_streams(master_seed, first, count):
        record(master_seed, first, count)
        return streams(master_seed, first, count)

    for module in (core_mod, propensity_mod, sccs_mod):
        monkeypatch.setattr(module, "streams", recording_streams)


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
        generator_params=SccsModel(
            SccsDesign(250, 21),
            SccsParams(phi_law=PointLaw(math.log(0.02)), beta=0.0, lambda_floor=0.01),
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

    @pytest.mark.parametrize("truth", list(ModelChoice))
    @pytest.mark.parametrize("spec, params, message", [
        # exp(phi) * delta = 1.2: a valid M2 whose M1 rate exceeds 1.
        (sccs_spec, SccsModel(SccsDesign(250, 21), SccsParams(
            phi_law=PointLaw(math.log(0.6)), beta=0.0, lambda_floor=0.01)),
         r"= 1\.2 exceeds 1"),
        # outcome_base + delta + the confounding reaches 1.04 under M1.
        (ps_spec, replace(ps_spec().generator_params, outcome_base=0.15),
         r"span \[0\.15, 1\.04\]"),
    ], ids=["sccs", "propensity"])
    def test_pair_invalid_under_m1_rejected_whichever_truth_runs(self, truth, spec, params,
                                                                 message):
        with pytest.raises(InvalidArgumentError, match=message):
            spec(truth, generator_params=params)

    def test_stream_ids_must_fit_64_bits(self):
        # Checked when the spec is built, not at the first trial past the limit.
        for seed in (-1, 2**64):
            with pytest.raises(InvalidArgumentError, match="^master_seed must fit"):
                iv_spec(master_seed=seed)
        with pytest.raises(InvalidArgumentError, match=r"^stream_base \+ trials - 1 must fit"):
            iv_spec(stream_base=2**64 - 2, trials=3)
        last = iv_spec(master_seed=2**64 - 1, stream_base=2**64 - 3, trials=3)
        assert [t.seed for t in verify(last).per_trial] == [2**64 - 3, 2**64 - 2, 2**64 - 1]

    def test_round_trip(self):
        for spec in (iv_spec(), sccs_spec(), ps_spec()):
            assert TrialSpec.from_dict(spec.to_dict()) == spec

    def test_generator_block_rejects_effect_fields(self):
        iv = iv_spec().to_dict()
        iv["generator"]["beta"] = 0.5
        with pytest.raises(InvalidArgumentError, match="derived from truth"):
            TrialSpec.from_dict(iv)
        sccs = sccs_spec().to_dict()
        sccs["generator"]["params"]["beta"] = 0.1
        with pytest.raises(InvalidArgumentError, match="derived from truth"):
            TrialSpec.from_dict(sccs)


# (parser, a block its type's to_dict wrote), for every generator block parser.
GENERATOR_BLOCKS = {
    "iv": (IvParams.from_dict, IvParams(1.0, 0.5, 1.0, 0.0, 0.5, 0.0).to_dict()),
    "propensity": (PsParams.from_dict, ps_spec().generator_params.to_dict()),
    "sccs_model": (SccsModel.from_dict, sccs_spec().generator_params.to_dict()),
    "sccs_params": (
        SccsParams.from_dict, SccsParams(TwoPointLaw(-4.0, -3.0, 0.25), 0.3, 0.01).to_dict()
    ),
    "sccs_design": (SccsDesign.from_dict, SccsDesign(250, 21).to_dict()),
    "point_law": (law_from_dict, PointLaw(-4.0).to_dict()),
    "two_point_law": (law_from_dict, TwoPointLaw(-4.0, -3.0, 0.25).to_dict()),
}


_reals = st.floats(-1e6, 1e6)
_point_laws = st.builds(PointLaw, st.floats(-8.0, -1.0))
_two_point_laws = st.tuples(st.floats(-8.0, -1.0), st.floats(-8.0, -1.0),
                            st.floats(0.01, 0.99)).map(
    lambda t: TwoPointLaw(min(t[:2]), max(t[:2]), t[2])
)
_designs = st.integers(2, 2**53).flatmap(
    lambda total: st.builds(SccsDesign, st.just(total), st.integers(1, total - 1))
)
# The floor is a share of the smallest baseline rate.
_sccs_params = st.tuples(_point_laws | _two_point_laws, st.floats(-1.0, 1.0),
                         st.floats(0.01, 1.0)).map(
    lambda t: SccsParams(t[0], t[1], t[2] * math.exp(min(v for v, _ in t[0].atoms())))
)


def _ps_params(n: int):
    return st.builds(
        PsParams,
        n_covariates=st.just(n),
        treat_weights=st.tuples(*[st.floats(-0.5, 0.5)] * n),
        treat_bias=st.floats(-0.5, 0.5),
        positivity_floor=st.floats(0.001, 0.05),
        outcome_base=st.floats(0.3, 0.4),
        effect=st.floats(-0.1, 0.1),
        confound_weights=st.tuples(*[st.floats(-0.04, 0.04)] * n),
        covariate_probs=st.none() | st.tuples(*[st.floats(0.05, 0.95)] * n),
    )


# Valid blocks of each of the seven generator-block types.
BLOCK_STRATEGIES = {
    "iv": st.builds(IvParams, _reals.filter(bool), _reals, _reals, _reals,
                    st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
    "propensity": st.integers(1, 4).flatmap(_ps_params),
    "sccs_model": st.builds(SccsModel, _designs, _sccs_params),
    "sccs_params": _sccs_params,
    "sccs_design": _designs,
    "point_law": _point_laws,
    "two_point_law": _two_point_laws,
}


class TestGeneratorBlocks:
    @pytest.mark.parametrize("name", GENERATOR_BLOCKS)
    def test_every_written_key_reads_back(self, name):
        parse, block = GENERATOR_BLOCKS[name]
        assert parse(block).to_dict() == block

    @pytest.mark.parametrize("name", GENERATOR_BLOCKS)
    def test_unknown_key_is_named(self, name):
        parse, block = GENERATOR_BLOCKS[name]
        with pytest.raises(InvalidArgumentError, match="unknown .* key 'zz'"):
            parse({**block, "zz": 0.0})

    @pytest.mark.parametrize("name, message", [
        ("iv", "IV generator key 'zz'; expected one of "
               "alpha, beta, conf_z, conf_y, noise_z_sd, noise_y_sd"),
        ("propensity", "propensity generator key 'zz'; expected one of n_covariates, "
                       "treat_weights, treat_bias, positivity_floor, outcome_base, effect, "
                       "confound_weights, covariate_probs"),
        ("sccs_model", "SCCS model key 'zz'; expected one of design, params"),
        ("sccs_params", "SCCS params key 'zz'; expected one of phi_law, beta, lambda_floor"),
        ("sccs_design", "SCCS design key 'zz'; expected one of total_days, exposure_days"),
        ("point_law", "point law key 'zz'; expected one of kind, value"),
        ("two_point_law", "two-point law key 'zz'; expected one of kind, low, high, weight_high"),
    ])
    def test_unknown_key_message_lists_the_keys_in_order(self, name, message):
        parse, block = GENERATOR_BLOCKS[name]
        with pytest.raises(InvalidArgumentError) as info:
            parse({**block, "zz": 0.0})
        assert str(info.value) == f"unknown {message}"

    # (parser, a block without the keys that have defaults, the record's
    # values for those keys), for every block key with an absent default.
    @pytest.mark.parametrize("parse, block, defaults", [
        (IvParams.from_dict, {"alpha": 1.0},
         lambda p: (p.beta, p.conf_z, p.conf_y, p.noise_z_sd, p.noise_y_sd) == (0.0,) * 5),
        (PsParams.from_dict, {k: v for k, v in GENERATOR_BLOCKS["propensity"][1].items()
                              if k not in ("effect", "covariate_probs")},
         lambda p: (p.effect, p.covariate_probs) == (0.0, (0.5,) * 3)),
        (SccsModel.from_dict, {"design": SccsDesign(250, 21).to_dict(),
                               "params": {"phi_law": PointLaw(-4.0).to_dict(),
                                          "lambda_floor": 0.01}},
         lambda m: m.params.beta == 0.0),
        (law_from_dict, {"kind": "two_point", "low": -4.0, "high": -3.0},
         lambda law: law.weight_high == 0.5),
    ], ids=["iv", "propensity", "sccs_model", "two_point_law"])
    def test_absent_keys_read_as_their_defaults(self, parse, block, defaults):
        assert defaults(parse(block))

    @pytest.mark.parametrize("name", BLOCK_STRATEGIES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_written_blocks_read_back_with_keys_in_field_order(self, name, data):
        block = data.draw(BLOCK_STRATEGIES[name])
        written = block.to_dict()
        names = block._fields if isinstance(block, tuple) else [f.name for f in fields(block)]
        assert list(written) == list(names)
        assert GENERATOR_BLOCKS[name][0](written) == block


class TestTruthAndSizes:
    def test_params_for_truth_sets_effect(self):
        assert params_for_truth(iv_spec(ModelChoice.M1)).beta == 0.5
        assert params_for_truth(iv_spec(ModelChoice.M2)).beta == 0.0
        assert params_for_truth(sccs_spec(ModelChoice.M1)).params.beta == math.log(2.0)
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


def bits(outcomes):
    """Trial outcomes with each statistic as its exact bits."""
    return [(*t[:2], t.statistic.hex(), *t[3:]) for t in outcomes]


class TestIvBlock:
    """A verify's IV trials are one block, decided as the per-trial
    reference ``iv_rule(iv_ratio(*draw_iv_sums(...)))`` decides each."""

    NOISY = IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0, noise_z_sd=0.5,
                     noise_y_sd=0.7)

    @staticmethod
    def reference(spec, index, gen):
        """Trial ``index`` of ``spec`` decided one at a time on ``gen``."""
        stream_id = spec.stream_base + index
        sums = draw_iv_sums(params_for_truth(spec), resolve_sample_size(spec), gen)
        try:
            chosen, statistic, _ = iv_rule(iv_ratio(*sums), spec.concept.delta)
        except (WeakInstrumentError, DegenerateFitError) as exc:
            return TrialOutcome(stream_id, None, math.nan, False, f"{type(exc).__name__}: {exc}")
        return TrialOutcome(stream_id, chosen, statistic, chosen is spec.truth)

    @pytest.mark.parametrize("truth", list(ModelChoice))
    @pytest.mark.parametrize("size", [24, 1280])
    @pytest.mark.parametrize("params", [IvParams(alpha=1.0, beta=0.0), NOISY],
                             ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("master_seed, stream_base, trials", [
        (20240501, 0, 2000), (2**64 - 2, 10**6, 300), (2**64 - 1, 2**64 - 1, 1),
    ], ids=["2000_streams", "high_seed", "one_trial"])
    def test_block_matches_the_per_trial_reference_bit_for_bit(
        self, truth, size, params, master_seed, stream_base, trials
    ):
        spec = iv_spec(truth, generator_params=params, sample_size=size, trials=trials,
                       master_seed=master_seed, stream_base=stream_base)
        expected = [
            self.reference(spec, i, split_stream(master_seed, stream_base + i))
            for i in range(trials)
        ]
        assert bits(verify(spec).per_trial) == bits(expected)
        assert bits([run_trial(spec, trials - 1)]) == bits(expected[-1:])

    @pytest.mark.parametrize("truth", list(ModelChoice))
    def test_degenerate_rows_halt_in_place(self, monkeypatch, truth):
        # 64 + 8 * (-8 + 0.5 * 0) = 0 is a zero sum(dz); 8 * 1e308 overflows.
        import pacc.harness as harness_mod

        degenerate = {2: (-8.0, 0.0, 0.3), 3: (1e308, 0.0, 0.0), 7: (-8.0, 0.0, -1.0),
                      8: (0.0, 0.0, -1e308), 9: (-1e308, 1e308, 0.0)}

        def normals_with_degenerate_rows(*args):
            normals = stream_normals(*args)
            for i, row in degenerate.items():
                normals[i] = row
            return normals

        monkeypatch.setattr(harness_mod, "stream_normals", normals_with_degenerate_rows)
        spec = iv_spec(truth, generator_params=self.NOISY, sample_size=64, trials=12,
                       stream_base=5)
        gens = [SimpleNamespace(standard_normal=lambda size, row=row: np.array(row))
                for row in normals_with_degenerate_rows(spec.master_seed, 5, 12, 3)]
        expected = [self.reference(spec, i, gen) for i, gen in enumerate(gens)]
        failures = [t.failure.partition(":")[0] if t.failure else None for t in expected]
        assert failures == [None] * 2 + ["WeakInstrumentError", "DegenerateFitError"] + [None] * 3 \
            + ["WeakInstrumentError", "DegenerateFitError", "DegenerateFitError"] + [None] * 2
        assert bits(verify(spec).per_trial) == bits(expected)


class TestSccsBlock:
    """A verify's SCCS trials are one block, decided as the per-trial
    reference ``sccs_decide(law.draw(...), delta)`` decides each."""

    TWO_POINT = SccsParams(TwoPointLaw(math.log(0.01), math.log(0.1), 0.3), 0.0, 0.01)
    # About 3 of 3,000,000 attempts keep a case, so some streams run out of
    # redraws and halt.
    HALTING = SccsModel(SccsDesign(20, 10), SccsParams(PointLaw(-16.8), 0.0, 1e-9))

    @staticmethod
    def reference(spec, index):
        """Trial ``index`` of ``spec`` decided one at a time on a fresh generator."""
        stream_id = spec.stream_base + index
        model = params_for_truth(spec)
        law = sccs_trial_law(model.design, model.params, resolve_sample_size(spec))
        try:
            chosen, statistic, _ = sccs_decide(
                law.draw(split_stream(spec.master_seed, stream_id)), spec.concept.delta
            )
        except GenerationFailureError as exc:
            return TrialOutcome(stream_id, None, math.nan, False, f"{type(exc).__name__}: {exc}")
        return TrialOutcome(stream_id, chosen, statistic, chosen is spec.truth)

    @pytest.mark.parametrize("truth", list(ModelChoice))
    @pytest.mark.parametrize("params", [None, TWO_POINT], ids=["point", "two_point"])
    @pytest.mark.parametrize("master_seed, stream_base, trials", [
        (20240501, 0, 2000), (2**64 - 2, 10**6, 300), (2**64 - 1, 2**64 - 1, 1),
    ], ids=["2000_streams", "high_seed", "one_trial"])
    def test_block_matches_the_per_trial_reference_bit_for_bit(
        self, truth, params, master_seed, stream_base, trials
    ):
        model = sccs_spec().generator_params
        spec = sccs_spec(truth, generator_params=model._replace(params=params or model.params),
                         sample_size=40, trials=trials, master_seed=master_seed,
                         stream_base=stream_base)
        expected = [self.reference(spec, i) for i in range(trials)]
        assert bits(verify(spec).per_trial) == bits(expected)
        assert bits([run_trial(spec, trials - 1)]) == bits(expected[-1:])

    @pytest.mark.parametrize("truth", list(ModelChoice))
    def test_halted_streams_halt_in_place(self, truth):
        spec = sccs_spec(truth, generator_params=self.HALTING, sample_size=3, trials=200,
                         stream_base=5)
        expected = [self.reference(spec, i) for i in range(200)]
        halted = [t for t in expected if t.failure]
        assert 0 < len(halted) < 200
        assert all(t.failure.startswith("GenerationFailureError: accepted only ") and
                   t.decision is None and math.isnan(t.statistic) for t in halted)
        assert bits(verify(spec).per_trial) == bits(expected)


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

    def test_parallelism_invariance(self, tmp_path):
        # --threads is accepted and changes nothing: every value writes the
        # report verify() gives in process.
        reports = [
            run_command(tmp_path, "verify", "ps_verify_fast", threads, "trials=8")
            for threads in ("1", "4", "8")
        ]
        expected = verify(reports[0].spec).to_dict()
        assert all(report.to_dict() == expected for report in reports)

    @pytest.mark.parametrize("name", ["sccs_sweep", "ps_verify_fast", "iv_verify"])
    def test_sweep_points_and_trials_run_in_order(self, monkeypatch, tmp_path, name):
        # Each point's block runs once, in point order, and its records
        # come back in stream order: a verify config sweeps three copies
        # of its generator.
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        if "grid" not in config:
            config["grid"] = [config.pop("generator")] * 3
        (tmp_path / "sweep.json").write_text(json.dumps(config))
        calls = []

        def recording(spec, trials):
            def run(master_seed, first, count):
                calls.append(list(range(first, first + count)))
                return trials(master_seed, first, count)
            return run

        wrap_blocks(monkeypatch.setitem, recording)
        for threads in ("1", "3", "4"):
            calls.clear()
            out = tmp_path / f"report_{threads}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["sweep", "--config", str(tmp_path / "sweep.json"), "--threads",
                             threads, "--set", "trials=7", "--out", str(out)]) in (0, 1)
            report = read_report(out)
            assert calls == [list(range(k * 7, k * 7 + 7)) for k in range(3)]
            assert [t.seed for r in report.reports for t in r.per_trial] == sum(calls, [])

    def test_failed_trials_count_as_errors(self, monkeypatch):
        # A pipeline halt must become an incorrect trial with the reason
        # recorded, never a discarded one.
        import pacc.sccs as sccs_mod
        from pacc.core import GenerationFailureError

        class ExplodingLaw:
            def draw(self, gen):
                raise GenerationFailureError("retry budget exhausted")

        monkeypatch.setattr(sccs_mod, "sccs_trial_law", lambda *args: ExplodingLaw())
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
    def test_sccs_reports_identical_across_workers(self, tmp_path, command, name, trials):
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

    def test_sccs_designs_past_the_old_cell_cap_run_the_same_path(self, monkeypatch):
        # 1000/200 days once passed the 2-D cell table's cap and was drawn
        # case by case; every design now draws from its trial law.
        import pacc.sccs as sccs_mod

        designs = []

        def recording_law(design, params, cases):
            designs.append(design)
            return sccs_trial_law(design, params, cases)

        monkeypatch.setattr(sccs_mod, "sccs_trial_law", recording_law)
        wide = sccs_spec().generator_params._replace(
            design=SccsDesign(total_days=1000, exposure_days=200)
        )
        assert verify(sccs_spec(trials=2, generator_params=wide)).errors == 0
        assert verify(sccs_spec(trials=2)).errors == 0
        assert designs == [wide.design, sccs_spec().generator_params.design]

    def test_trials_are_prepared_once_per_verify_call(self, monkeypatch):
        import pacc.sccs as sccs_mod

        built = []

        def counting_law(design, params, cases):
            built.append(design)
            return sccs_trial_law(design, params, cases)

        monkeypatch.setattr(sccs_mod, "sccs_trial_law", counting_law)
        spec = sccs_spec(trials=25, master_seed=1234)
        first = verify(spec)
        assert len(built) == 1
        assert verify(spec).to_dict() == first.to_dict()
        assert len(built) == 2
        assert run_trial(spec, 3) == first.per_trial[3]
        assert len(built) == 3

    def test_no_table_outlives_verify(self, monkeypatch):
        import gc
        import weakref

        import pacc.sccs as sccs_mod

        tables = []

        def tracked_law(design, params, cases):
            table = sccs_trial_law(design, params, cases)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(sccs_mod, "sccs_trial_law", tracked_law)
        verify(sccs_spec(trials=6))
        gc.collect()
        assert len(tables) == 1
        assert tables[0]() is None

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command, name", [
        ("verify", "iv_verify"), ("verify", "sccs_verify"), ("verify", "ps_verify_fast"),
        ("sweep", "sccs_sweep"),
    ])
    def test_every_index_runs_once_with_the_same_trial(self, monkeypatch, tmp_path, threads,
                                                       command, name):
        # Each point's trials are one block: one prepare, and stream walks
        # that tile its streams stream_base .. stream_base + 8 in order, no
        # stream missed or walked twice. A propensity budget of 4 trials'
        # design entries runs the 9 in chunks of 4, 4 and 1, a walk each.
        import pacc.harness as harness_mod
        import pacc.propensity as propensity_mod

        config = json.loads((CONFIGS / f"{name}.json").read_text())
        method = Method(config["method"])
        if method is Method.PROPENSITY:
            table = propensity_mod._cell_table(PsParams.from_dict(config["generator"]))
            monkeypatch.setattr(propensity_mod, "_CELL_BUDGET", 4 * table.design.size)
        entry = harness_mod.METHODS[method]
        prepared, walks = [], []

        def recording_prepare(spec, params, size):
            prepared.append(spec)
            return entry.prepare(spec, params, size)

        monkeypatch.setitem(harness_mod.METHODS, method, entry._replace(prepare=recording_prepare))
        record_walks(monkeypatch, lambda *walk: walks.append(walk))
        report = run_command(tmp_path, command, name, threads, "trials=9")
        points = report.reports if command == "sweep" else (report,)
        assert len(points) == (3 if command == "sweep" else 1)
        assert prepared == [point.spec for point in points]
        assert [(seed, first + i) for seed, first, count in walks for i in range(count)] == [
            (point.spec.master_seed, point.spec.stream_base + i) for point in points
            for i in range(9)
        ]
        assert len(walks) == (3 if method is Method.PROPENSITY else len(points))
        monkeypatch.undo()
        for point in points:
            assert point.per_trial == tuple(run_trial(point.spec, i) for i in range(9))

    def test_record_level_propensity_walks_each_stream_once(self, monkeypatch):
        # Past the enumeration limit, a block is one walk over its streams.
        # Small sizes keep the record draws short.
        import pacc.propensity as propensity_mod
        from pacc.propensity import PsSampleSizes

        sizes = PsSampleSizes(gamma=0.1, n1=4, n3=25, n2=40)
        monkeypatch.setattr(propensity_mod, "ps_sample_sizes", lambda *args: sizes)
        spec = TrialSpec(
            truth=ModelChoice.M2, concept=ConceptSpec(0.3, Method.PROPENSITY),
            generator_params=PsParams(
                n_covariates=21, treat_weights=(0.06,) * 21, treat_bias=-0.6,
                positivity_floor=0.2, outcome_base=0.1, effect=0.0,
                confound_weights=(0.02,) * 21,
            ),
            trials=9, master_seed=2**64 - 1, epsilon=0.2, sample_size=sizes.total,
            stream_base=2**64 - 9,
        )
        walks = []
        record_walks(monkeypatch, lambda *walk: walks.append(walk))
        report = verify(spec)
        assert walks == [(2**64 - 1, 2**64 - 9, 9)]
        assert [t.seed for t in report.per_trial] == list(range(2**64 - 9, 2**64))

    def test_one_table_per_sweep_point(self, monkeypatch, tmp_path):
        # Each point's table is built once, and is gone before the next
        # point's is built: none outlives the verify() call of its point.
        import gc
        import weakref

        import pacc.sccs as sccs_mod

        tables = []

        def tracked_law(design, params, cases):
            gc.collect()
            assert all(ref() is None for ref in tables)
            table = sccs_trial_law(design, params, cases)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(sccs_mod, "sccs_trial_law", tracked_law)
        report = run_command(tmp_path, "sweep", "sccs_sweep", "2", "trials=8")
        assert len(tables) == len(report.grid) == 3
        assert all(r.errors == 0 for r in report.reports)

    def test_trials_run_on_the_calling_thread(self, monkeypatch, tmp_path):
        # Every trial of every method takes its generator from a stream
        # walk (core.streams): each walk is made on the calling thread,
        # with no other thread started.
        import threading

        seen = set()
        record_walks(monkeypatch, lambda *walk: seen.add(
            (threading.get_ident(), threading.active_count())
        ))
        caller = (threading.get_ident(), threading.active_count())
        for threads in ("1", "2", "4", "8"):
            for command, name in (("verify", "iv_verify"), ("verify", "ps_verify_fast"),
                                  ("sweep", "sccs_sweep")):
                seen.clear()
                run_command(tmp_path, command, name, threads, "trials=9")
                assert seen == {caller}
        assert threading.active_count() == caller[1]


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

    def test_stream_ranges_start_at_the_base_offset(self):
        base = iv_spec(trials=3, stream_base=100)
        report = adversarial_sweep(base, [base.generator_params] * 2)
        seeds = [[t.seed for t in r.per_trial] for r in report.reports]
        assert seeds == [[100, 101, 102], [103, 104, 105]]

    def test_invalid_grid_point_rejected_with_diagnostic(self):
        base = sccs_spec(trials=5)
        bad = SccsModel(
            SccsDesign(250, 21),
            # exp(phi) * delta > 1 under M1
            SccsParams(phi_law=PointLaw(math.log(0.8)), beta=0.0, lambda_floor=0.01),
        )
        good = base.generator_params
        with pytest.raises(InvalidArgumentError, match="grid point 1"):
            adversarial_sweep(base, [good, bad])

    def test_grid_point_whose_trial_cannot_be_prepared_is_named(self, no_trial_may_run):
        # 97,890 records are N1 + N2 for 3 covariates, short of the 125,916 for 4.
        base = ps_spec(trials=2, sample_size=97_890)
        wider = PsParams(
            n_covariates=4, treat_weights=(0.25,) * 4, treat_bias=-0.5, positivity_floor=0.2,
            outcome_base=0.05, effect=0.0, confound_weights=(0.03,) * 4,
        )
        with pytest.raises(InvalidArgumentError, match=(
            r"^sweep rejected; assumption-violating grid points:\n"
            r"grid point 1: pipeline needs N1 \+ N2 = 125916 records, got 97890$"
        )):
            adversarial_sweep(base, [base.generator_params, wider])
        assert no_trial_may_run == []

    def test_grid_point_with_an_effect_is_named(self):
        base = iv_spec(trials=5)
        with pytest.raises(InvalidArgumentError, match="grid point 1: the treatment effect"):
            adversarial_sweep(base, [base.generator_params, IvParams(alpha=1.0, beta=0.3)])

    def test_grid_point_past_64_bit_stream_ids_is_named(self, no_trial_may_run):
        # Points 0 and 1 fit; point 2's last stream id would be 2**64.
        base = iv_spec(trials=3, stream_base=2**64 - 8)
        with pytest.raises(InvalidArgumentError, match=r"grid point 2: stream_base \+ trials"):
            adversarial_sweep(base, [base.generator_params] * 3)
        assert no_trial_may_run == []

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
            SccsModel(SccsDesign(250, 21), SccsParams(PointLaw(math.log(0.005)), 0.0, 0.005)),
            SccsModel(SccsDesign(250, 21), SccsParams(PointLaw(math.log(0.01)), 0.0, 0.01)),
            SccsModel(
                SccsDesign(250, 21),
                SccsParams(TwoPointLaw(math.log(0.01), math.log(0.1)), 0.0, 0.01),
            ),
        ]
        report = adversarial_sweep(base, grid)
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
        report = adversarial_sweep(base, grid)
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

    def test_csv_rows_are_the_records(self, tmp_path):
        # Null is an empty field, a bool 1 or 0 and a float its 17-digit text.
        report = replace(verify(iv_spec(trials=5)), **TestReportJson.CRAFTED)
        path = tmp_path / "report.csv"
        write_report(report, path, format="csv")
        assert path.read_text(encoding="utf-8") == (
            "seed,decision,statistic,correct,failure\n"
            '0,,nan,0,"PipelineFailureError: ""N3"" \\ caf\u00e9 \u2603"\n'
            "1,M2,-0,0,\n"
            "2,M1,0.29999999999999999,1,\n"
            '3,,nan,0,"WeakInstrumentError: tab\there\nnewline"\n'
            "4,M2,4.9406564584124654e-324,0,\n"
        )

    @pytest.mark.parametrize("call, error, message", [
        (lambda path: write_report(verify(iv_spec(trials=2)), path, format="xml"),
         InvalidArgumentError, "unknown report format 'xml'"),
        (read_report, PaccError, "cannot read report from {path}: [Errno 2] "),
    ], ids=["unknown_format", "missing_file"])
    def test_report_io_rejections(self, tmp_path, call, error, message):
        path = tmp_path / "missing" / "report"
        with pytest.raises(error) as info:
            call(path)
        assert info.type is error
        assert str(info.value).startswith(message.format(path=path))

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

    def test_negative_zero_statistic_round_trips(self, tmp_path):
        # A noiseless draw with a negative alpha gives beta_hat = 0.0 / S_dz
        # = -0.0 under M2, which _jsonio writes as -0.
        spec = iv_spec(ModelChoice.M2, generator_params=IvParams(alpha=-1.0, beta=0.0),
                       trials=3, sample_size=100)
        path = tmp_path / "report.json"
        write_report(verify(spec), path)
        assert '"statistic": -0,' in path.read_text()
        again = read_report(path)
        assert all(math.copysign(1.0, t.statistic) == -1.0 for t in again.per_trial)
        write_report(again, tmp_path / "report2.json")
        assert (tmp_path / "report2.json").read_bytes() == path.read_bytes()

    # Each returns the file's text from a valid report's payload; the text is
    # written as Latin-1, so "\xff" is a byte that is not UTF-8.
    # Each also gives words its diagnostic holds beside the path.
    @pytest.mark.parametrize("make_text, words", [
        (lambda payload: "not json", "is not JSON"),
        (lambda payload: "\xff", "is not JSON"),
        (lambda payload: json.dumps([payload]), "unrecognised report schema"),
        (lambda payload: json.dumps("pacc-report/1"), "unrecognised report schema"),
        (lambda payload: json.dumps({k: v for k, v in payload.items() if k != "errors"}),
         "missing required field 'errors'"),
        (lambda payload: json.dumps({**payload, "per_trial": 5}), ""),
        (lambda payload: json.dumps({**payload, "per_trial": [1]}),
         "per_trial[0] must be a JSON object"),
        (lambda payload: json.dumps({**payload, "spec": {**payload["spec"], "method": "probit"}}),
         "'probit' is not a valid Method"),
        (lambda payload: json.dumps({
            "schema": "pacc-report/1", "kind": "sweep", "base": payload["spec"], "grid": [],
            "reports": [], "worst": 0, "pass": True,
        }), "the sweep grid must be nonempty"),
    ], ids=["not_json", "not_utf8", "list", "string", "missing_field", "number_for_list",
            "number_for_record", "unknown_method", "empty_sweep"])
    def test_unreadable_reports_raise_invalid_argument(self, tmp_path, make_text, words):
        payload = verify(iv_spec(trials=2)).to_dict()
        path = tmp_path / "bad.json"
        path.write_bytes(make_text(payload).encode("latin-1"))
        with pytest.raises(InvalidArgumentError, match=re.escape(str(path))) as raised:
            read_report(path)
        assert words in str(raised.value)

    @pytest.mark.parametrize("value", ["[" * 100_000 + "]" * 100_000, "1" * 5_000],
                             ids=["deep", "huge_int"])
    def test_reports_json_cannot_read_raise_invalid_argument(self, tmp_path, value):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "pacc-report/1", "errors": %s}' % value)
        with pytest.raises(InvalidArgumentError, match=re.escape(str(path))):
            read_report(path)

    @pytest.mark.parametrize("path, value", [
        (("per_trial", 0, "correct"), "false"),
        (("per_trial", 0, "correct"), 0),
        (("pass",), "false"),
        (("pass",), 1),
        (("errors",), 2.7),
        (("errors",), "0"),
        (("trials",), True),
        (("resolved_sample_size",), 1280.5),
        (("per_trial", 0, "seed"), "0"),
        (("per_trial", 0, "statistic"), "0.5"),
        (("per_trial", 0, "statistic"), "Infinity"),
        (("per_trial", 0, "statistic"), None),
        (("per_trial", 0, "decision"), "M3"),
        (("per_trial", 0, "failure"), 7),
        (("empirical_rate",), "0"),
        (("upper_bound",), [0.1]),
    ])
    def test_mistyped_fields_are_rejected(self, tmp_path, path, value):
        report = verify(iv_spec(trials=5))
        payload = report.to_dict()
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        with pytest.raises(InvalidArgumentError, match=str(path[-1])):
            read_report(tampered)

    def test_mistyped_sweep_fields_are_rejected(self, tmp_path):
        base = iv_spec(trials=5)
        payload = adversarial_sweep(base, [base.generator_params] * 2).to_dict()
        for key, value in (("worst", 0.5), ("pass", "true")):
            tampered = tmp_path / f"{key}.json"
            tampered.write_text(json.dumps({**payload, key: value}))
            with pytest.raises(InvalidArgumentError, match=key):
                read_report(tampered)

    # Each edit leaves every field well typed but contradicts what the spec
    # and the per-trial records give; the error names the (first) field.
    @pytest.mark.parametrize("edits, field", [
        ({"errors": 4, "trials": 99, "pass": True, "kind": "banana"}, "kind"),
        ({"errors": 4, "trials": 99, "pass": True}, "errors"),
        ({"errors": 1}, "errors"),
        ({"trials": 99}, "trials"),
        ({"empirical_rate": 0.2}, "empirical_rate"),
        ({"upper_bound": 0.05}, "upper_bound"),
        ({"confidence": 0.9}, "confidence"),
        ({"pass": True}, "pass"),
        ({"resolved_sample_size": 1279}, "resolved_sample_size"),
        ({"kind": "banana"}, "kind"),
    ], ids=["all_four", "errors_trials_pass", "errors", "trials", "empirical_rate",
            "upper_bound", "confidence", "pass", "resolved_sample_size", "kind"])
    def test_contradictory_summaries_are_rejected(self, tmp_path, edits, field):
        payload = verify(iv_spec(ModelChoice.M2, trials=5)).to_dict()
        assert payload["errors"] == 0 and payload["pass"] is False
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps({**payload, **edits}))
        with pytest.raises(InvalidArgumentError, match=re.escape(str(tampered))) as info:
            read_report(tampered)
        assert re.search(rf"\b{field}\b", str(info.value))

    @pytest.mark.parametrize("index, edits, field", [
        (2, {"correct": False}, r"per_trial\[2\]\.correct"),
        (0, {"decision": "M1"}, r"per_trial\[0\]\.decision"),
        # The rule chooses M1 at |0.9| > 0.25, which the record contradicts.
        (0, {"statistic": 0.9}, r"per_trial\[0\]\.decision"),
        (4, {"decision": None, "statistic": "nan", "failure": "PipelineFailureError: halted"},
         r"per_trial\[4\]\.correct"),
        (3, {"seed": 7}, r"per_trial\[3\]\.seed"),
    ], ids=["correct_false", "decision_m1", "statistic_m1", "halt_marked_correct", "seed"])
    def test_contradictory_records_are_rejected(self, tmp_path, index, edits, field):
        payload = verify(iv_spec(ModelChoice.M2, trials=5)).to_dict()
        assert all(t["decision"] == "M2" and t["correct"] for t in payload["per_trial"])
        payload["per_trial"][index].update(edits)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        with pytest.raises(InvalidArgumentError, match=field):
            read_report(tampered)

    # A statistic is nan exactly when its record has a failure: a nan
    # without one would be a correct M2 drawn from nan, and a halt keeps no
    # statistic. Every other field agrees with the record as edited.
    @pytest.mark.parametrize("sweep", [False, True], ids=["verify", "sweep"])
    @pytest.mark.parametrize("edits, halted", [
        ({"statistic": "nan"}, False),
        ({"decision": None, "failure": "DegenerateFitError: halted", "correct": False}, True),
    ], ids=["nan_without_failure", "failure_with_statistic"])
    def test_statistic_is_nan_exactly_with_a_failure(self, tmp_path, sweep, edits, halted):
        spec = iv_spec(ModelChoice.M2, trials=3)
        report = adversarial_sweep(spec, [spec.generator_params] * 2) if sweep else verify(spec)
        payload = report.to_dict()
        point = payload["reports"][1] if sweep else payload
        assert point["errors"] == 0
        point["per_trial"][2].update(edits)
        if halted:
            point.update(errors=1, empirical_rate=1 / 3,
                         upper_bound=rate_upper_bound(1, 3, CONFIDENCE))
        if halted and sweep:
            payload["worst"] = 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(dumps(payload))
        field = ("reports[1]." if sweep else "") + "per_trial[2].statistic"
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{tampered}: {field} is ")):
            read_report(tampered)

    def test_missing_or_extra_records_are_rejected(self, tmp_path):
        payload = verify(iv_spec(ModelChoice.M2, trials=5)).to_dict()
        for records in (payload["per_trial"][:4], payload["per_trial"] * 2):
            tampered = tmp_path / "tampered.json"
            tampered.write_text(json.dumps({**payload, "per_trial": records}))
            with pytest.raises(InvalidArgumentError, match=re.escape("len(per_trial)")):
                read_report(tampered)

    def test_contradictory_sweeps_are_rejected(self, tmp_path):
        base = iv_spec(ModelChoice.M2, trials=5)
        grid = [base.generator_params, replace(base.generator_params, conf_z=0.5)]
        payload = adversarial_sweep(base, grid).to_dict()
        other_point = {**payload["grid"][1], "conf_y": 0.25}
        cases = [
            ({"worst": 1 - payload["worst"]}, "worst"),
            ({"pass": not payload["pass"]}, "pass"),
            ({"grid": [payload["grid"][0], other_point]}, re.escape("reports[1].spec")),
            ({"grid": payload["grid"][::-1]}, re.escape("reports[0].spec")),
            ({"grid": payload["grid"][:1]}, re.escape("len(reports)")),
            ({"reports": payload["reports"][::-1]}, re.escape("reports[0].spec")),
        ]
        for edits, field in cases:
            tampered = tmp_path / "tampered.json"
            tampered.write_text(json.dumps({**payload, **edits}))
            with pytest.raises(InvalidArgumentError, match=field):
                read_report(tampered)

    def test_spec_with_an_invalid_pair_is_rejected(self, tmp_path):
        # A report verified under M2 at a block whose M1 rate would be 1.2.
        payload = verify(sccs_spec(trials=3)).to_dict()
        payload["spec"]["generator"]["params"]["phi_law"]["value"] = math.log(0.6)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        with pytest.raises(InvalidArgumentError, match=r"tampered\.json: .* = 1\.2 exceeds 1"):
            read_report(tampered)

    @pytest.mark.parametrize("spec, path, value, message", [
        (sccs_spec(trials=3), ("params", "phi_law", "value"), 1000, "= inf exceeds 1"),
        (ps_spec(trials=3), ("treat_bias",), -1000, "positivity violated"),
    ], ids=["sccs_rate", "propensity_index"])
    def test_spec_whose_rate_overflows_is_rejected(self, tmp_path, spec, path, value, message):
        payload = verify(spec).to_dict()
        block = payload["spec"]["generator"]
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        with pytest.raises(InvalidArgumentError, match=rf"tampered\.json: .*{message}"):
            read_report(tampered)

    @pytest.mark.parametrize("path", [("sample_sise",), ("concept", "descripton")])
    def test_spec_with_an_unknown_key_is_rejected(self, tmp_path, path):
        payload = verify(iv_spec(trials=3)).to_dict()
        target = payload["spec"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 24
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        with pytest.raises(InvalidArgumentError, match=rf"tampered\.json: .*key '{path[-1]}'"):
            read_report(tampered)

    def test_non_finite_strings_read_back_as_floats(self, tmp_path):
        # Under truth M1 either infinity chooses M1; the nan is a halt's.
        report = verify(iv_spec(trials=5))
        statistics = np.array([math.nan, math.inf, -math.inf, *report.statistics[3:]])
        payload = replace(report, statistics=statistics,
                          failures=("DegenerateFitError: halted", *report.failures[1:])).to_dict()
        for k, text in enumerate(("nan", "inf", "-inf")):
            payload["per_trial"][k]["statistic"] = text
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        stats = [t.statistic for t in read_report(path).per_trial[:3]]
        assert math.isnan(stats[0]) and stats[1] == math.inf and stats[2] == -math.inf

    # Each path is added (with 0) when absent and deleted when present.
    @pytest.mark.parametrize("sweep, path, message", [
        (False, ("note",), "unknown report key 'note'"),
        (False, ("spec", "note"), "unknown trial spec key 'note'"),
        (False, ("per_trial", 1, "note"), "unknown per_trial[1] key 'note'"),
        (True, ("reports", 1, "note"), "unknown reports[1] key 'note'"),
        (True, ("reports", 1, "spec", "note"), "unknown reports[1].spec key 'note'"),
        (True, ("reports", 1, "per_trial", 0, "note"),
         "unknown reports[1].per_trial[0] key 'note'"),
        (False, ("per_trial", 0, "failure"), "missing required field 'per_trial[0].failure'"),
        (False, ("spec", "stream_base"), "missing required field 'spec.stream_base'"),
        (False, ("spec", "concept", "description"),
         "missing required field 'spec.concept.description'"),
        (True, ("reports", 0, "per_trial", 2, "failure"),
         "missing required field 'reports[0].per_trial[2].failure'"),
        (True, ("reports", 1, "spec", "sample_size"),
         "missing required field 'reports[1].spec.sample_size'"),
    ])
    def test_unknown_and_missing_keys_are_named(self, tmp_path, sweep, path, message):
        base = iv_spec(trials=3)
        report = adversarial_sweep(base, [base.generator_params] * 2) if sweep else verify(base)
        payload = report.to_dict()
        target = payload
        for key in path[:-1]:
            target = target[key]
        if path[-1] in target:
            del target[path[-1]]
        else:
            target[path[-1]] = 0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        with pytest.raises(InvalidArgumentError) as info:
            read_report(tampered)
        assert str(info.value).startswith(f"report {tampered}: {message}")

    # Per method: a spec whose trials write awkward statistics (IV's -0.0,
    # SCCS's infinity sentinels) and a second sweep point.
    ROUND_TRIPS = {
        Method.IV2SLS: (
            iv_spec(ModelChoice.M2, generator_params=IvParams(alpha=-1.0, beta=0.0),
                    trials=12, sample_size=100),
            IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0),
        ),
        Method.SCCS: (
            sccs_spec(trials=40, sample_size=1),
            SccsModel(SccsDesign(20, 10), sccs_spec().generator_params.params),
        ),
        Method.PROPENSITY: (
            ps_spec(trials=12),
            replace(ps_spec().generator_params, confound_weights=(0.0,) * 3),
        ),
    }

    @pytest.mark.parametrize("method", list(Method))
    def test_written_reports_read_back_byte_for_byte(self, tmp_path, monkeypatch, method):
        import pacc.harness as harness_mod
        import pacc.propensity as propensity
        import pacc.sccs as sccs_mod
        from pacc.core import GenerationFailureError

        def halting_law(*args, trial_law=sccs_mod.sccs_trial_law):
            """The SCCS trial law, halted on about one stream in four."""
            law = trial_law(*args)

            def draw(gen):
                if gen.integers(4) == 0:
                    raise GenerationFailureError('too few "survivors" \u2264 N3')
                return law.draw(gen)
            return SimpleNamespace(draw=draw)

        if method is Method.IV2SLS:
            monkeypatch.setattr(harness_mod, "stream_normals", halting_normals)
        elif method is Method.PROPENSITY:
            # Pipeline sizes whose tails keep N3 records about half the time.
            sizes = propensity.PsSampleSizes(gamma=0.1, n1=400, n3=57, n2=60)
            monkeypatch.setattr(propensity, "ps_sample_sizes", lambda *args: sizes)
        else:
            monkeypatch.setattr(sccs_mod, "sccs_trial_law", halting_law)
        spec, other_point = self.ROUND_TRIPS[method]
        verified = verify(spec)
        swept = adversarial_sweep(spec, [spec.generator_params, other_point])
        records = [t for r in (verified, *swept.reports) for t in r.per_trial]
        assert any(t.failure and math.isnan(t.statistic) for t in records)
        assert any(t.decision is not None for t in records)
        texts = {t for r in (verified, *swept.reports) for t in report_json(r).split("\n")}
        if method is Method.IV2SLS:
            assert '      "statistic": -0,' in texts
        if method is Method.SCCS:
            assert {'      "statistic": "inf",', '      "statistic": "-inf",'} <= texts
        for k, report in enumerate((verified, swept)):
            path, again_path = tmp_path / f"{k}.json", tmp_path / f"{k}_again.json"
            write_report(report, path)
            again = read_report(path)
            assert type(again) is type(report)
            write_report(again, again_path)
            assert again_path.read_bytes() == path.read_bytes()


def edges(threshold: float) -> list[float]:
    """A threshold, one ulp either side of it, signed zeros, infinities and nan."""
    return [threshold, math.nextafter(threshold, -math.inf), math.nextafter(threshold, math.inf),
            0.0, -0.0, math.inf, -math.inf, math.nan]


def table_choices(method: Method, statistics, delta: float) -> list[ModelChoice]:
    """The ``METHODS`` rule's choice for each statistic, decided as one array."""
    m1 = METHODS[method].chooses_m1(np.array(statistics, dtype=float), delta)
    return [ModelChoice.M1 if chose else ModelChoice.M2 for chose in m1.tolist()]


class TestRules:
    """Each ``METHODS`` rule chooses what the module's scalar decision does,
    at and around its threshold; the two state the rule apart."""

    @pytest.mark.parametrize("delta", [0.8, 0.3, 0.5, 5e-324, 1.0])
    def test_propensity_rule_is_ate_decision(self, delta):
        statistics = edges(delta / 2.0)
        assert table_choices(Method.PROPENSITY, statistics, delta) == [
            ate_decision(s, delta).chosen for s in statistics
        ]

    @pytest.mark.parametrize("delta", [0.5, 0.3, 0.9, 1e-300])
    def test_iv_rule_is_iv_rule(self, delta):
        statistics = edges(delta / 2.0) + edges(-delta / 2.0)
        assert table_choices(Method.IV2SLS, statistics, delta) == [
            iv_rule(IvEstimate(1.0, s), delta).chosen for s in statistics
        ]

    @pytest.mark.parametrize("design", [SccsDesign(250, 21), SccsDesign(20, 10)])
    @pytest.mark.parametrize("delta", [2.0, 4.0, 1.5, 9.0])
    def test_sccs_rule_is_sccs_decide(self, design, delta):
        # nu1 = 0 and nu2 = 0 give the -inf and +inf sentinels; with 10
        # control and 10 exposure days, nu1 = 2 * nu2 sits at delta 4's tie.
        grid = [SccsCounts(design, nu1, nu2)
                for nu1 in range(31) for nu2 in range(31) if nu1 or nu2]
        decisions = [sccs_decide(counts, delta) for counts in grid]
        statistics = [d.statistic for d in decisions]
        assert {math.inf, -math.inf} <= set(statistics)
        assert table_choices(Method.SCCS, statistics, delta) == [d.chosen for d in decisions]


class TestReportJson:
    """``report_json`` writes exactly ``dumps(report.to_dict())``."""

    # Draws a trial can make, as an IV report's columns under truth M1 at
    # delta 0.5: halts with awkward failure text, a -0.0 and a subnormal
    # statistic, and both decisions.
    CRAFTED = dict(
        statistics=np.array([math.nan, -0.0, 0.3, math.nan, 5e-324]),
        failures=('PipelineFailureError: "N3" \\ caf\u00e9 \u2603', None, None,
                  "WeakInstrumentError: tab\there\nnewline", None),
    )
    SIX_TRIALS = verify(iv_spec(trials=6))

    def test_verification_report(self):
        report = replace(verify(iv_spec(trials=5)), **self.CRAFTED)
        text = report_json(report)
        assert text == dumps(report.to_dict())
        assert '"statistic": "nan"' in text and '"statistic": -0,' in text
        assert '"decision": null' in text and "\\\\ caf\\u00e9 \\u2603" in text

    def test_sweep_report(self):
        # One case a point: with both periods short, all of a case's events
        # often fall in one, and the statistic is an infinity sentinel.
        base = sccs_spec(trials=40, sample_size=1)
        grid = [
            base.generator_params,
            base.generator_params._replace(design=SccsDesign(20, 10)),
        ]
        report = adversarial_sweep(base, grid)
        stats = {t.statistic for r in report.reports for t in r.per_trial}
        decisions = {t.decision for r in report.reports for t in r.per_trial}
        assert {math.inf, -math.inf} <= stats and decisions == set(ModelChoice)
        assert report_json(report) == dumps(report.to_dict())

    def test_halted_trials(self, monkeypatch):
        import pacc.harness as harness_mod

        monkeypatch.setattr(harness_mod, "stream_normals", halting_normals)
        report = verify(iv_spec(ModelChoice.M2, trials=30))
        assert {t.failure for t in report.per_trial} == {None, DEGENERATE}
        assert report_json(report) == dumps(report.to_dict())

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(draws=st.lists(st.tuples(st.floats(), st.none() | st.text()), max_size=6),
           stream_base=st.integers(0, 2**64 - 7))
    def test_any_records(self, draws, stream_base):
        report = replace(
            self.SIX_TRIALS, spec=replace(self.SIX_TRIALS.spec, stream_base=stream_base),
            statistics=np.array([s for s, _ in draws], dtype=float),
            failures=tuple(f for _, f in draws),
        )
        assert report_json(report) == dumps(report.to_dict())

    def test_written_reports_are_the_printed_text(self, tmp_path):
        report = verify(iv_spec(trials=5))
        write_report(report, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text() == report_json(report)


class TestRecords:
    @pytest.mark.parametrize("record, field", [
        (TrialOutcome(seed=0, decision=ModelChoice.M1, statistic=1.0, correct=True), "correct"),
        (TrialOutcome(seed=0, decision=None, statistic=math.nan, correct=False), "failure"),
        (Decision(chosen=ModelChoice.M2, statistic=0.1, threshold=0.25), "chosen"),
        (IvEstimate(alpha_hat=1.0, beta_hat=0.1), "beta_hat"),
    ])
    def test_fields_cannot_be_set(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


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
