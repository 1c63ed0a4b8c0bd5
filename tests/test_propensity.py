import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binomtest, ks_2samp

from pacc.core import (
    DegenerateFitError,
    InsufficientDataError,
    InvalidArgumentError,
    ModelChoice,
    PipelineFailureError,
    UndefinedAteError,
    split_stream,
)
from pacc.propensity import (
    ObsDataset,
    PropensityModel,
    PsParams,
    PsSampleSizes,
    ate,
    ate_decision,
    _cell_pipeline,
    _cell_table,
    _fit_cells,
    _pipeline_from_cells,
    _sigmoid,
    _weighted_median,
    config_probabilities,
    fit_logistic,
    generate_obs,
    l1_propensity_error,
    lemma1_bound,
    ps_decide,
    ps_pipeline,
    ps_sample_sizes,
    ps_trial,
    rejection_sample,
    tally_cells,
)


def flat_params(n=5, effect=0.0, confound=0.0, base=0.3):
    return PsParams(
        n_covariates=n,
        treat_weights=(0.0,) * n,
        treat_bias=0.0,
        positivity_floor=0.2,
        outcome_base=base,
        effect=effect,
        confound_weights=(confound,) * n,
    )


def confounded_params(n=5, effect=0.0):
    # Covariates push both treatment (logistic weights 0.5) and outcome
    # (0.07 per coordinate), so raw arm means are biased upward.
    return PsParams(
        n_covariates=n,
        treat_weights=(0.5,) * n,
        treat_bias=-1.25,
        positivity_floor=0.2,
        outcome_base=0.1,
        effect=effect,
        confound_weights=(0.07,) * n,
    )


class TestPsParams:
    def test_positivity_gate(self):
        with pytest.raises(InvalidArgumentError):
            PsParams(
                n_covariates=2,
                treat_weights=(4.0, 4.0),
                treat_bias=-4.0,
                positivity_floor=0.1,
                outcome_base=0.3,
                effect=0.1,
                confound_weights=(0.0, 0.0),
            )

    def test_outcome_validity_gate(self):
        with pytest.raises(InvalidArgumentError):
            flat_params(effect=0.5, confound=0.15, base=0.3)  # max prob 1.55

    def test_round_trip(self):
        p = confounded_params(effect=0.3)
        assert PsParams.from_dict(p.to_dict()) == p


    @pytest.mark.parametrize("call, message", [
        (lambda: replace(flat_params(1), n_covariates=0),
         "n_covariates must be at least 1"),
        (lambda: replace(flat_params(), treat_weights=(0.0,) * 4),
         "weight vectors must have length n_covariates"),
        (lambda: replace(flat_params(), covariate_probs=(0.5,) * 4),
         "covariate_probs must have length n_covariates"),
        (lambda: replace(flat_params(), covariate_probs=(0.5,) * 4 + (1.0,)),
         "covariate probabilities must lie in (0, 1)"),
        (lambda: ObsDataset(np.zeros(3), np.zeros(3), np.zeros(3)),
         "x must be a 2-D 0/1 matrix"),
        (lambda: ObsDataset(np.zeros((3, 2)), np.zeros(2), np.zeros(3)),
         "z and y must be vectors matching x rows"),
        (lambda: ObsDataset(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 1))),
         "z and y must be vectors matching x rows"),
        (lambda: ObsDataset.from_csv("x0,x1,q\n0,1,0\n"), "expected header x0..x{n-1},z,y"),
        (lambda: ObsDataset.from_json_obj([]), "cannot build a dataset from zero records"),
        (lambda: PropensityModel(weights=(0.0, math.nan), bias=0.0),
         "model coefficients must be finite"),
        (lambda: PropensityModel(weights=(0.0,), bias=math.inf),
         "model coefficients must be finite"),
        (lambda: PsSampleSizes(gamma=0.1, n1=0, n3=1, n2=1), "sample sizes must be at least 1"),
        (lambda: generate_obs(flat_params(), 0, split_stream(1, 0)), "count must be at least 1"),
        (lambda: ps_sample_sizes(0.2, 0.5, 0), "n_covariates must be at least 1"),
    ], ids=["n_covariates_0", "weights_length", "probs_length", "prob_1", "x_1d",
            "z_length", "y_2d", "csv_without_z_y", "json_empty", "weight_nan", "bias_inf",
            "size_0", "generate_0", "sizes_0_covariates"])
    def test_invalid_arguments_are_rejected(self, call, message):
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert (info.type, str(info.value)) == (InvalidArgumentError, message)


class TestGenerateObs:
    def test_symmetric_logistic_half_treated(self):
        data = generate_obs(flat_params(), 100_000, split_stream(1, 0))
        assert 0.48 <= data.z.mean() <= 0.52

    def test_null_effect_null_confounding(self):
        data = generate_obs(flat_params(), 100_000, split_stream(2, 0))
        assert abs(ate(data)) <= 0.02

    def test_effect_shows_up(self):
        data = generate_obs(flat_params(effect=0.3), 50_000, split_stream(3, 0))
        assert ate(data) == pytest.approx(0.3, abs=0.02)

    def test_reproducible(self):
        a = generate_obs(confounded_params(), 500, split_stream(4, 9))
        b = generate_obs(confounded_params(), 500, split_stream(4, 9))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestFitLogistic:
    def test_recovers_known_weights(self):
        params = confounded_params()
        data = generate_obs(params, 100_000, split_stream(5, 0))
        model = fit_logistic(data)
        for w_hat, w in zip(model.weights, params.treat_weights):
            assert abs(w_hat - w) <= 0.1
        assert abs(model.bias - params.treat_bias) <= 0.1
        assert not model.capped

    def test_null_weights_stay_small(self):
        data = generate_obs(flat_params(), 100_000, split_stream(6, 0))
        model = fit_logistic(data)
        assert all(abs(w) <= 0.05 for w in model.weights)

    def test_single_arm_rejected(self):
        x = np.zeros((50, 2), dtype=np.uint8)
        z = np.ones(50, dtype=np.uint8)
        y = np.zeros(50, dtype=np.uint8)
        with pytest.raises(DegenerateFitError):
            fit_logistic(ObsDataset(x, z, y))

    def test_separation_reports_capped_model(self):
        # z == x0 exactly: perfectly separable.
        x = np.array([[1], [0]] * 100, dtype=np.uint8)
        z = x[:, 0].copy()
        y = np.zeros(200, dtype=np.uint8)
        model = fit_logistic(ObsDataset(x, z, y))
        assert model.capped
        assert all(math.isfinite(w) for w in model.weights)


def per_record_newton(ds, max_iters=200, tol=1e-8):
    """Reference fit: the Newton iteration run on every record."""
    z = ds.z.astype(np.float64)
    design = np.column_stack([ds.x.astype(np.float64), np.ones(len(ds))])
    coefs = np.zeros(design.shape[1])
    for _ in range(max_iters):
        p = _sigmoid(design @ coefs)
        score = design.T @ (z - p) / len(ds)
        if np.max(np.abs(score)) < tol:
            break
        hess = design.T @ (design * (p * (1.0 - p))[:, None]) / len(ds)
        hess[np.diag_indices_from(hess)] += 1e-12
        coefs = coefs + np.linalg.solve(hess, score)
    return coefs


def masked_sigmoid(eta):
    """The logistic function with each sign's branch on its own mask."""
    out = np.empty_like(eta, dtype=np.float64)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bits_equal_the_masked_form(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0, -745.0,
                 tiny, -tiny, 1e-310, -1e-310, np.finfo(np.float64).tiny]
        rng = np.random.default_rng(27)
        eta = np.concatenate([edges, rng.normal(0.0, 1.0, 5_000),
                              rng.normal(0.0, 300.0, 5_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = _sigmoid(eta), masked_sigmoid(eta)
        assert got.dtype == np.float64 and got.shape == eta.shape
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


class TestGroupedFit:
    @pytest.mark.parametrize(
        "params, count, seed",
        [(confounded_params(), 50_000, 18), (flat_params(n=3), 2_000, 19),
         (confounded_params(n=1), 300, 20)],
    )
    def test_matches_per_record_newton(self, params, count, seed):
        data = generate_obs(params, count, split_stream(seed, 0))
        model = fit_logistic(data)
        fitted = np.array(model.weights + (model.bias,))
        assert np.max(np.abs(fitted - per_record_newton(data))) <= 1e-10

    def test_tally_counts_every_record(self):
        data = generate_obs(confounded_params(n=3), 1_000, split_stream(21, 0))
        cells = tally_cells(data)
        assert cells.totals.sum() == 1_000 and cells.treated.sum() == data.z.sum()
        for config, total, treated in zip(cells.design[:, :-1], cells.totals, cells.treated):
            rows = np.all(data.x == config, axis=1)
            assert total == rows.sum() and treated == data.z[rows].sum()


class TestCellDraw:
    def test_cells_and_coefficients_match_record_level_law(self):
        # Two-sample tests over 300 streams each: drawn cell tallies vs
        # tallies of generated records, per cell, and the fits on them.
        params = confounded_params(n=3)
        table = _cell_table(params)
        tallied, drawn, fit_tallied, fit_drawn = [], [], [], []
        for i in range(300):
            data = generate_obs(params, 2_000, split_stream(33, i))
            cells = tally_cells(data)
            tallied.append(np.concatenate([cells.totals, cells.treated]))
            model = fit_logistic(data)
            fit_tallied.append(model.weights + (model.bias,))
            cells = table.draw_fitting(2_000, split_stream(34, i))
            drawn.append(np.concatenate([cells.totals, cells.treated]))
            model = _fit_cells(cells)
            fit_drawn.append(model.weights + (model.bias,))
        for a, b in ((tallied, drawn), (fit_tallied, fit_drawn)):
            a, b = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
            for column in range(a.shape[1]):
                assert ks_2samp(a[:, column], b[:, column]).pvalue >= 1e-3

    def test_drawn_pipeline_needs_n1_plus_n2(self):
        # The prepared trial checks the sizes once, before any trial draws.
        total = ps_sample_sizes(0.2, 0.8, 5).total
        with pytest.raises(InsufficientDataError):
            ps_trial(flat_params(), total - 1, 0.8, 0.2)


class TestCellTail:
    """The N2 tail drawn as (configuration, arm) cell counts against the
    record-level oracle: records from ``generate_obs`` through
    ``rejection_sample`` and ``ate``."""

    @staticmethod
    def outcomes(params, sizes, seed, trials, cell_level):
        # (survivors, ATE) per trial, or the trial's failure kind. Both
        # sides fit on their own drawn N1 cells.
        table = _cell_table(params)
        results = []
        for i in range(trials):
            gen = split_stream(seed, i)
            cells = table.draw_fitting(sizes.n1, gen)
            try:
                if cell_level:
                    result = _cell_pipeline(table, cells, sizes, gen)
                else:
                    tail = generate_obs(params, sizes.n2, gen)
                    result = _pipeline_from_cells(cells, tail, sizes, gen)
            except (PipelineFailureError, UndefinedAteError) as exc:
                results.append(type(exc).__name__)
            else:
                results.append((result.survivors, result.ate))
        return results

    @pytest.mark.parametrize("effect", [0.0, 0.3])
    def test_survivors_and_ate_match_record_level_law(self, effect):
        params = confounded_params(effect=effect)
        sizes = PsSampleSizes(gamma=0.1, n1=1_000, n3=1, n2=1_000)
        records = self.outcomes(params, sizes, 37, 1_000, cell_level=False)
        cells = self.outcomes(params, sizes, 38, 1_000, cell_level=True)
        assert all(type(r) is tuple for r in records + cells)
        records, cells = np.array(records), np.array(cells)
        for column in range(2):
            assert ks_2samp(records[:, column], cells[:, column]).pvalue >= 1e-3

    def test_halt_frequency_matches_record_level(self):
        # N3 near the median survivor count of a 60-record tail: about
        # half the trials halt. The two halt counts over equal trial counts
        # are compared by the binomial test conditional on their sum.
        params = confounded_params(n=3, effect=0.2)
        sizes = PsSampleSizes(gamma=0.1, n1=400, n3=57, n2=60)
        halts = []
        for seed, cell_level in ((39, False), (40, True)):
            kinds = self.outcomes(params, sizes, seed, 1_000, cell_level)
            halts.append(kinds.count("PipelineFailureError"))
        assert 200 < sum(halts) / 2 < 800
        assert binomtest(halts[1], sum(halts), 0.5).pvalue >= 1e-3

    def test_undefined_ate_when_one_arm_survives(self):
        # Every tail record untreated: the survivors fill N3 but leave the
        # treated arm empty, with the oracle's message.
        params = flat_params(n=2)
        table = _cell_table(params)
        table = type(table)(**{**vars(table), "tail": np.repeat([0.25, 0.0], 4)})
        sizes = PsSampleSizes(gamma=0.1, n1=200, n3=1, n2=50)
        gen = split_stream(41, 0)
        with pytest.raises(UndefinedAteError, match=r"^both arms .*\(treated=0, control="):
            _cell_pipeline(table, table.draw_fitting(sizes.n1, gen), sizes, gen)

    @pytest.mark.parametrize(
        "values, counts",
        [
            ([0.3, 0.1, 0.2], [1, 1, 1]),  # odd total
            ([0.3, 0.1, 0.2, 0.4], [1, 1, 1, 1]),  # even total, middles differ
            ([0.7], [5]),  # a one-cell arm, odd
            ([0.7], [4]),  # a one-cell arm, even
            ([0.5, 0.5, 0.2, 0.9], [2, 3, 1, 2]),  # ties across cells
            ([0.1, 0.6, 0.3, 0.8], [0, 3, 0, 3]),  # zero-count cells, even
            ([0.1, 0.6, 0.3, 0.8], [2, 0, 0, 2]),  # the middle falls between cells
            ([0.9, 0.2, 0.4], [0, 0, 7]),  # one nonzero cell among zeros
            ([1 / 3, 0.1 + 0.2, 2 / 7], [5, 5, 0]),  # inexact midpoint
        ],
    )
    def test_weighted_median_is_numpy_median(self, values, counts):
        values, counts = np.array(values), np.array(counts)
        expected = np.median(np.repeat(values, counts))
        assert _weighted_median(values, counts).hex() == float(expected).hex()

    def test_weighted_median_random_cells(self):
        gen = np.random.default_rng(42)
        for _ in range(500):
            k = int(gen.integers(1, 40))
            # Few distinct values, so cells tie; many zero counts.
            values = gen.choice(gen.random(max(1, k // 2)), size=k)
            counts = gen.poisson(gen.choice([0.3, 2.0, 50.0]), size=k)
            if counts.sum() == 0:
                counts[int(gen.integers(k))] = 1
            expected = np.median(np.repeat(values, counts))
            assert _weighted_median(values, counts).hex() == float(expected).hex()


class TestPreparedTrial:
    def test_size_past_int64_rejected_before_any_draw(self):
        huge = ps_sample_sizes(1e-12, 0.8, 5)
        with pytest.raises(InvalidArgumentError, match=f"at most 2\\*\\*63 - 1, got {huge.n1}$"):
            ps_trial(flat_params(), huge.total, 0.8, 1e-12)

    def test_tail_size_past_int64_rejected(self):
        # N1 fits int64 here, N2 does not.
        epsilon, delta = 2.74e-8, 3.09e-4
        sizes = ps_sample_sizes(epsilon, delta, 1)
        assert sizes.n1 <= 2**63 - 1 < sizes.n2
        with pytest.raises(InvalidArgumentError, match=f"at most 2\\*\\*63 - 1, got {sizes.n2}$"):
            ps_trial(flat_params(n=1), sizes.total, delta, epsilon)

    def test_beyond_enumeration_limit_draws_records(self, monkeypatch):
        import pacc.propensity as propensity

        calls = []

        class Drawn(Exception):
            pass

        def stub(params, count, gen):
            calls.append(count)
            raise Drawn

        monkeypatch.setattr(propensity, "generate_obs", stub)
        sizes = ps_sample_sizes(0.2, 0.8, 21)
        trial = ps_trial(flat_params(n=21), sizes.total, 0.8, 0.2)
        with pytest.raises(Drawn):
            trial(split_stream(42, 0))
        assert calls == [sizes.total]

    def test_beyond_enumeration_limit_is_the_record_pipeline(self, monkeypatch):
        # Past the limit a trial is ps_decide on the stream's N1 + N2
        # records, bit for bit. Small sizes keep the record draws short.
        import pacc.propensity as propensity

        sizes = PsSampleSizes(gamma=0.1, n1=300, n3=20, n2=200)
        monkeypatch.setattr(propensity, "ps_sample_sizes", lambda *args: sizes)
        params = PsParams(
            n_covariates=21, treat_weights=(0.06,) * 21, treat_bias=-0.6,
            positivity_floor=0.2, outcome_base=0.1, effect=0.3,
            confound_weights=(0.02,) * 21,
        )
        trial = ps_trial(params, sizes.total, 0.8, 0.2)
        for i in range(3):
            gen = split_stream(44, i)
            expected = ps_decide(generate_obs(params, sizes.total, gen), 0.8, gen, 0.2)
            decision = trial(split_stream(44, i))
            assert decision.statistic.hex() == expected.statistic.hex()
            assert decision == expected

    def test_trial_is_the_cell_pipeline(self):
        # The prepared trial is the cell table's pipeline on the stream's
        # drawn fitting cells, thresholded at delta / 2.
        params = confounded_params(effect=0.5)
        sizes = ps_sample_sizes(0.2, 0.8, 5)
        trial = ps_trial(params, sizes.total + 7, 0.8, 0.2)
        table = _cell_table(params)
        for i in range(3):
            decision = trial(split_stream(43, i))
            gen = split_stream(43, i)
            result = _cell_pipeline(table, table.draw_fitting(sizes.n1, gen), sizes, gen)
            assert decision == ate_decision(result.ate, 0.8)


class TestL1Error:
    def test_identical_models_zero(self):
        p = flat_params(n=3)
        model = PropensityModel(weights=(0.0, 0.0, 0.0), bias=0.0)
        assert l1_propensity_error(model, p) == 0.0

    def test_constant_shift_example(self):
        p = flat_params(n=2)
        model = PropensityModel(weights=(0.0, 0.0), bias=math.log(3.0))
        assert l1_propensity_error(model, p) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_in_model_and_truth(self):
        gen = split_stream(7, 0)
        for _ in range(10):
            w1, w2 = gen.normal(size=3), gen.normal(size=3)
            b1, b2 = gen.normal(), gen.normal()
            pa = PsParams(
                n_covariates=3,
                treat_weights=tuple(np.clip(w1, -0.5, 0.5)),
                treat_bias=float(np.clip(b1, -0.5, 0.5)),
                positivity_floor=0.1,
                outcome_base=0.5,
                effect=0.0,
                confound_weights=(0.0,) * 3,
            )
            pb = PsParams(
                n_covariates=3,
                treat_weights=tuple(np.clip(w2, -0.5, 0.5)),
                treat_bias=float(np.clip(b2, -0.5, 0.5)),
                positivity_floor=0.1,
                outcome_base=0.5,
                effect=0.0,
                confound_weights=(0.0,) * 3,
            )
            ma = PropensityModel(weights=pa.treat_weights, bias=pa.treat_bias)
            mb = PropensityModel(weights=pb.treat_weights, bias=pb.treat_bias)
            assert l1_propensity_error(ma, pb) == pytest.approx(
                l1_propensity_error(mb, pa), abs=1e-14
            )

    def test_enumeration_limit(self):
        model = PropensityModel(weights=(0.0,) * 21, bias=0.0)
        big = PsParams(
            n_covariates=21,
            treat_weights=(0.0,) * 21,
            treat_bias=0.0,
            positivity_floor=0.2,
            outcome_base=0.5,
            effect=0.0,
            confound_weights=(0.0,) * 21,
        )
        with pytest.raises(InvalidArgumentError):
            l1_propensity_error(model, big)


class TestRejectionSampling:
    def test_constant_half_model_keeps_everything(self):
        data = generate_obs(flat_params(), 2_000, split_stream(8, 0))
        model = PropensityModel(weights=(0.0,) * 5, bias=0.0)
        out = rejection_sample(data, model, split_stream(8, 1))
        assert len(out) == len(data)
        assert np.array_equal(out.x, data.x)

    def test_cell_acceptance_rates_match_enumeration(self):
        # Single covariate, model P'(x=1)=0.8, P'(x=0)=0.2. Expected
        # acceptance per (x, z) cell follows min(median_arm / p_arm, 1)
        # with medians computed from the realised batch.
        gen = split_stream(9, 0)
        n = 100_000
        x = gen.integers(0, 2, size=n).astype(np.uint8)
        z = gen.integers(0, 2, size=n).astype(np.uint8)
        data = ObsDataset(x[:, None], z, np.zeros(n, dtype=np.uint8))
        model = PropensityModel(weights=(math.log(16.0),), bias=math.log(0.25))
        p1 = model.predict(data.x)
        assert p1[x == 1][0] == pytest.approx(0.8)
        assert p1[x == 0][0] == pytest.approx(0.2)

        p_arm = np.where(z == 1, p1, 1.0 - p1)
        expected = {}
        for zz in (0, 1):
            med = np.median(p_arm[z == zz])
            for xx in (0, 1):
                cell_p = p_arm[(z == zz) & (x == xx)][0]
                expected[(xx, zz)] = min(med / cell_p, 1.0)

        out = rejection_sample(data, model, split_stream(9, 1))
        for (xx, zz), exp_rate in expected.items():
            n_in = int(((x == xx) & (z == zz)).sum())
            n_out = int(((out.x[:, 0] == xx) & (out.z == zz)).sum())
            assert n_out / n_in == pytest.approx(exp_rate, abs=0.02)

    def test_acceptance_probabilities_in_unit_interval(self):
        data = generate_obs(confounded_params(), 5_000, split_stream(10, 0))
        model = fit_logistic(data)
        out = rejection_sample(data, model, split_stream(10, 1))
        assert 0 <= len(out) <= len(data)

    def test_balance_improves(self):
        def mean_abs_smd(ds):
            x1 = ds.x[ds.z == 1].astype(float)
            x0 = ds.x[ds.z == 0].astype(float)
            num = np.abs(x1.mean(axis=0) - x0.mean(axis=0))
            den = np.sqrt((x1.var(axis=0) + x0.var(axis=0)) / 2.0)
            return float((num / den).mean())

        params = confounded_params()
        improved = 0
        reps = 200
        for i in range(reps):
            gen = split_stream(2_000 + i, 0)
            data = generate_obs(params, 4_000, gen)
            model = fit_logistic(data[:2_000])
            tail = data[2_000:]
            out = rejection_sample(tail, model, gen)
            if mean_abs_smd(out) < mean_abs_smd(tail):
                improved += 1
        assert improved >= 0.95 * reps


class TestAte:
    def test_y_equals_z(self):
        x = np.zeros((100, 1), dtype=np.uint8)
        z = np.array([0, 1] * 50, dtype=np.uint8)
        assert ate(ObsDataset(x, z, z.copy())) == 1.0

    def test_three_record_hand_value(self):
        x = np.zeros((3, 1), dtype=np.uint8)
        z = np.array([1, 1, 0], dtype=np.uint8)
        y = np.array([1, 0, 0], dtype=np.uint8)
        assert ate(ObsDataset(x, z, y)) == 0.5

    def test_null_is_small(self):
        gen = split_stream(11, 0)
        z = np.array([0, 1] * 10_000, dtype=np.uint8)
        y = gen.integers(0, 2, size=20_000).astype(np.uint8)
        assert abs(ate(ObsDataset(np.zeros((20_000, 1), dtype=np.uint8), z, y))) <= 0.05

    def test_permutation_invariant_exactly(self):
        gen = split_stream(12, 0)
        data = generate_obs(flat_params(), 5_001, gen)
        perm = gen.permutation(len(data))
        shuffled = ObsDataset(data.x[perm], data.z[perm], data.y[perm])
        assert ate(shuffled) == ate(data)

    def test_single_arm_rejected(self):
        x = np.zeros((10, 1), dtype=np.uint8)
        with pytest.raises(UndefinedAteError):
            ate(ObsDataset(x, np.ones(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8)))


class TestSampleSizes:
    def test_gamma_worked_value(self):
        assert ps_sample_sizes(0.1, 0.5, 5).gamma == 0.0625

    def test_n1_worked_value(self):
        sizes = ps_sample_sizes(0.1, 0.5, 5)
        expected = math.ceil(
            64.0 / 0.0625**2 * (10.0 * math.log(16.0 * math.e / 0.0625) + math.log(480.0))
        )
        assert sizes.n1 == expected
        assert expected == pytest.approx(1_173_534, rel=1e-3)

    def test_n2_dominates_n3_over_delta(self):
        for eps in (0.05, 0.1, 0.2):
            for delta in (0.2, 0.5, 0.8):
                s = ps_sample_sizes(eps, delta, 4)
                assert s.n2 > s.n3 / delta
                assert s.total == s.n1 + s.n2

    def test_nonincreasing_in_epsilon_and_delta(self):
        for field in ("n1", "n2", "n3", "total"):
            by_eps = [getattr(ps_sample_sizes(e, 0.5, 5), field) for e in (0.05, 0.1, 0.2)]
            assert by_eps == sorted(by_eps, reverse=True)
            by_delta = [getattr(ps_sample_sizes(0.1, d, 5), field) for d in (0.3, 0.5, 0.8)]
            assert by_delta == sorted(by_delta, reverse=True)

    def test_range_validation(self):
        with pytest.raises(InvalidArgumentError):
            ps_sample_sizes(0.0, 0.5, 5)
        with pytest.raises(InvalidArgumentError):
            ps_sample_sizes(0.1, 1.0, 5)


class TestRejectionSamplingBound:
    def test_exact_model_collapses_to_gamma(self):
        assert lemma1_bound(0.0, 0.1, 0.5, 1.0) == pytest.approx(0.1)

    def test_worked_value(self):
        assert lemma1_bound(0.01, 0.1, 0.5, 1.0) == pytest.approx(
            (0.02 + 0.1) * (0.5 / 0.49), abs=1e-12
        )

    def test_vacuous_region_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lemma1_bound(0.3, 0.1, 0.2, 1.0)

    @pytest.mark.parametrize("args, message", [
        ((-0.1, 0.1, 0.5, 1.0), "epsilon and gamma must be nonnegative"),
        ((0.1, -0.1, 0.5, 1.0), "epsilon and gamma must be nonnegative"),
        ((0.1, 0.1, 0.0, 1.0), "delta_marginal must lie in (0, 1]"),
        ((0.1, 0.1, 1.5, 1.0), "delta_marginal must lie in (0, 1]"),
        ((0.1, 0.1, 0.5, 0.0), "the function ceiling m must be positive"),
    ])
    def test_invalid_arguments_are_rejected(self, args, message):
        with pytest.raises(InvalidArgumentError) as info:
            lemma1_bound(*args)
        assert (info.type, str(info.value)) == (InvalidArgumentError, message)

    def test_enumerated_instances_respect_bound(self):
        # Random logistic truth / approximation pairs over 3 binary
        # covariates; premises computed exactly by enumeration.
        gen = split_stream(13, 0)
        checked = 0
        while checked < 100:
            n = 3
            q_params = PsParams(
                n_covariates=n,
                treat_weights=tuple(gen.uniform(-1.0, 1.0, size=n)),
                treat_bias=float(gen.uniform(-1.0, 1.0)),
                positivity_floor=0.01,
                outcome_base=0.5,
                effect=0.0,
                confound_weights=(0.0,) * n,
                covariate_probs=tuple(gen.uniform(0.2, 0.8, size=n)),
            )
            model = PropensityModel(
                weights=tuple(gen.uniform(-1.0, 1.0, size=n)),
                bias=float(gen.uniform(-1.0, 1.0)),
            )
            grid, q = config_probabilities(q_params)
            p_true = q_params.propensity(grid)
            p_model = model.predict(grid)
            f = gen.uniform(0.0, 1.0, size=grid.shape[0])

            eps = float(q @ np.abs(p_true - p_model))
            d_marg = float(q @ p_true)
            if d_marg <= eps:
                continue
            e_qp = float((q * p_true) @ f) / d_marg
            e_qpp = float((q * p_model) @ f) / float(q @ p_model)
            bound = lemma1_bound(eps, e_qp, d_marg, 1.0)
            assert e_qpp <= bound + 1e-12
            checked += 1


class TestPipeline:
    def test_decide_m1_with_effect(self):
        # Fast sizes (eps=0.2, delta=0.8) keep the pipeline cheap.
        params = PsParams(
            n_covariates=5,
            treat_weights=(0.5,) * 5,
            treat_bias=-1.25,
            positivity_floor=0.2,
            outcome_base=0.05,
            effect=0.8,
            confound_weights=(0.02,) * 5,
        )
        sizes = ps_sample_sizes(0.2, 0.8, 5)
        wrong = 0
        for i in range(25):
            gen = split_stream(3_000 + i, 0)
            data = generate_obs(params, sizes.total, gen)
            decision = ps_decide(data, 0.8, gen, epsilon=0.2)
            wrong += decision.chosen is not ModelChoice.M1
        assert wrong <= 1

    def test_decide_m2_without_effect(self):
        params = PsParams(
            n_covariates=5,
            treat_weights=(0.5,) * 5,
            treat_bias=-1.25,
            positivity_floor=0.2,
            outcome_base=0.05,
            effect=0.0,
            confound_weights=(0.02,) * 5,
        )
        sizes = ps_sample_sizes(0.2, 0.8, 5)
        wrong = 0
        for i in range(25):
            gen = split_stream(4_000 + i, 0)
            data = generate_obs(params, sizes.total, gen)
            decision = ps_decide(data, 0.8, gen, epsilon=0.2)
            wrong += decision.chosen is not ModelChoice.M2
        assert wrong <= 1

    def test_tie_goes_to_m1(self):
        tie = ate_decision(0.25, 0.5)
        assert tie.statistic == tie.threshold == 0.25
        assert tie.chosen is ModelChoice.M1
        assert ate_decision(0.2499, 0.5).chosen is ModelChoice.M2

    def test_pipeline_failure_when_survivors_short(self):
        # A wildly wrong fixed model rejects nearly everything in one arm;
        # easiest forced failure: feed fewer than total records.
        params = flat_params()
        sizes = ps_sample_sizes(0.2, 0.8, 5)
        data = generate_obs(params, sizes.total - 1, split_stream(14, 0))
        with pytest.raises(InsufficientDataError):
            ps_pipeline(data, 0.8, split_stream(14, 1), 0.2)

    def test_pipeline_reports_sizes_and_survivors(self):
        params = flat_params()
        sizes = ps_sample_sizes(0.2, 0.8, 5)
        data = generate_obs(params, sizes.total, split_stream(15, 0))
        result = ps_pipeline(data, 0.8, split_stream(15, 1), 0.2)
        assert result.sizes == sizes
        assert result.survivors >= sizes.n3
        assert -1.0 <= result.ate <= 1.0


class TestSerialization:
    def test_csv_round_trip(self):
        data = generate_obs(flat_params(n=3), 50, split_stream(16, 0))
        text = data.to_csv()
        assert text.splitlines()[0] == "x0,x1,x2,z,y"
        again = ObsDataset.from_csv(text)
        assert np.array_equal(again.x, data.x)
        assert np.array_equal(again.z, data.z)
        assert np.array_equal(again.y, data.y)

    def test_json_round_trip(self):
        data = generate_obs(flat_params(n=2), 20, split_stream(17, 0))
        again = ObsDataset.from_json_obj(data.to_json_obj())
        assert np.array_equal(again.x, data.x)

    @pytest.mark.parametrize("column", ["x", "z", "y"])
    def test_values_other_than_zero_one_rejected(self, column):
        arrays = {
            "x": np.array([[1, 0]]),
            "z": np.array([1]),
            "y": np.array([1]),
        }
        arrays[column] = arrays[column] * 2
        with pytest.raises(InvalidArgumentError, match=column):
            ObsDataset(arrays["x"], arrays["z"], arrays["y"])

    def test_csv_out_of_range_value_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ObsDataset.from_csv("x0,z,y\n256,1,0\n0,0,1\n")
