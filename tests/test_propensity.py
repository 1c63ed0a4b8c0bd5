import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
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
    _cell_table,
    _cell_trials,
    _fitted_model,
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
            model = _fitted_model(cells)
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
        if cell_level:
            block = _cell_trials(table, sizes, seed, 0, trials)
            return [
                type(block.halts[i]).__name__ if i in block.halts
                else (int(block.survivors[i]), float(block.statistic[i]))
                for i in range(trials)
            ]
        results = []
        for i in range(trials):
            gen = split_stream(seed, i)
            cells = table.draw_fitting(sizes.n1, gen)
            try:
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
        block = _cell_trials(table, sizes, 41, 0, 1)
        assert list(block.halts) == [0] and math.isnan(block.statistic[0])
        assert type(block.halts[0]) is UndefinedAteError
        assert re.match(r"^both arms .*\(treated=0, control=", str(block.halts[0]))


def median_cases(rows=st.integers(1, 6)):
    """(values, counts) of equal shape, every row with a positive total:
    few distinct values, so cells tie, and many zero counts."""
    return st.tuples(rows, st.integers(1, 12)).flatmap(lambda shape: st.tuples(
        arrays(np.float64, shape, elements=st.sampled_from([0.1, 0.2, 1 / 3, 0.1 + 0.2, 0.7])),
        arrays(np.int64, shape, elements=st.sampled_from([0, 0, 1, 2, 7, 10**6])),
    )).filter(lambda case: bool(case[1].sum(axis=1).all()))


class TestWeightedMedian:
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
    def test_is_numpy_median(self, values, counts):
        values, counts = np.array([values]), np.array([counts])
        expected = np.median(np.repeat(values[0], counts[0]))
        assert _weighted_median(values, counts)[0].hex() == float(expected).hex()

    @settings(max_examples=300, deadline=None)
    @given(case=median_cases())
    def test_each_row_is_numpy_median(self, case):
        values, counts = case
        got = _weighted_median(values, counts)
        expected = [np.median(np.repeat(v, c)) for v, c in zip(values, counts)]
        assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in expected]

    def test_random_cells(self):
        gen = np.random.default_rng(42)
        for _ in range(100):
            rows, k = int(gen.integers(1, 8)), int(gen.integers(1, 40))
            values = gen.choice(gen.random(max(1, k // 2)), size=(rows, k))
            counts = gen.poisson(gen.choice([0.3, 2.0, 50.0]), size=(rows, k))
            counts[counts.sum(axis=1) == 0, 0] = 1
            expected = [np.median(np.repeat(v, c)) for v, c in zip(values, counts)]
            got = _weighted_median(values, counts)
            assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in expected]


def reference_fit(cells):
    """The per-trial grouped Newton fit on one trial's tallies: (coefficients,
    capped), or its DegenerateFitError."""
    present = cells.totals > 0
    design = cells.design[present]
    totals = cells.totals[present].astype(np.float64)
    treated = cells.treated[present].astype(np.float64)
    n_records = float(totals.sum())
    n_treated = float(treated.sum())
    if n_treated == 0 or n_treated == n_records:
        raise DegenerateFitError(
            f"all {int(n_records)} records share one treatment arm; "
            "propensity not identifiable"
        )
    coefs = np.zeros(design.shape[1])
    for _ in range(200):
        p = _sigmoid(design @ coefs)
        score = design.T @ (treated - totals * p) / n_records
        if np.abs(score).max() < 1e-8:
            break
        w = totals * p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) / n_records
        hess.flat[:: hess.shape[0] + 1] += 1e-12
        coefs = coefs + np.linalg.solve(hess, score)
        if np.abs(coefs).max() > 30.0:
            return np.clip(coefs, -30.0, 30.0), True
    return coefs, False


def reference_median(values, counts):
    """The per-arm weighted median of one trial."""
    order = np.argsort(values, kind="stable")
    ranks = np.cumsum(counts[order])
    total = int(ranks[-1])
    middle = np.searchsorted(ranks, [(total - 1) // 2, total // 2], side="right")
    lo, hi = values[order[middle]]
    return float((lo + hi) / 2)


def reference_trial(table, sizes, gen):
    """One cell-level trial on ``gen``, drawn and decided on its own:
    {coefs, capped, accept, survivors, statistic, failure}, the entries
    it reaches before a halt."""
    cells = table.draw_fitting(sizes.n1, gen)
    try:
        coefs, capped = reference_fit(cells)
    except DegenerateFitError as exc:
        return {"failure": f"DegenerateFitError: {exc}"}
    out = {"coefs": coefs, "capped": capped}
    counts = gen.multinomial(sizes.n2, table.tail)
    model = PropensityModel(weights=tuple(coefs[:-1]), bias=float(coefs[-1]))
    p1 = model.predict(table.configs)
    k = p1.size
    p_arm = np.concatenate([1.0 - p1, p1])
    accept = np.ones(2 * k)
    for arm in (slice(None, k), slice(k, None)):
        if counts[arm].any():
            med = reference_median(p_arm[arm], counts[arm])
            # A record is kept when random() < med / p_arm: always at
            # med / 0 = inf, never at 0 / 0 = NaN.
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = med / p_arm[arm]
            accept[arm] = np.where(np.isnan(ratio), 0.0, np.minimum(ratio, 1.0))
    out["accept"] = accept
    kept = gen.binomial(counts, accept)
    n0, n1 = int(kept[:k].sum()), int(kept[k:].sum())
    out["survivors"] = n0 + n1
    if n0 + n1 < sizes.n3:
        out["failure"] = (
            f"PipelineFailureError: rejection sampling kept {n0 + n1} records, "
            f"fewer than N3 = {sizes.n3}"
        )
        return out
    if n1 == 0 or n0 == 0:
        out["failure"] = (
            f"UndefinedAteError: both arms are required for an ATE (treated={n1}, control={n0})"
        )
        return out
    outcomes = gen.binomial(kept, table.p_y)
    out["statistic"] = int(outcomes[k:].sum()) / n1 - int(outcomes[:k].sum()) / n0
    return out


def block_rows(block):
    """``reference_trial``'s dict for each row of a ``_cell_trials`` block."""
    rows = []
    for i in range(len(block.statistic)):
        exc = block.halts.get(i)
        row = {} if type(exc) is DegenerateFitError else {
            "coefs": block.coefs[i], "capped": bool(block.capped[i]),
            "accept": block.accept[i], "survivors": int(block.survivors[i]),
        }
        if exc is None:
            row["statistic"] = float(block.statistic[i])
        else:
            row["failure"] = f"{type(exc).__name__}: {exc}"
            assert math.isnan(block.statistic[i])
        rows.append(row)
    return rows


def bits(rows):
    """Each row's entries with arrays and floats as their bytes."""
    return [
        {key: np.asarray(v).tobytes() if isinstance(v, (float, np.ndarray)) else v
         for key, v in row.items()}
        for row in rows
    ]


# Three covariates, 6 fitting records and a 6-record tail that must keep
# all 6: trials fit over cells with differing present masks, and a block
# mixes degenerate and capped fits, too few survivors, a one-arm tail and ATEs.
MIXED = (confounded_params(n=3, effect=0.3), PsSampleSizes(gamma=0.1, n1=6, n3=6, n2=6))

# MIXED's model with 4 fitting records: some capped fits predict a cell's
# arm with probability 0 where that arm's tail median is positive, and
# some where it is 0 too.
CAPPED = (MIXED[0], PsSampleSizes(gamma=0.1, n1=4, n3=6, n2=6))


class TestCellBlock:
    """A block of cell-level trials (``_cell_trials``) against the per-trial
    reference above, bit for bit: each stream decided on its own."""

    @pytest.mark.parametrize("params, sizes", [
        MIXED,
        CAPPED,
        (confounded_params(effect=0.5), ps_sample_sizes(0.2, 0.8, 5)),
        (flat_params(n=2), PsSampleSizes(gamma=0.1, n1=40, n3=30, n2=60)),
    ], ids=["mixed", "capped", "ps_verify_fast_sizes", "two_covariates"])
    @pytest.mark.parametrize("master_seed, first, count", [
        (20240503, 0, 400), (2**64 - 1, 2**64 - 300, 300), (7, 12345, 1),
    ], ids=["400_streams", "top_of_the_key_range", "block_of_one"])
    def test_matches_the_per_trial_reference(self, params, sizes, master_seed, first, count):
        table = _cell_table(params)
        expected = [reference_trial(table, sizes, split_stream(master_seed, first + i))
                    for i in range(count)]
        block = _cell_trials(table, sizes, master_seed, first, count)
        assert bits(block_rows(block)) == bits(expected)

    def test_capped_block_reaches_both_limits(self):
        # In the capped block of the test above, a filled arm's cell with
        # p_arm = 0 takes acceptance 1 under a positive median on some
        # streams and 0 under a zero median on others.
        params, sizes = CAPPED
        table = _cell_table(params)
        block = _cell_trials(table, sizes, 20240503, 0, 400)
        k = table.q.size
        p1 = _sigmoid((table.configs @ block.coefs[:, :-1, None])[:, :, 0] + block.coefs[:, -1:])
        limits = set()
        for i in range(400):
            if type(block.halts.get(i)) is DegenerateFitError:
                continue
            gen = split_stream(20240503, i)
            table.draw_fitting(sizes.n1, gen)
            counts = gen.multinomial(sizes.n2, table.tail).reshape(2, k)
            for arm, p_arm in enumerate((1.0 - p1[i], p1[i])):
                if counts[arm].any():
                    limits.update(block.accept[i, arm * k:(arm + 1) * k][p_arm == 0].tolist())
        assert limits == {0.0, 1.0}

    def test_mixed_block_reaches_every_branch(self):
        # Within its first 40 rows, the mixed block of the test above
        # interleaves every outcome, capped and uncapped fits, and fits over
        # differing present cells, so a row out of step with its stream shows.
        params, sizes = MIXED
        table = _cell_table(params)
        block = _cell_trials(table, sizes, 20240503, 0, 40)
        kinds = {type(block.halts[i]).__name__ if i in block.halts else "ate" for i in range(40)}
        assert kinds == {"DegenerateFitError", "PipelineFailureError", "UndefinedAteError", "ate"}
        fitted = [i for i in range(40) if type(block.halts.get(i)) is not DegenerateFitError]
        assert 0 < block.capped[fitted].sum() < len(fitted)
        masks = {tuple(table.draw_fitting(sizes.n1, split_stream(20240503, i)).totals > 0)
                 for i in fitted}
        assert len(masks) > 1

    def test_chunks_give_the_block(self, monkeypatch):
        # A budget of one trial's design entries runs the block in chunks
        # of one, with the same outcomes.
        import pacc.propensity as propensity

        params, sizes = MIXED
        monkeypatch.setattr(propensity, "ps_sample_sizes", lambda *args: sizes)
        whole = ps_trial(params, sizes.total, 0.3, 0.2)(20240503, 0, 60)
        monkeypatch.setattr(propensity, "_CELL_BUDGET", _cell_table(params).design.size)
        chunked = ps_trial(params, sizes.total, 0.3, 0.2)(20240503, 0, 60)
        assert whole[0].tolist() == chunked[0].tolist()
        assert whole[1].tobytes() == chunked[1].tobytes()
        assert [(i, str(e)) for i, e in sorted(whole[2].items())] \
            == [(i, str(e)) for i, e in sorted(chunked[2].items())]


class TestVerifyBlock:
    """A propensity verify records each trial as the per-trial reference
    decides it, halts in place."""

    @pytest.mark.parametrize("truth", list(ModelChoice))
    @pytest.mark.parametrize("master_seed, stream_base, trials", [
        (20240503, 0, 200), (2**64 - 1, 2**64 - 150, 150), (3, 77, 1),
    ], ids=["200_streams", "top_of_the_key_range", "one_trial"])
    def test_records_match_the_reference(self, monkeypatch, truth, master_seed, stream_base,
                                         trials):
        import pacc.propensity as propensity
        from pacc.core import ConceptSpec, Method
        from pacc.harness import TrialSpec, run_trial, verify

        params, sizes = MIXED
        monkeypatch.setattr(propensity, "ps_sample_sizes", lambda *args: sizes)
        spec = TrialSpec(
            truth=truth, concept=ConceptSpec(0.3, Method.PROPENSITY),
            generator_params=replace(params, effect=0.0), trials=trials,
            master_seed=master_seed, epsilon=0.2, sample_size=sizes.total,
            stream_base=stream_base,
        )
        table = _cell_table(replace(params, effect=0.3 if truth is ModelChoice.M1 else 0.0))
        expected = []
        for i in range(trials):
            trial = reference_trial(table, sizes, split_stream(master_seed, stream_base + i))
            if "failure" in trial:
                expected.append((stream_base + i, None, math.nan.hex(), False, trial["failure"]))
            else:
                chosen = ate_decision(trial["statistic"], 0.3).chosen
                expected.append((stream_base + i, chosen, trial["statistic"].hex(),
                                 chosen is truth, None))
        report = verify(spec)
        last = run_trial(spec, trials - 1)
        def record(t):
            return (t.seed, t.decision, t.statistic.hex(), t.correct, t.failure)

        assert [record(t) for t in report.per_trial] == expected
        assert record(last) == expected[-1]


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
        trials = ps_trial(flat_params(n=21), sizes.total, 0.8, 0.2)
        with pytest.raises(Drawn):
            trials(42, 0, 1)
        assert calls == [sizes.total]

    def test_beyond_enumeration_limit_is_the_record_pipeline(self, monkeypatch):
        # Past the limit each trial of a block is ps_decide on its stream's
        # N1 + N2 records, bit for bit, halts in place. Small sizes keep
        # the record draws short; 4 fitting records often share one arm.
        import pacc.propensity as propensity

        sizes = PsSampleSizes(gamma=0.1, n1=4, n3=25, n2=40)
        monkeypatch.setattr(propensity, "ps_sample_sizes", lambda *args: sizes)
        params = PsParams(
            n_covariates=21, treat_weights=(0.06,) * 21, treat_bias=-0.6,
            positivity_floor=0.2, outcome_base=0.1, effect=0.3,
            confound_weights=(0.02,) * 21,
        )
        expected = []
        for i in range(40):
            gen = split_stream(2**64 - 1, 2**64 - 40 + i)
            try:
                decision = ps_decide(generate_obs(params, sizes.total, gen), 0.8, gen, 0.2)
            except (DegenerateFitError, PipelineFailureError, UndefinedAteError) as exc:
                expected.append((False, math.nan, f"{type(exc).__name__}: {exc}"))
            else:
                expected.append((decision.chosen is ModelChoice.M1, decision.statistic, None))
        m1, statistic, halts = ps_trial(params, sizes.total, 0.8, 0.2)(2**64 - 1, 2**64 - 40, 40)
        got = [(bool(m1[i]), float(statistic[i]),
                f"{type(halts[i]).__name__}: {halts[i]}" if i in halts else None)
               for i in range(40)]
        assert [(a, s.hex(), f) for a, s, f in got] == [(a, s.hex(), f) for a, s, f in expected]
        kinds = {f.partition(":")[0] if f else None for _, _, f in expected}
        assert {None, "DegenerateFitError", "PipelineFailureError"} <= kinds

    def test_trials_decide_the_cell_block(self):
        # The prepared trials are the cell block of their streams,
        # thresholded at delta / 2.
        params = confounded_params(effect=0.5)
        sizes = ps_sample_sizes(0.2, 0.8, 5)
        m1, statistic, halts = ps_trial(params, sizes.total + 7, 0.8, 0.2)(43, 10, 30)
        block = _cell_trials(_cell_table(params), sizes, 43, 10, 30)
        assert statistic.tobytes() == block.statistic.tobytes() and halts == block.halts == {}
        assert m1.tolist() == [ate_decision(s, 0.8).chosen is ModelChoice.M1
                               for s in statistic.tolist()]


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

    def test_capped_fit_keeps_a_zero_probability_arm_always_or_never(self):
        # P'(x = 1) rounds to 1, so an untreated record at x = 1 has p_arm 0.
        # Under a positive untreated median it is always kept (med / 0 is
        # inf); where the median is 0 too, never (0 / 0), as no record of
        # that arm is (0 / p_arm). No warning.
        model = PropensityModel(weights=(60.0,), bias=0.0)
        assert model.predict(np.ones((1, 1)))[0] == 1.0
        for x0, kept in (([1, 0, 0], [1, 1, 1]), ([1, 1, 0], [0, 0, 0])):
            x = np.array([*x0, 0, 1], dtype=np.uint8)[:, None]
            z = np.array([0, 0, 0, 1, 1], dtype=np.uint8)
            data = ObsDataset(x, z, np.zeros(5, dtype=np.uint8))
            out = rejection_sample(data, model, split_stream(11, 0))
            assert int((out.z == 0).sum()) == sum(kept)
            assert int(((out.z == 0) & (out.x[:, 0] == 1)).sum()) == sum(kept[:x0.count(1)])

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
