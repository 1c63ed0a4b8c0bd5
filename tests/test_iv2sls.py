import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from pacc.core import (
    DegenerateFitError,
    InvalidArgumentError,
    ModelChoice,
    WeakInstrumentError,
    split_stream,
)
from pacc.iv2sls import (
    IvDataset,
    IvParams,
    draw_iv_sums,
    generate_iv,
    iv_analytic_variances,
    iv_block,
    iv_decide,
    iv_ratio,
    iv_rule,
    iv_sample_size,
    ols_slope,
    two_sls,
)

CONFOUNDED_NULL = IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0)


def hand_dataset():
    return IvDataset(
        np.array([1.0, -1.0, 1.0, -1.0]),
        np.array([1.0, 0.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 1.0, 0.0]),
        np.zeros(4),
    )


class TestGenerate:
    def test_noiseless_identity_chain(self):
        params = IvParams(alpha=1.0, beta=1.0)
        data = generate_iv(params, 500, split_stream(1, 0))
        assert np.array_equal(data.z, data.d)
        assert np.array_equal(data.y, data.d)

    def test_confounded_null_covariance(self):
        data = generate_iv(CONFOUNDED_NULL, 10_000, split_stream(2, 0))
        cov = float(np.cov(data.z, data.y)[0, 1])
        assert cov > 0.2

    def test_rademacher_mean(self):
        data = generate_iv(CONFOUNDED_NULL, 10_000, split_stream(3, 0))
        assert abs(data.d.mean()) <= 0.03
        assert set(np.unique(data.d)) == {-1.0, 1.0}

    def test_alpha_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            IvParams(alpha=0.0, beta=0.5)

    @pytest.mark.parametrize("name", ["beta", "conf_z", "conf_y", "noise_z_sd", "noise_y_sd"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected_by_name(self, name, value):
        # Built, such params would make every verify trial a DegenerateFitError.
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be finite"):
            IvParams(**{"alpha": 1.0, "beta": 0.0, name: value})

    @pytest.mark.parametrize("call, message", [
        (lambda: IvParams(alpha=1.0, beta=0.0, noise_y_sd=-0.5),
         "noise scales must be nonnegative"),
        (lambda: IvDataset(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3)),
         "d, z, y, u_hidden must be equal-length vectors"),
        (lambda: generate_iv(CONFOUNDED_NULL, 0, split_stream(1, 0)), "count must be at least 1"),
        (lambda: ols_slope(IvDataset(np.ones(3), np.ones(3), np.arange(3.0), np.zeros(3))),
         "z has zero variance"),
    ], ids=["negative_noise", "unequal_lengths", "count_0", "constant_z"])
    def test_invalid_arguments_are_rejected(self, call, message):
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert (info.type, str(info.value)) == (InvalidArgumentError, message)


class TestTwoSls:
    def test_hand_arithmetic(self):
        est = two_sls(hand_dataset())
        assert est.alpha_hat == 0.5
        assert est.beta_hat == 1.0

    def test_zero_outcome_gives_zero(self):
        data = hand_dataset()
        zeroed = IvDataset(data.d, data.z, np.zeros(4), data.u_hidden)
        assert two_sls(zeroed).beta_hat == 0.0

    def test_weak_instrument_error(self):
        data = IvDataset(
            np.array([1.0, -1.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5]), np.zeros(2)
        )
        with pytest.raises(WeakInstrumentError):
            two_sls(data)

    @pytest.mark.parametrize("d, z, y", [
        ([1e300, -1.0], [1.0, 0.0], [1.0, 0.0]),  # sum(d^2) overflows
        ([1.0, -1.0], [1e-300, 0.0], [1e10, 0.0]),  # beta_hat overflows
    ])
    def test_overflow_raises_instead_of_warning(self, d, z, y):
        data = IvDataset(np.array(d), np.array(z), np.array(y), np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFitError, match="overflow"):
                two_sls(data)

    def test_power_of_two_rescaling_is_bitwise_exact(self):
        data = generate_iv(CONFOUNDED_NULL, 2_000, split_stream(4, 0))
        base = two_sls(data).beta_hat
        for c in (2.0, 0.5, 4.0, 0.25):
            scaled = IvDataset(c * data.d, data.z, data.y, data.u_hidden)
            assert two_sls(scaled).beta_hat == base

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_general_rescaling_within_machine_precision(self, seed, c):
        data = generate_iv(CONFOUNDED_NULL, 200, split_stream(seed, 0))
        base = two_sls(data).beta_hat
        scaled = IvDataset(c * data.d, data.z, data.y, data.u_hidden)
        assert two_sls(scaled).beta_hat == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_noiseless_matches_ols(self):
        # With no confounding and exact stage I, the instrumental ratio is
        # the plain regression slope.
        params = IvParams(alpha=1.5, beta=0.7)
        data = generate_iv(params, 3_000, split_stream(5, 0))
        assert two_sls(data).beta_hat == pytest.approx(ols_slope(data), abs=1e-9)


class TestDrawnSums:
    # Confounded and noisy, so that both the shared confounder draw and the
    # separate noise draws shape the law of beta_hat.
    NOISY = IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0, noise_z_sd=0.5, noise_y_sd=0.7)

    @pytest.mark.parametrize("count", [24, 1280])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_estimates_match_record_level_law(self, count, beta):
        params = IvParams(**{**self.NOISY.to_dict(), "beta": beta})
        records, drawn = [], []
        for i in range(2000):
            est = two_sls(generate_iv(params, count, split_stream(41, i)))
            records.append((est.alpha_hat, est.beta_hat))
            est = iv_ratio(*draw_iv_sums(params, count, split_stream(42, i)))
            drawn.append((est.alpha_hat, est.beta_hat))
        records, drawn = np.array(records), np.array(drawn)
        for column in (0, 1):
            assert ks_2samp(records[:, column], drawn[:, column]).pvalue >= 1e-3

    def test_sum_of_squares_is_the_count(self):
        data = generate_iv(self.NOISY, 77, split_stream(43, 0))
        assert float(data.d @ data.d) == 77.0
        assert draw_iv_sums(self.NOISY, 77, split_stream(43, 0))[0] == 77.0

    def test_noiseless_sums_are_exact(self):
        params = IvParams(alpha=2.0, beta=0.25)
        sums = draw_iv_sums(params, 100, split_stream(44, 0))
        assert sums == (100.0, 200.0, 50.0)
        decision = iv_rule(iv_ratio(*sums), 0.4)
        assert decision.statistic == 0.25 and decision.chosen is ModelChoice.M1

    def test_ratio_of_sums_matches_two_sls(self):
        data = generate_iv(self.NOISY, 50, split_stream(45, 0))
        sums = (float(data.d @ data.d), float(data.d @ data.z), float(data.d @ data.y))
        assert iv_ratio(*sums) == two_sls(data)
        assert iv_rule(iv_ratio(*sums), 0.5) == iv_decide(data, 0.5)

    def test_overflowing_draw_is_a_fit_failure(self):
        params = IvParams(alpha=1e307, beta=0.0)
        with pytest.raises(DegenerateFitError):
            iv_ratio(*draw_iv_sums(params, 100, split_stream(46, 0)))

    def test_zero_denominator_is_a_weak_instrument(self):
        with pytest.raises(WeakInstrumentError):
            iv_ratio(10.0, 0.0, 1.0)


class FixedNormals:
    """A generator stub whose standard normals are the given values."""

    def __init__(self, *values):
        self.values = np.array(values)

    def standard_normal(self, size):
        return self.values[:size].copy()


def outcome(draw):
    """A decision as its exact bits, or the error it raised."""
    try:
        chosen, statistic, threshold = draw()
    except (WeakInstrumentError, DegenerateFitError) as exc:
        return type(exc), str(exc)
    return chosen, statistic.hex(), threshold.hex()


def block_outcomes(params, count, delta, normals):
    """``iv_block``'s decision of each row, as ``outcome`` gives it."""
    m1, beta_hat, halts = iv_block(params, count, delta, np.array(normals, dtype=float))
    threshold = (delta / 2.0).hex()
    return [
        (type(halts[i]), str(halts[i])) if i in halts
        else (ModelChoice.M1 if m1[i] else ModelChoice.M2, float(beta_hat[i]).hex(), threshold)
        for i in range(len(m1))
    ]


class TestPreparedTrial:
    """``iv_block`` decides each row as ``iv_rule(iv_ratio(*draw_iv_sums(...)))``."""

    @pytest.mark.parametrize("params, count, delta", [
        (TestDrawnSums.NOISY, 1280, 0.5),
        (IvParams(alpha=-0.3, beta=0.2, conf_z=2.0, conf_y=-1.0, noise_y_sd=0.1), 24, 0.4),
        (IvParams(alpha=1.0, beta=0.0), 7, 0.9),
    ])
    def test_decisions_match_the_reference_bit_for_bit(self, params, count, delta):
        expected = [
            outcome(lambda: iv_rule(
                iv_ratio(*draw_iv_sums(params, count, split_stream(47, i))), delta
            ))
            for i in range(1000)
        ]
        normals = [split_stream(47, i).standard_normal(3) for i in range(1000)]
        assert block_outcomes(params, count, delta, normals) == expected

    @pytest.mark.parametrize("params, count, normals, error", [
        # 4 + sqrt(4) * -2 = 0: the stage-II ratio is undefined.
        (IvParams(alpha=1.0, beta=0.0, conf_z=1.0), 4, (-2.0, 0.0, 0.0), WeakInstrumentError),
        # No records: sum(d^2) is zero.
        (IvParams(alpha=1.0, beta=0.0, conf_z=1.0), 0, (0.5, 0.0, 0.0), WeakInstrumentError),
        # count * alpha overflows, and so does sum(dy).
        (IvParams(alpha=1e307, beta=0.0), 100, (0.0, 0.0, 0.0), DegenerateFitError),
        (IvParams(alpha=1e307, beta=2.0), 100, (0.0, 0.0, 0.0), DegenerateFitError),
        # Finite sums whose ratio overflows: 1e300 / 2**-52.
        (IvParams(alpha=1.0, beta=0.0, conf_z=1.0, noise_y_sd=1e300), 1,
         (-1.0 + 2.0**-52, 0.0, 1.0), DegenerateFitError),
        # sum(dz) is fine, sum(dy) = 1e308 * 100 is not.
        (IvParams(alpha=1.0, beta=1e308), 100, (0.0, 0.0, 0.0), DegenerateFitError),
    ])
    def test_degenerate_draws_raise_as_the_reference_does(self, params, count, normals, error):
        # The degenerate row sits between two ordinary ones, which keep their places.
        rows = [(0.25, -0.5, 1.0), normals, (-1.5, 0.75, 0.125)]
        expected = [
            outcome(lambda: iv_rule(
                iv_ratio(*draw_iv_sums(params, count, FixedNormals(*row))), 0.5
            ))
            for row in rows
        ]
        assert expected[1][0] is error
        assert block_outcomes(params, count, 0.5, rows) == expected

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    def test_delta_is_checked_once_up_front(self, delta):
        with pytest.raises(InvalidArgumentError) as info:
            iv_block(CONFOUNDED_NULL, 100, delta, np.zeros((2, 3)))
        assert str(info.value) == f"delta must lie in (0, 1), got {delta}"

    def test_count_past_the_float_range_is_rejected_up_front(self):
        largest = int(sys.float_info.max)
        iv_block(CONFOUNDED_NULL, largest, 0.5, np.zeros((2, 3)))
        for count in (largest + 1, 10**400):
            with pytest.raises(InvalidArgumentError) as info:
                iv_block(CONFOUNDED_NULL, count, 0.5, np.zeros((2, 3)))
            assert str(info.value) == f"count must be at most {sys.float_info.max!r}, got {count}"


class TestSampleSize:
    def test_worked_value(self):
        assert iv_sample_size(0.1, 0.5, 1.0, 1.0, 1.0, 1.0) == 1280

    def test_halving_delta_quadruples_when_first_branch_binds(self):
        n = iv_sample_size(0.1, 0.5, 1.0, 1.0, 1.0, 1.0)
        n_half = iv_sample_size(0.1, 0.25, 1.0, 1.0, 1.0, 1.0)
        assert n_half == 4 * n

    def test_nonincreasing_in_epsilon(self):
        values = [iv_sample_size(e, 0.5, 1.0, 1.0, 1.0, 1.0) for e in (0.05, 0.1, 0.2)]
        assert values == sorted(values, reverse=True)

    def test_second_branch_can_bind(self):
        # Large stage-I variance with a huge delta pushes the max to the
        # stage-I branch.
        n = iv_sample_size(0.1, 0.9, 0.01, 100.0, 1.0, 1.0)
        assert n == math.ceil(8.0 * 100.0 / 0.1)

    def test_range_validation(self):
        with pytest.raises(InvalidArgumentError):
            iv_sample_size(0.1, 0.5, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            iv_sample_size(1.5, 0.5, 1.0, 1.0, 1.0, 1.0)


class TestAnalyticVariances:
    def test_confounded_null_is_unit(self):
        assert iv_analytic_variances(CONFOUNDED_NULL) == (1.0, 1.0)

    def test_pilot_sample_agreement(self):
        for params in (
            CONFOUNDED_NULL,
            IvParams(alpha=1.0, beta=0.5, conf_z=1.0, conf_y=1.0),
            IvParams(alpha=2.0, beta=0.3, conf_z=0.5, conf_y=0.8, noise_z_sd=0.7, noise_y_sd=0.4),
        ):
            sigma_dy2, sigma_dz2 = iv_analytic_variances(params)
            data = generate_iv(params, 100_000, split_stream(6, 0))
            assert float(np.var(data.d * data.y)) == pytest.approx(sigma_dy2, rel=0.2)
            assert float(np.var(data.d * data.z)) == pytest.approx(sigma_dz2, rel=0.2)


class TestDecide:
    def test_clear_effect_is_m1(self):
        data = generate_iv(IvParams(alpha=1.0, beta=1.0), 100, split_stream(7, 0))
        assert iv_decide(data, 0.5).chosen is ModelChoice.M1

    def test_null_is_m2(self):
        data = hand_dataset()
        zeroed = IvDataset(data.d, data.z, np.zeros(4), data.u_hidden)
        decision = iv_decide(zeroed, 0.5)
        assert decision.chosen is ModelChoice.M2
        assert decision.statistic == 0.0

    def test_negative_effect_is_m1_two_sided(self):
        # beta_hat = -0.6 from a flipped-outcome dataset.
        d = np.array([1.0, -1.0, 1.0, -1.0])
        z = d.copy()
        y = -0.6 * z
        decision = iv_decide(IvDataset(d, z, y, np.zeros(4)), 0.5)
        assert decision.statistic == pytest.approx(-0.6)
        assert decision.chosen is ModelChoice.M1

    def test_exact_threshold_is_m2(self):
        d = np.array([1.0, -1.0])
        z = d.copy()
        y = 0.25 * z
        decision = iv_decide(IvDataset(d, z, y, np.zeros(2)), 0.5)
        assert decision.statistic == decision.threshold
        assert decision.chosen is ModelChoice.M2

    def test_naive_ols_fooled_but_2sls_not(self):
        n = iv_sample_size(0.1, 0.5, 1.0, 1.0, 1.0, 1.0)
        fooled = 0
        wrong = 0
        for i in range(40):
            data = generate_iv(CONFOUNDED_NULL, n, split_stream(8, i))
            fooled += ols_slope(data) > 0.25
            wrong += iv_decide(data, 0.5).chosen is not ModelChoice.M2
        assert fooled >= 38  # naive regression exceeds delta / 2 nearly always
        assert wrong == 0


class TestSerialization:
    def test_csv_round_trip(self):
        data = generate_iv(CONFOUNDED_NULL, 25, split_stream(9, 0))
        again = IvDataset.from_csv(data.to_csv())
        assert np.array_equal(again.d, data.d)
        assert np.array_equal(again.z, data.z)
        assert np.array_equal(again.y, data.y)
        assert np.array_equal(again.u_hidden, np.zeros(25))  # excluded by default

    def test_csv_hidden_column(self):
        data = generate_iv(CONFOUNDED_NULL, 10, split_stream(10, 0))
        text = data.to_csv(include_hidden=True)
        assert text.splitlines()[0] == "d,z,y,u_hidden"
        again = IvDataset.from_csv(text)
        assert np.array_equal(again.u_hidden, data.u_hidden)

    def test_estimators_never_read_hidden(self):
        data = generate_iv(CONFOUNDED_NULL, 100, split_stream(11, 0))
        mangled = IvDataset(data.d, data.z, data.y, np.full(100, 9e9))
        assert two_sls(mangled) == two_sls(data)
