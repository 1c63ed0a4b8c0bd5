import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import fftconvolve
from scipy.stats import binom, binomtest, chi2, ks_2samp, ttest_1samp

import pacc.sccs as sccs_mod
from pacc.core import GenerationFailureError, InvalidArgumentError, ModelChoice, split_stream
from pacc.sccs import (
    PointLaw,
    SccsCounts,
    SccsDataset,
    SccsDesign,
    SccsParams,
    SccsTrialLaw,
    TwoPointLaw,
    check_sccs_trial,
    generate_sccs,
    law_from_dict,
    sccs_decide,
    sccs_loglik,
    sccs_mle_closed,
    sccs_mle_numeric,
    sccs_sample_size,
    sccs_trial_law,
)

DESIGN = SccsDesign(total_days=250, exposure_days=21)


def case_series(*timelines) -> SccsDataset:
    """A case series under DESIGN from (exposure_start, event_days) pairs,
    read through its JSON form."""
    return SccsDataset.from_dict({
        "design": DESIGN.to_dict(),
        "patients": [
            {"exposure_start": start, "event_days": list(days)} for start, days in timelines
        ],
    })


def worked_example_dataset() -> SccsDataset:
    # Two 250-day cases with 21-day exposure windows: one pre-exposure
    # event on day 95 (pre-interval length 120), one exposed event.
    return case_series((121, [95]), (151, [160]))


def random_dataset(seed: int, min_cases: int = 5, max_cases: int = 60) -> SccsDataset:
    gen = split_stream(seed, 0)
    cases = int(gen.integers(min_cases, max_cases + 1))
    beta = float(gen.uniform(-1.0, 1.0))
    rate = float(gen.uniform(0.004, 0.04))
    params = SccsParams(phi_law=PointLaw(math.log(rate)), beta=beta, lambda_floor=rate / 2)
    return generate_sccs(DESIGN, params, cases, gen)


class TestDesignAndParams:
    def test_exposure_must_fit(self):
        with pytest.raises(InvalidArgumentError):
            SccsDesign(total_days=250, exposure_days=250)
        with pytest.raises(InvalidArgumentError):
            SccsDesign(total_days=100, exposure_days=120)

    def test_total_days_keep_day_numbers_exact_as_floats(self):
        assert SccsDesign(total_days=2**53, exposure_days=21).max_start == 2**53 - 20
        with pytest.raises(InvalidArgumentError, match=r"\[2, 2\*\*53\]"):
            SccsDesign(total_days=2**53 + 1, exposure_days=21)

    def test_rate_validity_gate(self):
        with pytest.raises(InvalidArgumentError):
            SccsParams(phi_law=PointLaw(math.log(0.6)), beta=math.log(2), lambda_floor=0.1)

    @pytest.mark.parametrize("phi_law, beta", [
        (PointLaw(1000.0), 0.0), (TwoPointLaw(-3.0, 709.0, 0.5), 1.0),
    ], ids=["point", "two_point_with_beta"])
    def test_overflowing_rate_exceeds_1(self, phi_law, beta):
        # exp(phi + max(beta, 0)) overflows past about 709.78: that rate is
        # inf, not an OverflowError.
        with pytest.raises(InvalidArgumentError) as info:
            SccsParams(phi_law=phi_law, beta=beta, lambda_floor=0.01)
        assert str(info.value) == (
            "per-day event probability exp(phi + max(beta, 0)) = inf exceeds 1"
        )

    def test_lambda_floor_below_min_rate(self):
        with pytest.raises(InvalidArgumentError):
            SccsParams(phi_law=PointLaw(math.log(0.01)), beta=0.0, lambda_floor=0.02)

    def test_point_law_value_must_be_finite(self):
        # NaN passes SccsParams' rate comparisons, so the law itself rejects it.
        with pytest.raises(InvalidArgumentError, match="value must be a finite number"):
            PointLaw(math.nan)

    def test_two_point_law_round_trip(self):
        law = TwoPointLaw(low=math.log(0.01), high=math.log(0.1), weight_high=0.3)
        assert law_from_dict(law.to_dict()) == law
        assert law.atoms() == ((math.log(0.01), 0.7), (math.log(0.1), 0.3))

    @pytest.mark.parametrize("call, message", [
        (lambda: TwoPointLaw(low=-2.0, high=-3.0), "two-point law requires low <= high"),
        (lambda: TwoPointLaw(low=-3.0, high=-2.0, weight_high=1.0),
         "weight_high must lie in (0, 1)"),
        (lambda: TwoPointLaw(low=-3.0, high=-2.0, weight_high=0.0),
         "weight_high must lie in (0, 1)"),
        (lambda: SccsDesign(total_days=250, exposure_days=0), "exposure_days must be at least 1"),
        (lambda: SccsParams(PointLaw(math.log(0.05)), beta=math.nan, lambda_floor=0.01),
         "beta must be finite"),
        (lambda: SccsParams(PointLaw(math.log(0.05)), beta=-math.inf, lambda_floor=0.01),
         "beta must be finite"),
        (lambda: SccsParams(PointLaw(math.log(0.05)), beta=0.0, lambda_floor=1.5),
         "lambda_floor must lie in (0, 1)"),
        (lambda: SccsParams(PointLaw(math.log(0.05)), beta=0.0, lambda_floor=0.0),
         "lambda_floor must lie in (0, 1)"),
        (lambda: generate_sccs(
            DESIGN, SccsParams(PointLaw(math.log(0.05)), 0.0, 0.01), 0, split_stream(1, 0)
        ), "cases must be at least 1"),
        (lambda: check_sccs_trial(DESIGN, 0), "cases must be at least 1"),
        (lambda: sccs_mle_closed(SccsCounts(DESIGN, 0, 0)),
         "a valid case series has at least one event"),
        (lambda: sccs_decide(SccsCounts(DESIGN, 1, 1), 1.0),
         "delta must exceed 1 on the risk-ratio scale, got 1.0"),
    ], ids=["low_above_high", "weight_1", "weight_0", "exposure_days_0", "beta_nan",
            "beta_minus_inf", "floor_1.5", "floor_0", "generate_0_cases", "trial_0_cases",
            "no_events", "delta_1"])
    def test_invalid_arguments_are_rejected(self, call, message):
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert (info.type, str(info.value)) == (InvalidArgumentError, message)


class TestLogLik:
    def test_worked_example_at_zero(self):
        ds = worked_example_dataset()
        expected = math.log(120 / 250) + math.log(21 / 250)  # -3.211
        assert sccs_loglik(ds, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_baseline_rates_cancel(self):
        # Reference likelihood carrying explicit per-patient baselines; the
        # conditional form must match it for any phi assignment.
        ds = random_dataset(3)
        gen = split_stream(4, 0)
        phis = gen.uniform(-8.0, -2.0, size=len(ds))

        def loglik_with_phi(beta: float) -> float:
            total, expo = DESIGN.total_days, DESIGN.exposure_days
            ll = 0.0
            for phi, pt in zip(phis, ds.to_dict()["patients"]):
                s = pt["exposure_start"]
                pre, post = s - 1, total - expo - s + 1
                denom = (
                    pre * math.exp(phi)
                    + expo * math.exp(phi + beta)
                    + post * math.exp(phi)
                )
                for day in pt["event_days"]:
                    if s <= day < s + expo:
                        ll += math.log(expo * math.exp(phi + beta) / denom)
                    elif day < s:
                        ll += math.log(pre * math.exp(phi) / denom)
                    else:
                        ll += math.log(post * math.exp(phi) / denom)
            return ll

        for beta in (-1.0, 0.0, 0.7, 2.5):
            assert sccs_loglik(ds, beta) == pytest.approx(loglik_with_phi(beta), abs=1e-9)

    def test_single_exposed_event_limit(self):
        ds = case_series((100, [105]))
        values = [sccs_loglik(ds, b) for b in (1.0, 5.0, 10.0, 20.0)]
        assert all(v < 0 for v in values)
        assert values == sorted(values)  # increasing toward the 0 limit
        assert sccs_loglik(ds, 700.0) == pytest.approx(0.0, abs=1e-12)

    def test_finite_for_extreme_beta(self):
        ds = worked_example_dataset()
        assert math.isfinite(sccs_loglik(ds, 700.0))
        assert math.isfinite(sccs_loglik(ds, -700.0))


class TestEstimators:
    def test_closed_form_worked_example(self):
        ds = worked_example_dataset()
        assert sccs_mle_closed(ds) == pytest.approx(math.log(229 / 21), abs=1e-12)

    def test_equal_rates_give_zero(self):
        # nu1/expo == nu2/control: 21 exposed events vs 229 unexposed.
        gen = split_stream(5, 0)
        pts = []
        day_pool = range(1, 251)
        for _ in range(25):
            start = int(gen.integers(1, DESIGN.max_start + 1))
            pts.append((start, day_pool))
        ds = case_series(*pts)
        assert ds.nu1 == 25 * 21 and ds.nu2 == 25 * 229
        assert sccs_mle_closed(ds) == 0.0

    def test_boundary_sentinels(self):
        exposed_only = case_series((100, [100, 101, 102]))
        assert sccs_mle_closed(exposed_only) == math.inf
        unexposed_only = case_series((100, [5]))
        assert sccs_mle_closed(unexposed_only) == -math.inf

    def test_numeric_matches_closed_on_worked_example(self):
        ds = worked_example_dataset()
        assert sccs_mle_numeric(ds) == pytest.approx(sccs_mle_closed(ds), abs=1e-6)

    def test_numeric_on_symmetric_rates_is_zero(self):
        ds = case_series((100, range(1, 251)))
        assert abs(sccs_mle_numeric(ds)) <= 1e-7

    def test_numeric_rejects_degenerate_counts(self):
        ds = case_series((100, [5]))
        with pytest.raises(InvalidArgumentError):
            sccs_mle_numeric(ds)

    def test_oracle_agreement_sweep(self):
        checked = 0
        seed = 0
        while checked < 50:
            seed += 1
            ds = random_dataset(seed)
            if ds.nu1 == 0 or ds.nu2 == 0:
                continue
            assert abs(sccs_mle_closed(ds) - sccs_mle_numeric(ds)) <= 1e-6
            checked += 1

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_estimate_depends_only_on_counts(self, seed):
        ds = random_dataset(seed)
        if ds.nu1 == 0 or ds.nu2 == 0:
            return
        gen = np.random.default_rng(seed)
        perm = gen.permutation(len(ds))
        patients = ds.to_dict()["patients"]
        shuffled = case_series(
            *((patients[i]["exposure_start"], patients[i]["event_days"]) for i in perm)
        )
        assert sccs_mle_closed(shuffled) == sccs_mle_closed(ds)


class TestGeneration:
    def test_null_rate_ratio_near_one(self):
        params = SccsParams(phi_law=PointLaw(math.log(0.01)), beta=0.0, lambda_floor=0.005)
        ds = generate_sccs(DESIGN, params, 1000, split_stream(11, 0))
        ratio = (ds.nu1 / DESIGN.exposure_days) / (ds.nu2 / DESIGN.control_days)
        assert 0.8 <= ratio <= 1.25

    def test_effect_rate_ratio_near_three(self):
        params = SccsParams(
            phi_law=PointLaw(math.log(0.01)), beta=math.log(3), lambda_floor=0.005
        )
        ds = generate_sccs(DESIGN, params, 1000, split_stream(12, 0))
        ratio = (ds.nu1 / DESIGN.exposure_days) / (ds.nu2 / DESIGN.control_days)
        assert 2.4 <= ratio <= 3.75

    def test_every_patient_has_an_event(self):
        params = SccsParams(phi_law=PointLaw(math.log(0.005)), beta=0.0, lambda_floor=0.004)
        ds = generate_sccs(DESIGN, params, 200, split_stream(13, 0))
        patients = ds.to_dict()["patients"]
        assert len(ds) == len(patients) == 200
        assert all(len(pt["event_days"]) >= 1 for pt in patients)
        assert ds.nu1 + ds.nu2 == sum(len(pt["event_days"]) for pt in patients)

    def test_reproducible_for_fixed_stream(self):
        params = SccsParams(phi_law=PointLaw(math.log(0.01)), beta=0.3, lambda_floor=0.005)
        a = generate_sccs(DESIGN, params, 50, split_stream(14, 3))
        b = generate_sccs(DESIGN, params, 50, split_stream(14, 3))
        assert a.to_dict() == b.to_dict()

    def test_retry_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sccs_mod, "_MAX_ATTEMPTS_PER_CASE", 50)
        params = SccsParams(phi_law=PointLaw(-30.0), beta=0.0, lambda_floor=1e-14)
        with pytest.raises(GenerationFailureError):
            generate_sccs(DESIGN, params, 3, split_stream(15, 0))

    def test_exposure_start_within_feasible_range(self):
        params = SccsParams(phi_law=PointLaw(math.log(0.02)), beta=0.0, lambda_floor=0.01)
        ds = generate_sccs(DESIGN, params, 300, split_stream(16, 0))
        starts = [pt["exposure_start"] for pt in ds.to_dict()["patients"]]
        assert min(starts) >= 1 and max(starts) <= DESIGN.max_start


def one_case_pmf(design: SccsDesign, params: SccsParams) -> tuple[np.ndarray, float]:
    """The exact law of one accepted case: its (exposed, control) event
    counts' binomial product mixed over the phi law, without the eventless
    (0, 0) cell, and the probability that an attempt has an event."""
    expo, control = design.exposure_days, design.control_days
    joint = np.zeros((expo + 1, control + 1))
    for phi, weight in params.phi_law.atoms():
        joint += weight * np.outer(
            binom.pmf(np.arange(expo + 1), expo, math.exp(phi + params.beta)),
            binom.pmf(np.arange(control + 1), control, math.exp(phi)),
        )
    accept = 1.0 - joint[0, 0]
    joint[0, 0] = 0.0
    return joint / accept, accept


def law_pmf(law: SccsTrialLaw) -> np.ndarray:
    """The one-case (exposed, control) pmf that a trial law's tables give."""
    expo, control = law.design.exposure_days, law.design.control_days
    joint = np.zeros((expo + 1, control + 1))
    for share, atom in zip(law.shares, law.atoms):
        pa = np.zeros(expo + 1)
        pa[atom.exposed] = atom.pa
        pb = np.zeros(control + 1)
        pb[atom.control] = atom.pb
        b = binom.pmf(np.arange(control + 1), control, atom.p0)
        joint += share * atom.ta * np.outer(pa, b)
        joint[0] += share * (1.0 - atom.ta) * pb
    return joint


def draw_totals(law: SccsTrialLaw, seed: int, trials: int) -> np.ndarray:
    """(nu1, nu2) of ``trials`` draws from the law on streams (seed, 0..)."""
    drawn = (law.draw(split_stream(seed, i)) for i in range(trials))
    return np.array([(counts.nu1, counts.nu2) for counts in drawn])


class TestCountDraw:
    # Low baselines make about 30% of draws event-free, so the redraw
    # conditioning shapes the law being compared.
    LAWS = {
        "point": PointLaw(math.log(0.005)),
        "two_point": TwoPointLaw(math.log(0.005), math.log(0.1)),
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("beta", [0.0, math.log(2.0)])
    def test_totals_match_record_level_law(self, law, beta):
        params = SccsParams(phi_law=self.LAWS[law], beta=beta, lambda_floor=0.005)
        records = []
        for i in range(300):
            ds = generate_sccs(DESIGN, params, 100, split_stream(31, i))
            records.append((ds.nu1, ds.nu2))
        records = np.array(records)
        drawn = draw_totals(sccs_trial_law(DESIGN, params, 100), 32, 300)
        for column in (0, 1):
            assert ks_2samp(records[:, column], drawn[:, column]).pvalue >= 1e-3

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(sccs_mod, "_MAX_ATTEMPTS_PER_CASE", 50)
        params = SccsParams(phi_law=PointLaw(-30.0), beta=0.0, lambda_floor=1e-14)
        with pytest.raises(GenerationFailureError):
            sccs_trial_law(DESIGN, params, 3).draw(split_stream(15, 0))

    def test_decision_reads_only_the_totals(self):
        ds = random_dataset(22)
        counts = SccsCounts(ds.design, ds.nu1, ds.nu2)
        assert sccs_mle_closed(counts) == sccs_mle_closed(ds)
        assert sccs_decide(counts, 2.0) == sccs_decide(ds, 2.0)


class TestCellTable:
    """The trial law's 1-D tables, and the totals drawn from them, against
    the exact one-case law and the record-level ``generate_sccs``."""

    LAWS = TestCountDraw.LAWS

    def test_pmf_is_the_mixed_binomial_product_without_the_eventless_cell(self):
        design = SccsDesign(total_days=7, exposure_days=2)
        law = TwoPointLaw(math.log(0.05), math.log(0.3), weight_high=0.25)
        params = SccsParams(phi_law=law, beta=math.log(2.0), lambda_floor=0.05)
        trial_law = sccs_trial_law(design, params, 10)
        expected, accept = one_case_pmf(design, params)
        assert trial_law.accept == pytest.approx(accept, rel=1e-13)
        np.testing.assert_allclose(law_pmf(trial_law), expected, rtol=1e-12, atol=1e-300)
        for atom in trial_law.atoms:
            assert (atom.exposed.tolist(), atom.control.tolist()) == ([1, 2], [1, 2, 3, 4, 5])

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("beta", [0.0, math.log(2.0)])
    def test_totals_match_per_case_law(self, law, beta):
        # A trial's totals sum 500 independent cases, so their mean and
        # variance are 500 times one case's, and near normal.
        params = SccsParams(phi_law=self.LAWS[law], beta=beta, lambda_floor=0.005)
        pmf, _ = one_case_pmf(DESIGN, params)
        trials, cases = 400, 500
        drawn = draw_totals(sccs_trial_law(DESIGN, params, cases), 34, trials)
        for column, marginal in enumerate((pmf.sum(axis=1), pmf.sum(axis=0))):
            values = np.arange(marginal.size)
            mean = cases * (marginal @ values)
            variance = cases * (marginal @ values**2) - mean**2 / cases
            assert ttest_1samp(drawn[:, column], mean).pvalue >= 1e-3
            scaled = (trials - 1) * drawn[:, column].var(ddof=1) / variance
            assert 2.0 * min(chi2.cdf(scaled, trials - 1), chi2.sf(scaled, trials - 1)) >= 1e-3

    @pytest.mark.parametrize("law", ["point", "two_point"])
    def test_decision_rate_matches_the_exact_rate(self, law):
        # c2's design under M2 at 8 cases, where M1 is chosen often. The
        # exact rate comes from 8-fold convolution of the one-case pmf;
        # M1 is chosen where c * nu1 >= sqrt(delta) * e * nu2.
        laws = {
            "point": PointLaw(math.log(0.05)),
            "two_point": TwoPointLaw(math.log(0.05), math.log(0.4), weight_high=0.05),
        }
        params = SccsParams(phi_law=laws[law], beta=0.0, lambda_floor=0.05)
        cases, delta, trials = 8, 2.0, 20_000
        pmf, _ = one_case_pmf(DESIGN, params)
        totals = np.ones((1, 1))
        for _ in range(cases):
            totals = np.clip(fftconvolve(totals, pmf), 0.0, None)
        nu1, nu2 = np.ogrid[: totals.shape[0], : totals.shape[1]]
        chooses_m1 = DESIGN.control_days * nu1 >= math.sqrt(delta) * DESIGN.exposure_days * nu2
        exact = totals[chooses_m1].sum() / totals.sum()
        if law == "point":
            assert exact == pytest.approx(0.1306, abs=5e-5)
        trial_law = sccs_trial_law(DESIGN, params, cases)
        chosen = sum(
            sccs_decide(trial_law.draw(split_stream(40, i)), delta).chosen is ModelChoice.M1
            for i in range(trials)
        )
        assert binomtest(chosen, trials, exact).pvalue >= 1e-3

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_designs_past_the_old_cell_cap_draw_the_record_level_law(self, law):
        # 1000/200 days has 201 * 801 (exposed, control) cells, past the
        # 2**17 that a 2-D table was once limited to.
        design = SccsDesign(total_days=1000, exposure_days=200)
        params = SccsParams(phi_law=self.LAWS[law], beta=math.log(2.0), lambda_floor=0.005)
        records = []
        for i in range(200):
            ds = generate_sccs(design, params, 50, split_stream(41, i))
            records.append((ds.nu1, ds.nu2))
        records = np.array(records)
        drawn = draw_totals(sccs_trial_law(design, params, 50), 42, 200)
        for column in (0, 1):
            assert ks_2samp(records[:, column], drawn[:, column]).pvalue >= 1e-3

    def test_certain_events_fill_every_day(self):
        params = SccsParams(phi_law=PointLaw(0.0), beta=0.0, lambda_floor=0.5)
        law = sccs_trial_law(DESIGN, params, 40)
        (atom,) = law.atoms
        assert (law.accept, atom.ta, atom.exposed.tolist(), atom.pa.tolist()) == (
            1.0, 1.0, [21], [1.0]
        )
        counts = law.draw(split_stream(35, 0))
        assert (counts.nu1, counts.nu2) == (40 * 21, 40 * 229)
        records = generate_sccs(DESIGN, params, 40, split_stream(35, 0))
        assert (records.nu1, records.nu2) == (counts.nu1, counts.nu2)

    def test_an_exposed_rate_of_zero_gives_no_exposed_events(self):
        # exp(phi + beta) underflows to 0, so no case has an exposed event.
        params = SccsParams(phi_law=PointLaw(math.log(0.02)), beta=-800.0, lambda_floor=0.01)
        law = sccs_trial_law(DESIGN, params, 40)
        assert law.atoms[0].ta == 0.0
        counts = law.draw(split_stream(44, 0))
        records = generate_sccs(DESIGN, params, 40, split_stream(44, 0))
        assert counts.nu1 == records.nu1 == 0
        assert counts.nu2 >= 40 and records.nu2 >= 40

    def test_near_zero_rate_fails_every_trial_on_both_paths(self, monkeypatch):
        monkeypatch.setattr(sccs_mod, "_MAX_ATTEMPTS_PER_CASE", 50)
        params = SccsParams(phi_law=PointLaw(-30.0), beta=0.0, lambda_floor=1e-14)
        law = sccs_trial_law(DESIGN, params, 3)
        for i in range(20):
            with pytest.raises(GenerationFailureError, match="after 150 attempts"):
                generate_sccs(DESIGN, params, 3, split_stream(36, i))
            with pytest.raises(GenerationFailureError, match="after 150 attempts"):
                law.draw(split_stream(36, i))

    def test_budget_failure_share_matches_per_case_redraws(self, monkeypatch):
        # About half of all attempts are eventless and each case may take
        # two, so the 40-attempt budget for 20 cases runs out in ~40% of
        # trials, for the law's one binomial draw and for generate_sccs's
        # per-case redraws alike.
        monkeypatch.setattr(sccs_mod, "_MAX_ATTEMPTS_PER_CASE", 2)
        rate = 1.0 - 0.5 ** (1.0 / DESIGN.total_days)
        params = SccsParams(phi_law=PointLaw(math.log(rate)), beta=0.0, lambda_floor=rate / 2)
        law = sccs_trial_law(DESIGN, params, 20)
        assert law.accept == pytest.approx(0.5, rel=1e-12)
        draws = {
            "per_case": (37, lambda gen: generate_sccs(DESIGN, params, 20, gen)),
            "table": (38, law.draw),
        }
        failed = dict.fromkeys(draws, 0)
        trials = 1000
        for i in range(trials):
            for name, (seed, draw) in draws.items():
                try:
                    draw(split_stream(seed, i))
                except GenerationFailureError:
                    failed[name] += 1
        expected = binom.cdf(19, 40, 0.5)
        assert 0.3 * trials < failed["table"] < 0.5 * trials
        assert binomtest(failed["table"], trials, expected).pvalue >= 1e-3
        # Two equal-size samples: given the total, one side's count is
        # Binomial(total, 1/2) when the failure probabilities agree.
        total = failed["table"] + failed["per_case"]
        assert binomtest(failed["table"], total, 0.5).pvalue >= 1e-3

    def test_budget_past_int64_is_an_invalid_argument(self):
        params = SccsParams(phi_law=PointLaw(math.log(0.02)), beta=0.0, lambda_floor=0.01)
        most = (2**63 - 1) // 1_000_000
        counts = sccs_trial_law(DESIGN, params, most).draw(split_stream(39, 0))
        assert counts.nu1 + counts.nu2 >= most
        with pytest.raises(InvalidArgumentError, match=f"cases must be at most {most}"):
            sccs_trial_law(DESIGN, params, most + 1)

    def test_days_and_cases_times_days_are_checked_at_their_limits(self):
        # At 2**20 days and (2**63 - 1) // 2**20 cases both limits are
        # met exactly: the tables are built and a draw stays in int64.
        params = SccsParams(phi_law=PointLaw(math.log(0.02)), beta=0.0, lambda_floor=0.01)
        days, most = 2**20, (2**63 - 1) // 2**20
        design = SccsDesign(total_days=days, exposure_days=21)
        counts = sccs_trial_law(design, params, most).draw(split_stream(43, 0))
        assert most * 0.02 * days * 0.99 < counts.nu1 + counts.nu2 < most * 0.02 * days * 1.01
        with pytest.raises(InvalidArgumentError, match=r"cases \* total_days must be at most"):
            sccs_trial_law(design, params, most + 1)
        longer = SccsDesign(total_days=days + 1, exposure_days=21)
        with pytest.raises(InvalidArgumentError, match=r"at most 2\*\*20 = 1048576 days"):
            sccs_trial_law(longer, params, 1)


class TestSampleSize:
    def test_worked_value(self):
        expected = math.ceil(
            8.0 / (0.01**2 * math.log(2.0) ** 2) * math.log(4.0 / 0.05)
        )
        assert sccs_sample_size(0.05, 2.0, 0.01) == expected
        assert expected == pytest.approx(729_694, rel=1e-3)

    def test_nonincreasing_in_epsilon(self):
        values = [sccs_sample_size(e, 2.0, 0.01) for e in (0.01, 0.05, 0.1)]
        assert values == sorted(values, reverse=True)

    def test_delta_one_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sccs_sample_size(0.05, 1.0, 0.01)


class TestDecide:
    def test_above_threshold_is_m1(self):
        ds = worked_example_dataset()  # statistic ~ 2.389
        decision = sccs_decide(ds, 2.0)
        assert decision.chosen is ModelChoice.M1
        assert decision.threshold == pytest.approx(math.log(2.0) / 2.0)

    def test_zero_statistic_is_m2(self):
        ds = case_series((1, range(1, 251)))
        assert sccs_mle_closed(ds) == 0.0
        assert sccs_decide(ds, 2.0).chosen is ModelChoice.M2

    def test_tie_goes_to_m1(self):
        # nu1 / nu2 arranged so the statistic equals log(delta) / 2 exactly.
        ds = worked_example_dataset()
        delta = math.exp(2.0 * sccs_mle_closed(ds))
        decision = sccs_decide(ds, delta)
        assert decision.statistic == decision.threshold
        assert decision.chosen is ModelChoice.M1

    def test_sentinels_decide_by_sign(self):
        plus = case_series((50, [55]))
        minus = case_series((50, [5]))
        assert sccs_decide(plus, 2.0).chosen is ModelChoice.M1
        assert sccs_decide(minus, 2.0).chosen is ModelChoice.M2


class TestSerialization:
    def test_json_round_trip(self):
        ds = random_dataset(21)
        again = SccsDataset.from_dict(ds.to_dict())
        assert again.to_dict() == ds.to_dict()
        assert (again.nu1, again.nu2) == (ds.nu1, ds.nu2)

    def test_day_indices_are_one_based_ints(self):
        ds = worked_example_dataset()
        payload = ds.to_dict()
        assert payload["patients"][0]["event_days"] == [95]
        assert payload["design"] == {"total_days": 250, "exposure_days": 21}

    def test_from_dict_validates_days(self):
        with pytest.raises(InvalidArgumentError):
            case_series((10, [300]))
        with pytest.raises(InvalidArgumentError):
            case_series((240, [5]))

    def test_timeline_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError):
            case_series((10, [5, 5]))

    def test_reader_accepts_whole_floats_and_any_order_across_patients(self):
        ds = case_series((10, [5.0, 9]), (230.0, [3, 250]), (1, [1]))
        assert ds.to_dict()["patients"] == [
            {"exposure_start": 10, "event_days": [5, 9]},
            {"exposure_start": 230, "event_days": [3, 250]},
            {"exposure_start": 1, "event_days": [1]},
        ]
        assert (ds.nu1, ds.nu2) == (2, 3)

    # The bad value sits in patient 1, after a valid patient 0.
    @pytest.mark.parametrize("start, days, message", [
        (121.5, [2], "patient 1 exposure_start must hold whole day numbers"),
        (121, [2.7], "patient 1 event_days must hold whole day numbers"),
        (121, [], "patient 1: a case series timeline needs at least one event"),
        (121, [5, 5], "patient 1: event_days must be strictly increasing"),
        (121, [9, 7], "patient 1: event_days must be strictly increasing"),
        (0, [2], "patient 1: exposure_start 0 outside [1, 230]"),
        (231, [2], "patient 1: exposure_start 231 outside [1, 230]"),
        (121, [0], "patient 1: event days outside [1, 250]"),
        (121, [251], "patient 1: event days outside [1, 250]"),
        (121, 5, "patient 1 event_days must hold whole day numbers"),
        (121, [[1, 2]], "patient 1 event_days must hold whole day numbers"),
        (121, ["1"], "patient 1 event_days must hold whole day numbers"),
        (121, [None], "patient 1 event_days must hold whole day numbers"),
        (121, [True], "patient 1 event_days must hold whole day numbers"),
        (121, [True, 3], "patient 1 event_days must hold whole day numbers"),
        (True, [2], "patient 1 exposure_start must hold whole day numbers"),
        (121, [math.nan], "patient 1 event_days must hold whole day numbers"),
        (121, [math.inf], "patient 1: event days outside [1, 250]"),
        (121, [1e300], "patient 1: event days outside [1, 250]"),
        (121, [10**400], "patient 1: event days outside [1, 250]"),
        (1e300, [2], "patient 1: exposure_start 1e+300 outside [1, 230]"),
        (10**19, [2], "patient 1: exposure_start 10000000000000000000 outside [1, 230]"),
    ])
    def test_reader_names_the_bad_patient(self, start, days, message):
        with pytest.raises(InvalidArgumentError) as info:
            SccsDataset.from_dict({
                "design": DESIGN.to_dict(),
                "patients": [
                    {"exposure_start": 10, "event_days": [3]},
                    {"exposure_start": start, "event_days": days},
                ],
            })
        assert str(info.value) == message

    def test_bool_day_beside_an_int_day_in_another_patient_is_rejected(self):
        # numpy promotes the flattened [True, 3] to int64; the check reads
        # the JSON values themselves.
        with pytest.raises(InvalidArgumentError, match="patient 0 event_days"):
            case_series((10, [True]), (10, [3]))

    @pytest.mark.parametrize("patients", [[], 5, {"exposure_start": 1}])
    def test_reader_needs_a_nonempty_patient_list(self, patients):
        with pytest.raises(InvalidArgumentError, match="nonempty list"):
            SccsDataset.from_dict({"design": DESIGN.to_dict(), "patients": patients})
