"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The calibration
criteria run Monte Carlo campaigns at bound-prescribed sample sizes; the
whole file takes a few seconds (9 passed in 1.5-3 s on a 2-core VM with
Python 3.11 and numpy 2.4).
"""

import json
import math
import time

import numpy as np
import pytest

from pacc.cli import main as cli_main
from pacc.core import ConceptSpec, Method, ModelChoice, rate_upper_bound, split_stream
from pacc.harness import AUTO, TrialSpec, verify
from pacc.iv2sls import IvDataset, IvParams, generate_iv, ols_slope, two_sls
from pacc.propensity import ObsDataset, PsParams, ate, generate_obs, ps_sample_sizes
from pacc.sccs import (
    PointLaw,
    SccsDesign,
    SccsModel,
    SccsParams,
    TwoPointLaw,
    generate_sccs,
    sccs_loglik,
    sccs_mle_closed,
    sccs_mle_numeric,
    sccs_sample_size,
)

DESIGN = SccsDesign(total_days=250, exposure_days=21)


def report_line(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {name}{suffix}")
    assert passed, f"criterion {number}: {name}{suffix}"


def sccs_trial_spec(truth: ModelChoice, phi_law, seed: int) -> TrialSpec:
    return TrialSpec(
        truth=truth,
        concept=ConceptSpec(2.0, Method.SCCS),
        generator_params=SccsModel(
            DESIGN, SccsParams(phi_law=phi_law, beta=0.0, lambda_floor=0.05)
        ),
        trials=500,
        master_seed=seed,
        epsilon=0.1,
        sample_size=AUTO,
    )


def ps_trial_spec(truth: ModelChoice, epsilon: float, delta: float, params: PsParams,
                  trials: int, seed: int) -> TrialSpec:
    return TrialSpec(
        truth=truth,
        concept=ConceptSpec(delta, Method.PROPENSITY),
        generator_params=params,
        trials=trials,
        master_seed=seed,
        epsilon=epsilon,
        sample_size=AUTO,
    )


PS_FULL_PARAMS = PsParams(
    n_covariates=5,
    treat_weights=(0.5,) * 5,
    treat_bias=-1.25,
    positivity_floor=0.2,
    outcome_base=0.1,
    effect=0.0,
    confound_weights=(0.07,) * 5,
)

PS_FAST_PARAMS = PsParams(
    n_covariates=5,
    treat_weights=(0.5,) * 5,
    treat_bias=-1.25,
    positivity_floor=0.2,
    outcome_base=0.05,
    effect=0.0,
    confound_weights=(0.02,) * 5,
)

IV_CONFOUNDED = IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0)


def test_c1_sccs_closed_form_matches_numeric_oracle():
    start = time.monotonic()
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 50:
        seed += 1
        gen = split_stream(10_000 + seed, 0)
        rate = float(gen.uniform(0.004, 0.05))
        beta = float(gen.uniform(-1.0, 1.0))
        params = SccsParams(
            phi_law=PointLaw(math.log(rate)), beta=beta, lambda_floor=rate / 2
        )
        cases = int(gen.integers(5, 80))
        ds = generate_sccs(DESIGN, params, cases, gen)
        if ds.nu1 == 0 or ds.nu2 == 0:
            continue
        gap = abs(sccs_mle_closed(ds) - sccs_mle_numeric(ds))
        worst = max(worst, gap)
        checked += 1
    elapsed = time.monotonic() - start
    report_line(
        1,
        "closed-form estimator matches numeric oracle on 50 datasets",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_c2_sccs_calibration_at_bound_with_heterogeneity():
    bound = sccs_sample_size(0.1, 2.0, 0.05)
    assert bound == math.ceil(8.0 / (0.05**2 * math.log(2.0) ** 2) * math.log(40.0))
    laws = {
        "homogeneous": (PointLaw(math.log(0.05)), 21_000),
        "heterogeneous-10x": (TwoPointLaw(math.log(0.05), math.log(0.5)), 22_000),
    }
    details = []
    all_pass = True
    for label, (law, seed) in laws.items():
        for truth in (ModelChoice.M2, ModelChoice.M1):
            spec = sccs_trial_spec(truth, law, seed=seed + (0 if truth is ModelChoice.M2 else 1))
            report = verify(spec)
            assert report.resolved_sample_size == bound
            details.append(f"{label}/{truth.value}: ub={report.upper_bound:.4f}")
            all_pass &= report.upper_bound <= 0.1
    report_line(
        2,
        f"SCCS calibration at the bound (P={bound}) under both truths and phi laws",
        all_pass,
        "; ".join(details),
    )


def test_c3_rejection_sampling_bound_never_violated():
    from pacc.propensity import PropensityModel, config_probabilities, lemma1_bound

    start = time.monotonic()
    gen = split_stream(30_000, 0)
    checked = 0
    violations = 0
    while checked < 100:
        n = int(gen.integers(1, 4))
        q_params = PsParams(
            n_covariates=n,
            treat_weights=tuple(gen.uniform(-1.5, 1.5, size=n)),
            treat_bias=float(gen.uniform(-1.0, 1.0)),
            positivity_floor=0.01,
            outcome_base=0.5,
            effect=0.0,
            confound_weights=(0.0,) * n,
            covariate_probs=tuple(gen.uniform(0.15, 0.85, size=n)),
        )
        model = PropensityModel(
            weights=tuple(gen.uniform(-1.5, 1.5, size=n)),
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
        gamma = float((q * p_true) @ f) / d_marg  # E_{QP}[f] with M = 1
        attained = float((q * p_model) @ f) / float(q @ p_model)
        if attained > lemma1_bound(eps, gamma, d_marg, 1.0) + 1e-12:
            violations += 1
        checked += 1
    elapsed = time.monotonic() - start
    report_line(
        3,
        "approximate-rejection-sampling bound holds on 100 enumerated instances",
        violations == 0 and elapsed < 5.0,
        f"{violations} violations, {elapsed:.1f}s",
    )


def _pipeline_failures(report) -> int:
    return sum(
        1
        for t in report.per_trial
        if t.failure is not None and "PipelineFailureError" in t.failure
    )


def test_c4_propensity_pipeline_calibration_full_scale():
    epsilon, delta = 0.1, 0.5
    sizes = ps_sample_sizes(epsilon, delta, 5)
    details = [f"N1={sizes.n1} N2={sizes.n2} N3={sizes.n3}"]
    all_pass = True
    for truth, seed in ((ModelChoice.M1, 41_000), (ModelChoice.M2, 42_000)):
        report = verify(ps_trial_spec(truth, epsilon, delta, PS_FULL_PARAMS, 200, seed))
        fail_frac_ub = rate_upper_bound(_pipeline_failures(report), report.trials)
        details.append(
            f"{truth.value}: ub={report.upper_bound:.4f} halts_ub={fail_frac_ub:.4f}"
        )
        all_pass &= report.upper_bound <= epsilon
        all_pass &= fail_frac_ub <= epsilon / 3.0 + 0.02
    report_line(
        4,
        "propensity pipeline calibration at full scale (eps=0.1, delta=0.5)",
        all_pass,
        "; ".join(details),
    )


def test_c4_propensity_pipeline_calibration_fast_mode():
    # Reduced-scale variant: eps=0.2 with delta=0.8 raises gamma to 0.16,
    # shrinking N1 to ~154k so the whole campaign fits in minutes.
    start = time.monotonic()
    epsilon, delta = 0.2, 0.8
    details = []
    all_pass = True
    for truth, seed in ((ModelChoice.M1, 43_000), (ModelChoice.M2, 44_000)):
        report = verify(ps_trial_spec(truth, epsilon, delta, PS_FAST_PARAMS, 200, seed))
        fail_frac_ub = rate_upper_bound(_pipeline_failures(report), report.trials)
        details.append(
            f"{truth.value}: ub={report.upper_bound:.4f} halts_ub={fail_frac_ub:.4f}"
        )
        all_pass &= report.upper_bound <= epsilon
        all_pass &= fail_frac_ub <= epsilon / 3.0 + 0.02
    elapsed = time.monotonic() - start
    report_line(
        4,
        "propensity pipeline fast mode (eps=0.2, delta=0.8) under 5 minutes",
        all_pass and elapsed < 300.0,
        f"{'; '.join(details)}; {elapsed:.0f}s",
    )


def test_c5_iv_calibration_and_naive_ols_contrast():
    start = time.monotonic()
    epsilon, delta = 0.1, 0.5
    n = 1280
    details = []
    all_pass = True
    for truth, seed in ((ModelChoice.M1, 51_000), (ModelChoice.M2, 52_000)):
        spec = TrialSpec(
            truth=truth,
            concept=ConceptSpec(delta, Method.IV2SLS),
            generator_params=IV_CONFOUNDED,
            trials=1000,
            master_seed=seed,
            epsilon=epsilon,
            sample_size=n,
        )
        report = verify(spec)
        details.append(f"{truth.value}: ub={report.upper_bound:.4f}")
        all_pass &= report.upper_bound <= epsilon

    fooled = 0
    reps = 200
    for i in range(reps):
        params = IvParams(alpha=1.0, beta=0.0, conf_z=1.0, conf_y=1.0)
        data = generate_iv(params, n, split_stream(53_000, i))
        fooled += ols_slope(data) > delta / 2.0
    elapsed = time.monotonic() - start
    details.append(f"naive OLS fooled {fooled}/{reps}")
    all_pass &= fooled >= 0.95 * reps
    report_line(
        5,
        "2SLS calibration at N=1280 with confounded null; naive OLS is fooled",
        all_pass and elapsed < 60.0,
        f"{'; '.join(details)}; {elapsed:.0f}s",
    )


def test_c6_sample_size_commands_reproduce_worked_values(capsys):
    # Independent evaluations of the three bound expressions, written out
    # long-hand, must agree with the CLI integer for integer.
    sccs_expected = math.ceil(
        (8.0 / (0.01 * 0.01)) * (1.0 / math.log(2.0) ** 2) * math.log(4.0 / 0.05)
    )
    gamma = min(0.1, 0.5, 0.5 * 0.5 / 4.0)
    n1_expected = math.ceil(
        (64.0 / (gamma * gamma))
        * (2.0 * 5.0 * (math.log(16.0) + 1.0 - math.log(gamma)) + math.log(48.0 / 0.1))
    )
    iv_expected = math.ceil(max(32.0 / (0.1 * 0.5**2), 8.0 / 0.1))

    assert cli_main(
        ["samplesize", "sccs", "--epsilon", "0.05", "--delta", "2", "--lambda-floor", "0.01"]
    ) == 0
    sccs_payload = json.loads(capsys.readouterr().out)
    assert cli_main(
        ["samplesize", "propensity", "--epsilon", "0.1", "--delta", "0.5", "--n-covariates", "5"]
    ) == 0
    ps_payload = json.loads(capsys.readouterr().out)
    assert cli_main(["samplesize", "iv", "--epsilon", "0.1", "--delta", "0.5"]) == 0
    iv_payload = json.loads(capsys.readouterr().out)

    checks = [
        sccs_payload["sample_size"] == sccs_expected,
        ps_payload["n1"] == n1_expected,
        ps_payload["gamma"] == 0.0625,
        iv_payload["sample_size"] == iv_expected == 1280,
        # Quoted reference magnitudes (rounded upstream): stay within 0.1%.
        abs(sccs_payload["sample_size"] - 729_694) <= 0.001 * 729_694,
        abs(ps_payload["n1"] - 1_173_534) <= 0.001 * 1_173_534,
    ]
    report_line(
        6,
        "samplesize commands match independent bound evaluations exactly",
        all(checks),
        f"sccs={sccs_payload['sample_size']} n1={ps_payload['n1']} iv={iv_payload['sample_size']}",
    )


def test_c7_reports_byte_identical_across_worker_counts(tmp_path, capsys):
    configs = {
        "iv": {
            "method": "iv2sls",
            "truth": "M2",
            "epsilon": 0.1,
            "concept": {"delta": 0.5},
            "generator": {"alpha": 1.0, "conf_z": 1.0, "conf_y": 1.0},
            "sample_size": 1280,
            "trials": 40,
            "master_seed": 71,
        },
        "propensity": {
            "method": "propensity",
            "truth": "M2",
            "epsilon": 0.2,
            "concept": {"delta": 0.8},
            "generator": PS_FAST_PARAMS.to_dict(),
            "sample_size": "auto",
            "trials": 10,
            "master_seed": 72,
        },
    }
    ok = True
    details = []
    for label, config in configs.items():
        config = dict(config)
        if label == "propensity":
            config["generator"] = {
                k: v for k, v in config["generator"].items() if k != "effect"
            }
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(config))
        blobs = []
        for threads in ("1", "4", "8"):
            out_path = tmp_path / f"{label}_{threads}.json"
            code = cli_main(
                ["verify", "--config", str(cfg_path), "--threads", threads,
                 "--out", str(out_path)]
            )
            capsys.readouterr()
            assert code in (0, 1)
            blobs.append(out_path.read_bytes())
        same = blobs[0] == blobs[1] == blobs[2]
        ok &= same
        details.append(f"{label}: {'identical' if same else 'DIVERGED'}")
    report_line(7, "verify reports byte-identical across 1/4/8 threads", ok, "; ".join(details))


def test_c8_exact_algebraic_invariants():
    gen_master = split_stream(80_000, 0)
    ok = True
    details = []

    # 2SLS invariance under instrument rescaling.
    exact_ok = True
    approx_worst = 0.0
    for i in range(20):
        data = generate_iv(IV_CONFOUNDED, 500, split_stream(80_001, i))
        base = two_sls(data).beta_hat
        for c in (2.0, 0.5, 8.0):
            scaled = IvDataset(c * data.d, data.z, data.y, data.u_hidden)
            exact_ok &= two_sls(scaled).beta_hat == base
        c = float(gen_master.uniform(0.1, 10.0))
        scaled = IvDataset(c * data.d, data.z, data.y, data.u_hidden)
        approx_worst = max(
            approx_worst, abs(two_sls(scaled).beta_hat - base) / abs(base)
        )
    ok &= exact_ok and approx_worst <= 1e-12
    details.append(f"2sls rescale: pow2 exact, generic rel {approx_worst:.1e}")

    # Baseline cancellation: the conditional log-likelihood equals the
    # explicit-baseline likelihood for any phi assignment, so shifting
    # every phi changes nothing.
    def loglik_explicit(ds, beta, phis):
        total, expo = ds.design.total_days, ds.design.exposure_days
        ll = 0.0
        for phi, pt in zip(phis, ds.to_dict()["patients"]):
            s = pt["exposure_start"]
            pre, post = s - 1, total - expo - s + 1
            denom = (pre + post) * math.exp(phi) + expo * math.exp(phi + beta)
            for day in pt["event_days"]:
                if s <= day < s + expo:
                    ll += math.log(expo * math.exp(phi + beta) / denom)
                elif day < s:
                    ll += math.log(pre * math.exp(phi) / denom)
                else:
                    ll += math.log(post * math.exp(phi) / denom)
        return ll

    shift_worst = 0.0
    for i in range(10):
        gen = split_stream(80_002, i)
        params = SccsParams(
            phi_law=PointLaw(math.log(0.02)), beta=float(gen.uniform(-1, 1)),
            lambda_floor=0.01,
        )
        ds = generate_sccs(DESIGN, params, 30, gen)
        phis = gen.uniform(-7.0, -2.0, size=len(ds))
        beta = float(gen.uniform(-1.0, 1.0))
        reference = loglik_explicit(ds, beta, phis)
        shifted = loglik_explicit(ds, beta, phis + float(gen.uniform(-3, 3)))
        conditional = sccs_loglik(ds, beta)
        shift_worst = max(
            shift_worst, abs(reference - shifted), abs(conditional - reference)
        )
    ok &= shift_worst <= 1e-9
    details.append(f"phi shift residual {shift_worst:.1e}")

    # ATE permutation invariance, exactly.
    perm_ok = True
    for i in range(10):
        gen = split_stream(80_003, i)
        params = PsParams(
            n_covariates=2,
            treat_weights=(0.3, -0.3),
            treat_bias=0.0,
            positivity_floor=0.2,
            outcome_base=0.4,
            effect=0.2,
            confound_weights=(0.05, 0.05),
        )
        data = generate_obs(params, 2_001, gen)
        perm = gen.permutation(len(data))
        shuffled = ObsDataset(data.x[perm], data.z[perm], data.y[perm])
        perm_ok &= ate(shuffled) == ate(data)
    ok &= perm_ok
    details.append("ate permutation exact" if perm_ok else "ate permutation FAILED")

    report_line(8, "exact algebraic invariants hold to machine precision", ok, "; ".join(details))
