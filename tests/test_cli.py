import json
import math
from pathlib import Path

import numpy as np
import pytest

from pacc.cli import main
from pacc.core import split_stream
from pacc.iv2sls import IvParams, generate_iv, iv_decide
from pacc.propensity import ObsDataset, generate_obs, ps_decide, PsParams
from pacc.sccs import PointLaw


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


IV_VERIFY_CONFIG = {
    "method": "iv2sls",
    "truth": "M2",
    "epsilon": 0.1,
    "concept": {"delta": 0.5},
    "generator": {"alpha": 1.0, "conf_z": 1.0, "conf_y": 1.0},
    "sample_size": 1280,
    "trials": 60,
    "master_seed": 42,
}

PS_GENERATOR = {
    "n_covariates": 3,
    "treat_weights": [0.5, 0.5, 0.5],
    "treat_bias": -0.75,
    "positivity_floor": 0.2,
    "outcome_base": 0.1,
    "effect": 0.6,
    "confound_weights": [0.03, 0.03, 0.03],
}


class TestSamplesize:
    def test_sccs_worked_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "samplesize", "sccs",
            "--epsilon", "0.05", "--delta", "2", "--lambda-floor", "0.01",
        )
        assert code == 0
        payload = json.loads(out)
        expected = math.ceil(8.0 / (0.01**2 * math.log(2) ** 2) * math.log(80.0))
        assert payload["sample_size"] == expected

    def test_propensity_components(self, capsys):
        code, out, _ = run_cli(
            capsys, "samplesize", "propensity",
            "--epsilon", "0.1", "--delta", "0.5", "--n-covariates", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == 0.0625
        assert payload["total"] == payload["n1"] + payload["n2"]

    def test_iv_worked_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "samplesize", "iv", "--epsilon", "0.1", "--delta", "0.5",
        )
        assert code == 0
        assert json.loads(out)["sample_size"] == 1280

    def test_range_violation_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "samplesize", "sccs",
            "--epsilon", "0.05", "--delta", "1.0", "--lambda-floor", "0.01",
        )
        assert code == 2
        assert "delta" in json.loads(err)["message"]


class TestGenerate:
    def test_iv_csv(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "gen.json", {
            "method": "iv2sls",
            "count": 10,
            "master_seed": 5,
            "generator": {"alpha": 1.0, "beta": 1.0},
        })
        out_path = tmp_path / "data.csv"
        code, out, _ = run_cli(capsys, "generate", "--config", cfg, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "d,z,y"
        assert len(lines) == 11

    def test_include_hidden_flag(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "gen.json", {
            "method": "iv2sls",
            "count": 5,
            "master_seed": 5,
            "generator": {"alpha": 1.0, "beta": 0.0, "conf_z": 1.0, "conf_y": 1.0},
        })
        out_path = tmp_path / "data.csv"
        code, _, _ = run_cli(
            capsys, "generate", "--config", cfg, "--out", str(out_path), "--include-hidden"
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0] == "d,z,y,u_hidden"

    def test_sccs_json(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "gen.json", {
            "method": "sccs",
            "count": 8,
            "master_seed": 9,
            "generator": {
                "design": {"total_days": 250, "exposure_days": 21},
                "params": {
                    "phi_law": {"kind": "point", "value": math.log(0.02)},
                    "beta": 0.0,
                    "lambda_floor": 0.01,
                },
            },
        })
        out_path = tmp_path / "cases.json"
        code, _, _ = run_cli(capsys, "generate", "--config", cfg, "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["patients"]) == 8

    def test_seed_flag_overrides(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "gen.json", {
            "method": "iv2sls",
            "count": 5,
            "master_seed": 5,
            "generator": {"alpha": 1.0, "beta": 1.0, "noise_y_sd": 1.0},
        })
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "generate", "--config", cfg, "--out", str(a))
        run_cli(capsys, "generate", "--config", cfg, "--out", str(b), "--seed", "17")
        assert a.read_text() != b.read_text()


class TestEstimateDecide:
    def test_iv_four_record_example(self, capsys, tmp_path):
        data = tmp_path / "iv.csv"
        data.write_text("d,z,y\n1,1,1\n-1,0,0\n1,1,1\n-1,0,0\n")
        cfg = write_json(tmp_path / "est.json", {
            "method": "iv2sls", "input": str(data), "delta": 0.5,
        })
        code, out, _ = run_cli(capsys, "estimate", "--config", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["beta_hat"] == 1.0
        assert payload["alpha_hat"] == 0.5

        code, out, _ = run_cli(capsys, "decide", "--config", cfg)
        assert code == 0
        decision = json.loads(out)["decision"]
        assert decision["chosen"] == "M1"
        assert decision["threshold"] == 0.25

    def test_sccs_estimate(self, capsys, tmp_path):
        data = write_json(tmp_path / "cases.json", {
            "design": {"total_days": 250, "exposure_days": 21},
            "patients": [
                {"exposure_start": 121, "event_days": [95]},
                {"exposure_start": 151, "event_days": [160]},
            ],
        })
        cfg = write_json(tmp_path / "est.json", {
            "method": "sccs", "input": data, "delta": 2.0,
        })
        code, out, _ = run_cli(capsys, "estimate", "--config", cfg)
        assert code == 0
        assert json.loads(out)["statistic"] == pytest.approx(math.log(229 / 21))

    def test_ps_pipeline_equivalence(self, capsys, tmp_path):
        # generate -> estimate -> decide over files must reproduce the
        # in-process pipeline exactly for the same master seed.
        seed, eps, delta = 31, 0.2, 0.8
        params = PsParams.from_dict(PS_GENERATOR)
        from pacc.propensity import ps_sample_sizes

        total = ps_sample_sizes(eps, delta, 3).total
        gen_cfg = write_json(tmp_path / "gen.json", {
            "method": "propensity",
            "count": total,
            "master_seed": seed,
            "generator": PS_GENERATOR,
        })
        data_path = tmp_path / "obs.csv"
        code, _, _ = run_cli(capsys, "generate", "--config", gen_cfg, "--out", str(data_path))
        assert code == 0

        decide_cfg = write_json(tmp_path / "dec.json", {
            "method": "propensity",
            "input": str(data_path),
            "delta": delta,
            "epsilon": eps,
            "master_seed": seed,
        })
        code, out, _ = run_cli(capsys, "estimate", "--config", decide_cfg)
        assert code == 0
        cli_stat = json.loads(out)["statistic"]
        code, out, _ = run_cli(capsys, "decide", "--config", decide_cfg)
        assert code == 0
        cli_decision = json.loads(out)["decision"]

        data = generate_obs(params, total, split_stream(seed, 0))
        expected = ps_decide(data, delta, split_stream(seed, 1), eps)
        assert cli_stat == expected.statistic
        assert cli_decision["chosen"] == expected.chosen.value
        assert cli_decision["statistic"] == expected.statistic

    def test_decide_exit_code_never_encodes_the_choice(self, capsys, tmp_path):
        data = tmp_path / "iv.csv"
        data.write_text("d,z,y\n1,1,0\n-1,-1,0\n")  # beta_hat = 0 -> M2
        cfg = write_json(tmp_path / "dec.json", {
            "method": "iv2sls", "input": str(data), "delta": 0.5,
        })
        code, out, _ = run_cli(capsys, "decide", "--config", cfg)
        assert code == 0
        assert json.loads(out)["decision"]["chosen"] == "M2"

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "decide", "--config", str(bad))
        assert code == 2
        assert "malformed" in json.loads(err)["message"]

    def test_runtime_data_error_exits_3(self, capsys, tmp_path):
        data = tmp_path / "iv.csv"
        data.write_text("d,z,y\n1,1,0.5\n-1,1,0.5\n")  # sum(d*z) == 0
        cfg = write_json(tmp_path / "est.json", {
            "method": "iv2sls", "input": str(data), "delta": 0.5,
        })
        code, _, err = run_cli(capsys, "estimate", "--config", cfg)
        assert code == 3
        assert json.loads(err)["error"] == "WeakInstrumentError"

    def test_unknown_method_estimate_exits_2(self, capsys, tmp_path):
        data = tmp_path / "iv.csv"
        data.write_text("d,z,y\n1,1,1\n-1,0,0\n")
        cfg = write_json(tmp_path / "est.json", {
            "method": "bogus", "input": str(data), "delta": 0.5,
            "epsilon": 0.2, "master_seed": 1,
        })
        code, out, err = run_cli(capsys, "estimate", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "unknown method 'bogus'" in json.loads(err)["message"]

    def test_unknown_method_decide_exits_2_before_reading_input(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "dec.json", {
            "method": "bogus", "input": str(tmp_path / "nope.csv"), "delta": 0.5,
        })
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "unknown method 'bogus'" in json.loads(err)["message"]

    def test_missing_input_file_exits_3(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "est.json", {
            "method": "iv2sls", "input": str(tmp_path / "nope.csv"), "delta": 0.5,
        })
        code, _, _ = run_cli(capsys, "estimate", "--config", cfg)
        assert code == 3


    def test_iv_file_chain_reproduces_in_process_statistic(self, capsys, tmp_path):
        generator = {"alpha": 1.0, "beta": 0.5, "conf_z": 1.0, "conf_y": 1.0,
                     "noise_z_sd": 1.0, "noise_y_sd": 1.0}
        gen_cfg = write_json(tmp_path / "gen.json", {
            "method": "iv2sls", "count": 1280, "master_seed": 7, "generator": generator,
        })
        data_path = tmp_path / "iv.csv"
        code, _, _ = run_cli(capsys, "generate", "--config", gen_cfg, "--out", str(data_path))
        assert code == 0
        cfg = write_json(tmp_path / "dec.json", {
            "method": "iv2sls", "input": str(data_path), "delta": 0.5,
        })
        code, out, _ = run_cli(capsys, "decide", "--config", cfg)
        assert code == 0
        data = generate_iv(IvParams.from_dict(generator), 1280, split_stream(7, 0))
        expected = iv_decide(data, 0.5).statistic
        assert float(json.loads(out)["decision"]["statistic"]).hex() == expected.hex()

    @pytest.mark.parametrize("method, name, text", [
        ("propensity", "obs.csv", "x0,z,y\n2,1,0\n0,0,1\n"),
        ("propensity", "obs.csv", "x0,z,y\n256,1,0\n0,0,1\n"),
        ("propensity", "obs.json", '[{"x": [0], "z": 1, "y": 0.5}]'),
        ("iv2sls", "iv.csv", "d,z,y\n1,1,nan\n-1,0,0\n"),
        ("iv2sls", "iv.csv", "d,z,y\n1,inf,1\n-1,0,0\n"),
        ("propensity", "obs.csv", "x0,z,y\n1,1,0,1\n0,0,1,0\n"),
        ("iv2sls", "iv.csv", "d,z,y\n1,1,1,7\n-1,0,0,7\n"),
        ("iv2sls", "iv.csv", "d,z,y\n1,1\n-1,0\n"),
        ("iv2sls", "iv.csv", "d,z,y,w\n1,1,1,7\n-1,0,0,7\n"),
        ("sccs", "cases.json", json.dumps({
            "design": {"total_days": 250, "exposure_days": 21},
            "patients": [{"exposure_start": 121, "event_days": [2.7]}],
        })),
        ("sccs", "cases.json", json.dumps({
            "design": {"total_days": 250, "exposure_days": 21},
            "patients": [{"exposure_start": 121.5, "event_days": [2]}],
        })),
        ("sccs", "cases.json", json.dumps({
            "design": {"total_days": 250, "exposure_days": 21}, "patients": 5,
        })),
        # Well-formed, but far fewer records than N1 + N2 = 305,240.
        ("propensity", "obs.csv", "x0,z,y\n1,1,0\n0,0,1\n"),
        # An integer field past the int range, and numbers past int64.
        ("sccs", "cases.json", '{"design": {"total_days": Infinity, "exposure_days": 21}, '
            '"patients": [{"exposure_start": 121, "event_days": [2]}]}'),
        ("sccs", "cases.json", '{"design": {"total_days": 1e400, "exposure_days": 21}, '
            '"patients": [{"exposure_start": 121, "event_days": [2]}]}'),
        ("sccs", "cases.json", '{"design": {"total_days": 250, "exposure_days": 21}, '
            '"patients": [{"exposure_start": 121, "event_days": [1e300]}]}'),
        ("sccs", "cases.json", '{"design": {"total_days": 250, "exposure_days": 21}, '
            '"patients": [{"exposure_start": 1e19, "event_days": [2]}]}'),
        ("sccs", "cases.json", '{"design": {"total_days": 1e300, "exposure_days": 21}, '
            '"patients": [{"exposure_start": 1e300, "event_days": [2]}]}'),
        # Not UTF-8.
        ("sccs", "cases.json", b'\xff\xfe{"design": {}}'),
        ("propensity", "obs.csv", b"x0,z,y\n\xff\xfe,1,0\n"),
        ("iv2sls", "iv.csv", b"d,z,y\n1,1,1\n\xff,0,0\n"),
        # Design fields that int() would truncate or convert.
        ("sccs", "cases.json", json.dumps({
            "design": {"total_days": 250.9, "exposure_days": 21},
            "patients": [{"exposure_start": 121, "event_days": [2]}],
        })),
        ("sccs", "cases.json", json.dumps({
            "design": {"total_days": 250, "exposure_days": "21"},
            "patients": [{"exposure_start": 121, "event_days": [2]}],
        })),
        ("sccs", "cases.json", json.dumps({
            "design": {"total_days": 250, "exposure_days": True},
            "patients": [{"exposure_start": 121, "event_days": [2]}],
        })),
    ])
    def test_invalid_data_values_exit_3(self, capsys, tmp_path, method, name, text):
        data = tmp_path / name
        if isinstance(text, bytes):
            data.write_bytes(text)
        else:
            data.write_text(text)
        cfg = write_json(tmp_path / "dec.json", {
            "method": method, "input": str(data), "epsilon": 0.2, "master_seed": 1,
            "delta": 2.0 if method == "sccs" else 0.5,
        })
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 3
        assert out == ""
        message = json.loads(err)["message"]
        assert message.startswith("cannot ") and f" input {data}: " in message

    @pytest.mark.parametrize("records", [
        [{"x": [True, 0], "z": 1, "y": 0}],
        [{"x": [1, 0], "z": True, "y": 0}],
        [{"x": [1, 0], "z": 1, "y": False}, {"x": [0, 1], "z": 0, "y": 1}],
    ])
    def test_bools_in_a_propensity_json_file_exit_3(self, capsys, tmp_path, records):
        data = write_json(tmp_path / "obs.json", records)
        cfg = write_json(tmp_path / "dec.json", {
            "method": "propensity", "input": data, "delta": 0.5,
            "epsilon": 0.2, "master_seed": 1,
        })
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 3
        assert out == ""
        assert json.loads(err)["message"] == (
            f"cannot parse input {data}: x, z and y values must be the numbers 0 or 1"
        )

    def test_sccs_reader_diagnostic_names_the_patient(self, capsys, tmp_path):
        data = write_json(tmp_path / "cases.json", {
            "design": {"total_days": 250, "exposure_days": 21},
            "patients": [
                {"exposure_start": 121, "event_days": [2]},
                {"exposure_start": 10**19, "event_days": [2]},
            ],
        })
        cfg = write_json(tmp_path / "dec.json", {"method": "sccs", "input": data, "delta": 2.0})
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 3
        assert out == ""
        assert json.loads(err)["message"] == (
            f"cannot parse input {data}: patient 1: exposure_start "
            "10000000000000000000 outside [1, 230]"
        )

    @pytest.mark.parametrize("text, error, message", [
        ("d,z,y\n0,1,1\n0,0,0\n", "WeakInstrumentError",
         "sum of d^2 is zero; the stage-I coefficient is undefined"),
        ("d,z,y\n1e300,1,1\n-1,0,0\n", "DegenerateFitError",
         "the 2SLS sums or ratios overflow the float range"),
    ])
    def test_degenerate_instrument_data_exits_3(self, capsys, tmp_path, text, error, message):
        data = tmp_path / "iv.csv"
        data.write_text(text)
        cfg = write_json(tmp_path / "dec.json", {
            "method": "iv2sls", "input": str(data), "delta": 0.5,
        })
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 3
        assert out == ""
        assert json.loads(err) == {"error": error, "message": message}

    def test_short_propensity_file_diagnostic(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("x0,z,y\n1,1,0\n0,0,1\n")
        cfg = write_json(tmp_path / "est.json", {
            "method": "propensity", "input": str(data), "delta": 0.5,
            "epsilon": 0.2, "master_seed": 1,
        })
        code, out, err = run_cli(capsys, "estimate", "--config", cfg)
        assert code == 3
        assert out == ""
        assert json.loads(err)["message"] == (
            f"cannot use input {data}: pipeline needs N1 + N2 = 305240 records, got 2"
        )

    def test_bad_epsilon_on_a_short_propensity_file_exits_2(self, capsys, tmp_path):
        # The config error is reported before the data is measured against it.
        data = tmp_path / "obs.csv"
        data.write_text("x0,z,y\n1,1,0\n0,0,1\n")
        cfg = write_json(tmp_path / "dec.json", {
            "method": "propensity", "input": str(data), "delta": 0.5,
            "epsilon": 1.5, "master_seed": 1,
        })
        code, _, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 2
        assert "epsilon must lie in (0, 1)" in json.loads(err)["message"]


class TestVerify:
    def test_calibrated_config_exits_0(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "verify.json", IV_VERIFY_CONFIG)
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert json.loads(out_path.read_text()) == payload

    def test_undersized_run_exits_1(self, capsys, tmp_path):
        cfg = dict(IV_VERIFY_CONFIG)
        cfg["truth"] = "M1"
        cfg["sample_size"] = 12  # bound / 100, nowhere near enough
        cfg["generator"] = {
            "alpha": 1.0, "conf_z": 1.0, "conf_y": 1.0,
            "noise_z_sd": 1.0, "noise_y_sd": 1.0,
        }
        path = write_json(tmp_path / "verify.json", cfg)
        code, out, _ = run_cli(capsys, "verify", "--config", path)
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_threads_do_not_change_bytes(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "verify.json", {**IV_VERIFY_CONFIG, "trials": 25})
        outputs = []
        for threads in ("1", "8"):
            out_path = tmp_path / f"report_{threads}.json"
            code, _, _ = run_cli(
                capsys, "verify", "--config", cfg, "--threads", threads,
                "--out", str(out_path),
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_set_override(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "verify.json", {**IV_VERIFY_CONFIG, "trials": 5})
        code, out, _ = run_cli(
            capsys, "verify", "--config", cfg, "--set", "trials=40",
            "--set", "generator.conf_z=0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 40
        assert payload["spec"]["generator"]["conf_z"] == 0.5

    def test_csv_report(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "verify.json", {**IV_VERIFY_CONFIG, "trials": 30})
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--config", cfg, "--out", str(out_path), "--format", "csv"
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 31

    def test_propensity_sample_size_below_n1_plus_n2_exits_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "verify.json", {
            "method": "propensity", "truth": "M2", "epsilon": 0.2,
            "concept": {"delta": 0.8},
            "generator": {k: v for k, v in PS_GENERATOR.items() if k != "effect"},
            "sample_size": 100, "trials": 2, "master_seed": 1,
        })
        code, out, err = run_cli(capsys, "verify", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "pipeline needs N1 + N2" in json.loads(err)["message"]

    def test_sccs_sample_size_past_the_retry_budget_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--config", str(CONFIGS / "sccs_verify.json"),
                                 "--set", "sample_size=10000000000000", "--set", "trials=1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"].startswith("cases must be at most 9223372036854,")

    def test_generator_with_effect_rejected(self, capsys, tmp_path):
        cfg = dict(IV_VERIFY_CONFIG)
        cfg["generator"] = {"alpha": 1.0, "beta": 0.5}
        path = write_json(tmp_path / "verify.json", cfg)
        code, _, err = run_cli(capsys, "verify", "--config", path)
        assert code == 2
        assert "derived from truth" in json.loads(err)["message"]


class TestSweep:
    def test_two_point_sweep(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "method": "iv2sls",
            "truth": "M2",
            "epsilon": 0.1,
            "concept": {"delta": 0.5},
            "sample_size": 1280,
            "trials": 30,
            "master_seed": 3,
            "grid": [
                {"alpha": 1.0, "conf_z": 0.5, "conf_y": 0.5},
                {"alpha": 1.0, "conf_z": 1.0, "conf_y": 1.0},
            ],
        })
        out_path = tmp_path / "sweep_report.json"
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "sweep"
        assert len(payload["reports"]) == 2
        assert payload["worst"] in (0, 1)

    def test_missing_grid_exits_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {**IV_VERIFY_CONFIG})
        code, _, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    SCCS_GENERATE = {
        "method": "sccs", "count": 8, "master_seed": 9,
        "generator": {
            "design": {"total_days": 250, "exposure_days": 21},
            "params": {
                "phi_law": {"kind": "point", "value": -4.0},
                "beta": 0.0,
                "lambda_floor": 0.01,
            },
        },
    }

    @pytest.mark.parametrize("command, config, overrides", [
        ("generate", SCCS_GENERATE, ["generator.design.total_days=Infinity"]),
        ("generate", SCCS_GENERATE, ["generator.design.total_days=1e400"]),
        ("generate", SCCS_GENERATE, ["count=Infinity"]),
        ("verify", IV_VERIFY_CONFIG, ["sample_size=Infinity"]),
        ("verify", IV_VERIFY_CONFIG, ["sample_size=1e400"]),
        ("verify", IV_VERIFY_CONFIG, ["trials=-Infinity"]),
    ])
    def test_overflowing_config_values_exit_2(self, capsys, tmp_path, command, config, overrides):
        cfg = write_json(tmp_path / "cfg.json", config)
        argv = [command, "--config", cfg]
        for item in overrides:
            argv += ["--set", item]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert set(json.loads(err)) == {"error", "message"}

    PS_GENERATE = {
        "method": "propensity", "count": 4, "master_seed": 9,
        "generator": {**PS_GENERATOR, "n_covariates": 2, "treat_weights": [0.5, 0.5],
                      "confound_weights": [0.03, 0.03]},
    }

    @pytest.mark.parametrize("command, config, overrides", [
        ("verify", IV_VERIFY_CONFIG, ["trials=2.5"]),
        ("verify", IV_VERIFY_CONFIG, ["trials=true"]),
        ("verify", IV_VERIFY_CONFIG, ["master_seed=7.5"]),
        ("verify", IV_VERIFY_CONFIG, ['master_seed="42"']),
        ("verify", IV_VERIFY_CONFIG, ["sample_size=1280.5"]),
        ("verify", IV_VERIFY_CONFIG, ["stream_base=2.5"]),
        ("generate", SCCS_GENERATE, ["count=3.9"]),
        ("generate", SCCS_GENERATE, ["master_seed=7.5"]),
        ("generate", SCCS_GENERATE, ["generator.design.total_days=250.9"]),
        ("generate", SCCS_GENERATE, ['generator.design.exposure_days="21"']),
        ("generate", PS_GENERATE, ["generator.n_covariates=2.9"]),
        ("verify", json.loads((CONFIGS / "sccs_verify.json").read_text()),
         ["generator.design.exposure_days=21.5"]),
    ])
    def test_non_whole_config_numbers_exit_2(self, capsys, tmp_path, command, config,
                                             overrides):
        cfg = write_json(tmp_path / "cfg.json", config)
        argv = [command, "--config", cfg]
        for item in overrides:
            argv += ["--set", item]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be a whole number" in json.loads(err)["message"]

    def test_non_whole_decide_seed_exits_2(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("x0,z,y\n1,1,0\n0,0,1\n")
        cfg = write_json(tmp_path / "dec.json", {
            "method": "propensity", "input": str(data), "delta": 0.5,
            "epsilon": 0.2, "master_seed": 1.5,
        })
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"] == (
            "config field 'master_seed': master_seed must be a whole number, got 1.5"
        )

    @pytest.mark.parametrize("command, name, path, value", [
        ("verify", "sccs_verify", ("generator", "phi_law"), [1]),
        ("verify", "iv_verify", ("generator",), [1]),
        ("verify", "ps_verify_fast", ("generator",), [1]),
        ("sweep", "sccs_sweep", ("grid", 0, "phi_law"), [1]),
        ("generate", None, ("generator", "params", "phi_law"), [1]),
    ])
    def test_non_object_block_exits_2(self, capsys, tmp_path, command, name, path, value):
        if name is None:
            config = json.loads(json.dumps(self.SCCS_GENERATE))
        else:
            config = json.loads((CONFIGS / f"{name}.json").read_text())
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_json(tmp_path / "cfg.json", config)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert out == ""
        assert set(json.loads(err)) == {"error", "message"}

    @pytest.mark.parametrize("command, name, path, value", [
        ("verify", "iv_verify", ("concept", "delta"), "0.5"),
        ("verify", "iv_verify", ("epsilon",), "0.1"),
        ("verify", "iv_verify", ("generator", "alpha"), True),
        ("verify", "iv_verify", ("generator", "conf_y"), "1"),
        ("verify", "iv_verify", ("generator", "beta"), False),
        ("verify", "ps_verify_fast", ("generator", "effect"), "0"),
        ("verify", "sccs_verify", ("generator", "lambda_floor"), "0.05"),
        ("verify", "sccs_verify", ("generator", "phi_law", "value"), "-3"),
        ("verify", "ps_verify_fast", ("generator", "treat_bias"), False),
        ("verify", "ps_verify_fast", ("generator", "treat_weights"), "00000"),
        ("verify", "ps_verify_fast", ("generator", "confound_weights"),
         [0.02, 0.02, "0.02", 0.02, 0.02]),
        ("sweep", "sccs_sweep", ("grid", 2, "phi_law", "weight_high"), "0.5"),
    ])
    def test_non_number_config_fields_exit_2(self, capsys, tmp_path, command, name, path,
                                             value):
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_json(tmp_path / "cfg.json", config)
        code, out, err = run_cli(capsys, command, "--config", cfg, "--set", "trials=2")
        assert code == 2
        assert out == ""
        diagnostic = json.loads(err)
        assert set(diagnostic) == {"error", "message"}
        assert "must be a " in diagnostic["message"]

    @pytest.mark.parametrize("config", [
        {"method": "iv2sls", "delta": "0.5"},
        {"method": "iv2sls", "delta": True},
        {"method": "propensity", "delta": 0.5, "epsilon": "0.1", "master_seed": 1},
    ])
    def test_non_number_decide_fields_exit_2(self, capsys, tmp_path, config):
        data = tmp_path / "data.csv"
        data.write_text("d,z,y\n1,1,1\n-1,0,0\n")
        cfg = write_json(tmp_path / "dec.json", {**config, "input": str(data)})
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 2
        assert out == ""
        key = "epsilon" if "epsilon" in config else "delta"
        assert json.loads(err)["message"] == (
            f"config field {key!r}: {key} must be a finite number, got {config[key]!r}"
        )

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"method": "iv2sls"}')
        code, out, err = run_cli(capsys, "decide", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"].startswith(f"cannot read config {cfg}: ")

    @pytest.mark.parametrize("command, flag", [
        ("generate", "--threads=2"),
        ("estimate", "--format=json"),
        ("estimate", "--threads=2"),
        ("estimate", "--include-hidden"),
        ("decide", "--format=json"),
        ("decide", "--threads=2"),
        ("decide", "--include-hidden"),
        ("verify", "--include-hidden"),
        ("sweep", "--include-hidden"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, tmp_path, command, flag):
        data = tmp_path / "iv.csv"
        data.write_text("d,z,y\n1,1,1\n-1,0,0\n")
        configs = {
            "generate": {"method": "iv2sls", "count": 5, "master_seed": 5,
                         "generator": {"alpha": 1.0, "beta": 1.0}},
            "estimate": {"method": "iv2sls", "input": str(data), "delta": 0.5},
            "decide": {"method": "iv2sls", "input": str(data), "delta": 0.5},
            "verify": {**IV_VERIFY_CONFIG, "trials": 5},
            "sweep": {**IV_VERIFY_CONFIG, "trials": 5,
                      "grid": [IV_VERIFY_CONFIG["generator"]]},
        }
        cfg = write_json(tmp_path / "cfg.json", configs[command])
        code, out, err = run_cli(capsys, command, "--config", cfg, flag)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("config", [SCCS_GENERATE, PS_GENERATE])
    def test_include_hidden_without_a_hidden_column_exits_2(self, capsys, tmp_path, config):
        cfg = write_json(tmp_path / "gen.json", config)
        code, out, err = run_cli(capsys, "generate", "--config", cfg, "--include-hidden")
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"] == (
            f"{config['method']} datasets have no hidden column"
        )

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
