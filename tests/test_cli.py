import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacc import cli
from pacc.cli import main
from pacc.core import InvalidArgumentError, split_stream
from pacc.harness import read_report
from pacc.iv2sls import IvParams, generate_iv, iv_decide
from pacc.propensity import ObsDataset, generate_obs, ps_decide, PsParams
from pacc.sccs import PointLaw

from conftest import wrap_blocks


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = CONFIGS.parent / "README.md"


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

    @pytest.mark.parametrize("argv", [
        ["samplesize", "sccs", "--epsilon", "0.1", "--delta", "inf", "--lambda-floor", "0.05"],
        ["samplesize", "iv", "--epsilon", "0.1", "--delta", "0.5", "--sigma-dy2", "inf"],
        ["samplesize", "iv", "--epsilon", "0.1", "--delta", "0.5", "--alpha", "1e-300"],
        ["samplesize", "iv", "--epsilon", "0.1", "--delta", "0.5", "--alpha", "nan"],
        ["samplesize", "sccs", "--epsilon", "0.1", "--delta", "1e308",
         "--lambda-floor", "1e-200"],
        ["samplesize", "propensity", "--epsilon", "1e-300", "--delta", "0.5",
         "--n-covariates", "3"],
        ["verify", "--config", str(CONFIGS / "iv_verify.json"), "--set", 'sample_size="auto"',
         "--set", "generator.alpha=1e-300"],
        ["verify", "--config", str(CONFIGS / "sccs_verify.json"), "--set", "concept.delta=1e308",
         "--set", "generator.params.lambda_floor=1e-200"],
    ])
    def test_bound_past_the_float_range_exits_2(self, capsys, argv):
        # Each bound here is 0, inf or NaN in floats: a config error, not a
        # size of 0, a traceback or a failed verification.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert set(json.loads(err)) == {"error", "message"}


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

    @pytest.mark.parametrize("command", ["estimate", "decide"])
    def test_out_holds_the_printed_payload(self, capsys, tmp_path, command):
        data = tmp_path / "iv.csv"
        data.write_text("d,z,y\n1,1,1\n-1,0,0\n1,1,1\n-1,0,0\n")
        cfg = write_json(tmp_path / "cfg.json", {
            "method": "iv2sls", "input": str(data), "delta": 0.5,
        })
        out_path = tmp_path / "payload.json"
        code, out, _ = run_cli(capsys, command, "--config", cfg, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out
        assert json.loads(out)["method"] == "iv2sls"

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
        # No z,y columns, and no records.
        ("propensity", "obs.csv", "x0,x1,q\n0,1,0\n"),
        ("propensity", "obs.json", "[]"),
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

    @pytest.mark.parametrize("method, text, message", [
        (method, text, message)
        for method, header, record in (
            ("iv2sls", "d,z,y", "1,1,1"), ("propensity", "x0,x1,z,y", "1,0,1,1")
        )
        for text, message in (
            ("", "CSV must contain a header and at least one record"),
            (f"{header}\n", "CSV must contain a header and at least one record"),
            (f"{header}\n{record}\n{record[2:]}\n",
             f"every CSV record must have {header.count(',') + 1} values"),
        )
    ])
    def test_csv_reader_rejections_exit_3(self, capsys, tmp_path, method, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        cfg = write_json(tmp_path / "dec.json", {
            "method": method, "input": str(data), "delta": 0.5,
            "epsilon": 0.2, "master_seed": 1,
        })
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert code == 3
        assert out == ""
        assert json.loads(err) == {
            "error": "CliError", "message": f"cannot parse input {data}: {message}",
        }

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


# Weights of 15 on two rare covariates: fits on the few records that carry
# them are capped, and predict some cells' arm with probability 0.
CAPPED_PS_CONFIG = {
    "method": "propensity",
    "truth": "M2",
    "epsilon": 0.99,
    "concept": {"delta": 0.99},
    "generator": {
        "n_covariates": 3,
        "treat_weights": [15, 15, 0],
        "treat_bias": -10,
        "covariate_probs": [0.0005, 0.0005, 0.5],
        "positivity_floor": 1e-9,
        "outcome_base": 0.005,
        "confound_weights": [0, 0, 0],
    },
    "sample_size": "auto",
    "trials": 3000,
    "master_seed": 7,
}


class TestVerify:
    def test_capped_propensity_fits_write_nothing_to_stderr(self, tmp_path):
        # In a fresh interpreter, whose warnings print to stderr: the capped
        # fits' acceptance takes its limits without a division by zero, and
        # the report keeps the bytes the unguarded division gave.
        cfg = write_json(tmp_path / "capped.json", CAPPED_PS_CONFIG)
        out_path = tmp_path / "report.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH")) if p
        )}
        done = subprocess.run(
            [sys.executable, "-m", "pacc.cli", "verify", "--config", cfg, "--out", str(out_path)],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "1f6075c1b7e979f5e9e6b42c6fb52bd65a953e9791e2d894ea05706826c27c7c"
        )

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

    def test_set_into_a_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--config", str(CONFIGS / "ps_verify_fast.json"),
            "--set", "generator.treat_weights.0=0.3", "--set", "trials=2",
        )
        assert code in (0, 1)
        generator = json.loads(out)["spec"]["generator"]
        assert generator["treat_weights"] == [0.3, 0.5, 0.5, 0.5, 0.5]

    @pytest.mark.parametrize("path", ["generator.treat_weights.5", "generator.treat_weights.x",
                                      "generator.treat_weights.-1", "generator.treat_weights."])
    def test_set_past_a_list_exits_2(self, capsys, path):
        message = _diagnostic(*run_cli(
            capsys, "verify", "--config", str(CONFIGS / "ps_verify_fast.json"),
            "--set", f"{path}=0.3",
        ))
        assert message.startswith(f"--set {path}=0.3: ")
        assert message.endswith("is not an index of a list of 5 entries")

    def test_csv_report(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "verify.json", {**IV_VERIFY_CONFIG, "trials": 30})
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--config", cfg, "--out", str(out_path), "--format", "csv"
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 31

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_out_exits_3_with_the_os_error(self, capsys, tmp_path, fmt):
        # Every --out is written the same way: the OSError reaches main.
        cfg = write_json(tmp_path / "verify.json", {**IV_VERIFY_CONFIG, "trials": 3})
        out_path = tmp_path / "missing" / f"report.{fmt}"
        code, _, err = run_cli(capsys, "verify", "--config", cfg, "--format", fmt,
                               "--out", str(out_path))
        assert code == 3
        assert json.loads(err) == {
            "error": "FileNotFoundError",
            "message": f"[Errno 2] No such file or directory: '{out_path}'",
        }

    def test_pair_invalid_under_the_other_truth_exits_2(self, capsys, no_trial_may_run):
        # Truth M2 runs a valid model, but M1's per-day rate would be 0.6 * 2.
        message = _diagnostic(*run_cli(
            capsys, "verify", "--config", str(CONFIGS / "sccs_verify.json"),
            "--set", "truth=M2", "--set", f"generator.params.phi_law.value={math.log(0.6)!r}",
        ))
        assert message == (
            "invalid trial spec: per-day event probability exp(phi + max(beta, 0)) = 1.2 "
            "exceeds 1"
        )
        assert no_trial_may_run == []

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

    @pytest.mark.parametrize("overrides, message", [
        (("generator.design.total_days=1048577",),
         "SCCS trials take designs of at most 2**20 = 1048576 days, got total_days 1048577"),
        (("generator.design.total_days=1048576", "sample_size=8796093022208"),
         "cases * total_days must be at most 2**63 - 1, got 8796093022208 * 1048576"),
    ])
    def test_sccs_trial_limits_exit_2_before_any_trial(self, capsys, no_trial_may_run,
                                                       overrides, message):
        argv = ["verify", "--config", str(CONFIGS / "sccs_verify.json"), "--set", "trials=1"]
        for override in overrides:
            argv += ["--set", override]
        assert _diagnostic(*run_cli(capsys, *argv)) == message
        assert no_trial_may_run == []

    def test_generate_takes_designs_past_the_trial_day_limit(self, capsys, tmp_path):
        cfg = json.loads((CONFIGS / "sccs_verify.json").read_text())
        cfg = write_json(tmp_path / "gen.json", {
            "method": "sccs", "count": 1, "master_seed": 3, "generator": cfg["generator"],
        })
        code, out, _ = run_cli(capsys, "generate", "--config", cfg,
                               "--set", "generator.design.total_days=1048577")
        assert code == 0
        assert json.loads(out)["design"]["total_days"] == 1048577

    def test_report_is_rendered_once(self, capsys, tmp_path, monkeypatch):
        # One render a report keeps the benchmark's jsonio spans one a report.
        from pacc import _jsonio

        calls = []
        dumps = _jsonio.dumps

        def counting_dumps(obj):
            calls.append(obj)
            return dumps(obj)

        monkeypatch.setattr(_jsonio, "dumps", counting_dumps)
        cfg = write_json(tmp_path / "verify.json", IV_VERIFY_CONFIG)
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--threads", "2",
                               "--out", str(out_path))
        assert code == 0
        assert len(calls) == 1
        assert out == out_path.read_text() == dumps(calls[0])

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

    def test_set_into_a_grid_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(CONFIGS / "sccs_sweep.json"),
            "--set", "grid.1.params.lambda_floor=0.002", "--set", "trials=2",
        )
        assert code in (0, 1)
        grid = [r["spec"]["generator"]["params"]["lambda_floor"]
                for r in json.loads(out)["reports"]]
        assert grid == [0.005, 0.002, 0.01]

    def test_set_into_a_grid_point_is_checked_there(self, capsys):
        # The diagnostic names the overridden point, not the grid.
        message = _diagnostic(*run_cli(
            capsys, "sweep", "--config", str(CONFIGS / "sccs_sweep.json"),
            "--set", "grid.1.params.lambda_floor=0.3",
        ))
        assert message.startswith("invalid grid point 1: lambda_floor 0.3 exceeds ")

    def test_set_past_the_grid_exits_2(self, capsys):
        message = _diagnostic(*run_cli(
            capsys, "sweep", "--config", str(CONFIGS / "sccs_sweep.json"),
            "--set", "grid.3.params.lambda_floor=0.3",
        ))
        assert message == (
            "--set grid.3.params.lambda_floor=0.3: '3' is not an index of a list of 3 entries"
        )

    def test_point_whose_trial_cannot_be_prepared_is_named(self, capsys, tmp_path,
                                                           monkeypatch):
        # Points 0-2 are valid; point 3's design is past the trial-day limit,
        # which the sweep checks before any point's trial runs or law is built.
        import pacc.sccs as sccs_mod

        calls = []
        wrap_blocks(monkeypatch.setitem, lambda spec, trials: lambda *args: calls.append("trial"))
        monkeypatch.setattr(sccs_mod, "sccs_trial_law", lambda *args: calls.append("law"))
        config = json.loads((CONFIGS / "sccs_sweep.json").read_text())
        config["grid"].append(json.loads(json.dumps(config["grid"][0])))
        config["grid"][3]["design"]["total_days"] = 2**20 + 1
        cfg = write_json(tmp_path / "sweep.json", config)
        message = _diagnostic(*run_cli(capsys, "sweep", "--config", cfg, "--set", "trials=200"))
        assert message == (
            "sweep rejected; assumption-violating grid points:\n"
            "grid point 3: SCCS trials take designs of at most 2**20 = 1048576 days, "
            "got total_days 1048577"
        )
        assert calls == []

    def test_missing_grid_exits_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {**IV_VERIFY_CONFIG})
        code, _, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2


# JSON that Python's json module cannot read: arrays nested past the
# recursion limit, and an int past the 4,300-digit conversion limit.
UNREADABLE_JSON = {"deep": "[" * 100_000 + "]" * 100_000, "huge_int": "1" * 5_000}


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
        ("verify", "sccs_verify", ("generator", "params", "phi_law"), [1]),
        ("verify", "iv_verify", ("generator",), [1]),
        ("verify", "ps_verify_fast", ("generator",), [1]),
        ("sweep", "sccs_sweep", ("grid", 0, "params", "phi_law"), [1]),
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

    @pytest.mark.parametrize("value", [[1], 5], ids=["list", "number"])
    @pytest.mark.parametrize("command", ["generate", "verify", "read_report"])
    def test_non_object_phi_law_is_named(self, capsys, tmp_path, command, value):
        if command == "generate":
            config = json.loads(json.dumps(self.SCCS_GENERATE))
        else:
            config = json.loads((CONFIGS / "sccs_verify.json").read_text())
        cfg = write_json(tmp_path / "cfg.json", config)
        if command == "read_report":
            report = tmp_path / "report.json"
            run_cli(capsys, "verify", "--config", cfg, "--set", "trials=2", "--out", str(report))
            payload = json.loads(report.read_text())
            payload["spec"]["generator"]["params"]["phi_law"] = value
            write_json(report, payload)
            with pytest.raises(InvalidArgumentError) as info:
                read_report(report)
            message, prefix = str(info.value), f"report {report}"
        else:
            config["generator"]["params"]["phi_law"] = value
            write_json(tmp_path / "cfg.json", config)
            message = _diagnostic(*run_cli(capsys, command, "--config", cfg))
            prefix = "invalid generator params" if command == "generate" else "invalid trial spec"
        assert message == f"{prefix}: the phi law must be a JSON object, got {value!r}"

    @pytest.mark.parametrize("command, config, message", [
        ("verify", {**IV_VERIFY_CONFIG, "concept": {"delta": 0.5, "description": None}},
         "invalid trial spec: concept.description must be a string, got None"),
        ("verify", {**IV_VERIFY_CONFIG, "concept": {"delta": 0.5, "description": {"a": [1]}}},
         "invalid trial spec: concept.description must be a string, got {'a': [1]}"),
        ("decide", {"method": "iv2sls", "input": None, "delta": 0.5},
         "config field 'input': input must be a string, got None"),
        ("decide", {"method": None, "input": "iv.csv", "delta": 0.5},
         "config field 'method': method must be a string, got None"),
    ], ids=["description_null", "description_object", "input_null", "method_null"])
    def test_non_string_text_fields_exit_2(self, capsys, tmp_path, command, config, message):
        cfg = write_json(tmp_path / "cfg.json", config)
        assert _diagnostic(*run_cli(capsys, command, "--config", cfg)) == message

    @pytest.mark.parametrize("command, name, path, value", [
        ("verify", "iv_verify", ("concept", "delta"), "0.5"),
        ("verify", "iv_verify", ("epsilon",), "0.1"),
        ("verify", "iv_verify", ("generator", "alpha"), True),
        ("verify", "iv_verify", ("generator", "conf_y"), "1"),
        ("verify", "iv_verify", ("generator", "beta"), False),
        ("verify", "ps_verify_fast", ("generator", "effect"), "0"),
        ("verify", "sccs_verify", ("generator", "params", "lambda_floor"), "0.05"),
        ("verify", "sccs_verify", ("generator", "params", "phi_law", "value"), "-3"),
        ("verify", "ps_verify_fast", ("generator", "treat_bias"), False),
        ("verify", "ps_verify_fast", ("generator", "treat_weights"), "00000"),
        ("verify", "ps_verify_fast", ("generator", "confound_weights"),
         [0.02, 0.02, "0.02", 0.02, 0.02]),
        ("sweep", "sccs_sweep", ("grid", 2, "params", "phi_law", "weight_high"), "0.5"),
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

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
    def test_config_json_cannot_read_exits_2(self, capsys, tmp_path, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"method": "iv2sls", "trials": %s}' % UNREADABLE_JSON[kind])
        message = _diagnostic(*run_cli(capsys, "verify", "--config", str(cfg)))
        assert message.startswith(f"malformed JSON config {cfg}: ")

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
    def test_set_value_json_cannot_read_exits_2(self, capsys, kind):
        message = _diagnostic(*run_cli(
            capsys, "verify", "--config", str(CONFIGS / "iv_verify.json"),
            "--set", f"trials={UNREADABLE_JSON[kind]}",
        ))
        assert message.startswith("--set trials: ")

    def test_set_value_that_is_not_json_is_a_string(self, capsys):
        message = _diagnostic(*run_cli(
            capsys, "verify", "--config", str(CONFIGS / "iv_verify.json"), "--set", "trials=[1",
        ))
        assert message == "invalid trial spec: trials must be a whole number, got '[1'"

    @pytest.mark.parametrize("method", ["sccs", "propensity"])
    @pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
    def test_input_json_cannot_read_exits_3(self, capsys, tmp_path, method, kind):
        data = tmp_path / "data.json"
        data.write_text('{"patients": %s}' % UNREADABLE_JSON[kind])
        cfg = write_json(tmp_path / "dec.json", {
            "method": method, "input": str(data), "delta": 2, "epsilon": 0.2, "master_seed": 1,
        })
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert (code, out) == (3, "")
        assert json.loads(err)["message"].startswith(f"cannot parse input {data}: ")

    def test_csv_field_past_the_csv_limit_exits_3(self, capsys, tmp_path):
        data = tmp_path / "iv.csv"
        data.write_text("d,z,y\n" + "1" * 200_000 + ",1,1\n")
        cfg = write_json(tmp_path / "dec.json", {
            "method": "iv2sls", "input": str(data), "delta": 0.5,
        })
        code, out, err = run_cli(capsys, "decide", "--config", cfg)
        assert (code, out) == (3, "")
        assert json.loads(err)["message"] == (
            f"cannot parse input {data}: field larger than field limit (131072)"
        )

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

    @pytest.mark.parametrize("command, config, argv, message", [
        ("verify", IV_VERIFY_CONFIG, ["--set", "trials=0"],
         "invalid trial spec: trials must be at least 1"),
        ("verify", IV_VERIFY_CONFIG, ["--set", "sample_size=0"],
         "invalid trial spec: sample_size must be a positive count or 'auto'"),
        ("verify", IV_VERIFY_CONFIG, ["--set", "stream_base=-1"],
         "invalid trial spec: stream_base must be nonnegative"),
        ("verify", IV_VERIFY_CONFIG, ["--set", "trials"],
         "--set expects dotted.path=value, got 'trials'"),
        ("verify", [IV_VERIFY_CONFIG], [], "config root must be a JSON object"),
        ("estimate", {"input": "iv.csv", "delta": 0.5}, [],
         "config is missing required field 'method'"),
        ("generate", {k: v for k, v in SCCS_GENERATE.items() if k != "generator"}, [],
         "config needs a 'generator' object"),
        ("generate", SCCS_GENERATE, ["--format", "csv"], "sccs datasets serialise to JSON only"),
        ("verify", IV_VERIFY_CONFIG, ["--set", "generator.noise_y_sd=-1"],
         "invalid trial spec: noise scales must be nonnegative"),
        ("generate", PS_GENERATE, ["--set", "generator.n_covariates=0"],
         "invalid generator params: n_covariates must be at least 1"),
        ("generate", SCCS_GENERATE, ["--set", "generator.design.exposure_days=0"],
         "invalid generator params: exposure_days must be at least 1"),
        ("generate", SCCS_GENERATE, ["--set", "generator.params.lambda_floor=1.5"],
         "invalid generator params: lambda_floor must lie in (0, 1)"),
        ("generate", SCCS_GENERATE, [
            "--set", 'generator.params.phi_law={"kind": "two_point", "low": -3, "high": -4}',
        ], "invalid generator params: two-point law requires low <= high"),
    ], ids=["trials_0", "sample_size_0", "stream_base_negative", "set_without_equals",
            "list_root", "missing_method", "missing_generator", "sccs_csv", "negative_noise",
            "n_covariates_0", "exposure_days_0", "lambda_floor_1.5", "low_above_high"])
    def test_config_rejections_exit_2(self, capsys, tmp_path, command, config, argv, message):
        cfg = write_json(tmp_path / "cfg.json", config)
        assert _diagnostic(*run_cli(capsys, command, "--config", cfg, *argv)) == message

    @pytest.mark.parametrize("command, name, path", [
        ("verify", "iv_verify", ("sample_sise",)),
        ("verify", "iv_verify", ("concept", "descripton")),
        ("sweep", "sccs_sweep", ("sample_sise",)),
        ("sweep", "sccs_sweep", ("concept", "descripton")),
    ])
    def test_unknown_spec_key_exits_2(self, capsys, command, name, path):
        message = _diagnostic(*run_cli(
            capsys, command, "--config", str(CONFIGS / f"{name}.json"),
            "--set", f"{'.'.join(path)}=24", "--set", "trials=2",
        ))
        assert message.startswith("invalid trial spec")
        assert f"key {path[-1]!r}" in message

    @pytest.mark.parametrize("command, field", [
        ("verify", "method"), ("generate", "alpha"), ("decide", "design"),
        ("read_report", "errors"),
    ])
    def test_missing_field_is_named(self, capsys, tmp_path, command, field):
        cases = write_json(tmp_path / "cases.json", {"patients": []})
        runs = {
            "verify": ({k: v for k, v in IV_VERIFY_CONFIG.items() if k != field}, 2,
                       "invalid trial spec"),
            "generate": ({"method": "iv2sls", "count": 3, "master_seed": 1,
                          "generator": {"beta": 0.0}}, 2, "invalid generator params"),
            "decide": ({"method": "sccs", "input": cases, "delta": 2.0}, 3,
                       f"cannot parse input {cases}"),
        }
        if command == "read_report":
            report = tmp_path / "report.json"
            cfg = write_json(tmp_path / "cfg.json", IV_VERIFY_CONFIG)
            run_cli(capsys, "verify", "--config", cfg, "--set", "trials=2", "--out", str(report))
            payload = json.loads(report.read_text())
            del payload[field]
            write_json(report, payload)
            with pytest.raises(InvalidArgumentError) as info:
                read_report(report)
            message, prefix = str(info.value), f"report {report}"
        else:
            config, code, prefix = runs[command]
            got, out, err = run_cli(
                capsys, command, "--config", write_json(tmp_path / "cfg.json", config)
            )
            assert (got, out) == (code, "")
            message = json.loads(err)["message"]
        assert message == f"{prefix}: missing required field {field!r}"


def _committed_blocks():
    """(method, generator block) of every committed config: its generator,
    or each point of its sweep grid."""
    for path in sorted(CONFIGS.glob("*.json")):
        config = json.loads(path.read_text())
        for k, block in enumerate(config.get("grid") or [config["generator"]]):
            yield pytest.param(config["method"], block, id=f"{path.stem}-{k}")


# Where each method's generator block holds its effect.
EFFECT_PATHS = {"iv2sls": ("beta",), "propensity": ("effect",), "sccs": ("params", "beta")}


def _diagnostic(code, out, err) -> str:
    """The message of a run that exited 2 with one JSON diagnostic."""
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert set(diagnostic) == {"error", "message"}
    return diagnostic["message"]


class TestOneGeneratorBlock:
    """generate, verify and sweep read one generator block per method."""

    @pytest.mark.parametrize("method, block", list(_committed_blocks()))
    def test_committed_block_generates_as_with_effect_0(self, capsys, tmp_path, method,
                                                        block):
        with_zero = json.loads(json.dumps(block))
        *parents, key = EFFECT_PATHS[method]
        node = with_zero
        for parent in parents:
            node = node[parent]
        assert key not in node
        node[key] = 0.0
        outputs = []
        for generator in (block, with_zero):
            cfg = write_json(tmp_path / "gen.json", {
                "method": method, "count": 40, "master_seed": 3, "generator": generator,
            })
            code, out, err = run_cli(capsys, "generate", "--config", cfg)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_flat_sccs_block_exits_2(self, capsys, tmp_path):
        # The SCCS verify block before it took generate's nested form.
        config = json.loads((CONFIGS / "sccs_verify.json").read_text())
        config["generator"] = {"design": config["generator"]["design"],
                               **config["generator"]["params"]}
        cfg = write_json(tmp_path / "cfg.json", config)
        message = _diagnostic(*run_cli(capsys, "verify", "--config", cfg))
        assert message.endswith("unknown SCCS model key 'phi_law'; expected one of design, params")

    @pytest.mark.parametrize("command, name, path", [
        ("verify", "iv_verify", ("generator", "conf_zz")),
        ("verify", "ps_verify_fast", ("generator", "efect")),
        ("verify", "sccs_verify", ("generator", "params", "efect")),
        ("verify", "sccs_verify", ("generator", "params", "phi_law", "valu")),
        ("sweep", "sccs_sweep", ("grid", 1, "design", "exposure")),
        ("generate", None, ("generator", "params", "efect")),
    ])
    def test_unknown_generator_key_exits_2(self, capsys, tmp_path, command, name, path):
        if name is None:
            config = json.loads(json.dumps(TestUsage.SCCS_GENERATE))
        else:
            config = json.loads((CONFIGS / f"{name}.json").read_text())
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 0.3
        cfg = write_json(tmp_path / "cfg.json", config)
        message = _diagnostic(*run_cli(capsys, command, "--config", cfg, "--set", "trials=2"))
        assert f"key {path[-1]!r}" in message
        assert command != "sweep" or message.startswith("invalid grid point 1: ")

    @pytest.mark.parametrize("k", [0, 2])
    def test_sweep_point_with_an_effect_is_named(self, capsys, tmp_path, k):
        config = json.loads((CONFIGS / "sccs_sweep.json").read_text())
        config["grid"][k]["params"]["beta"] = 0.1
        cfg = write_json(tmp_path / "cfg.json", config)
        message = _diagnostic(*run_cli(capsys, "sweep", "--config", cfg, "--set", "trials=2"))
        assert f"grid point {k}: the treatment effect is derived from truth" in message

    def test_sweep_generator_field_exits_2(self, capsys):
        # A sweep runs every point of its grid; a generator field is not read.
        message = _diagnostic(*run_cli(
            capsys, "sweep", "--config", str(CONFIGS / "sccs_sweep.json"),
            "--set", "generator.design.total_days=100",
        ))
        assert "remove 'generator'" in message


class TestSizeLimits:
    def test_propensity_size_past_int64_exits_2(self, capsys):
        # N1 is about 1e28 at this epsilon; no array is allocated.
        message = _diagnostic(*run_cli(
            capsys, "verify", "--config", str(CONFIGS / "ps_verify_fast.json"),
            "--set", "epsilon=1e-12", "--set", "trials=1",
        ))
        assert message.startswith("count must be at most 2**63 - 1, got ")

    def test_generate_count_past_int64_exits_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "gen.json", {**TestUsage.SCCS_GENERATE, "count": 10**20})
        message = _diagnostic(*run_cli(capsys, "generate", "--config", cfg))
        assert message == "count must lie in [1, 2**63 - 1], got 100000000000000000000"

    def test_iv_size_past_the_float_range_exits_2(self, capsys):
        size = 10**400
        message = _diagnostic(*run_cli(
            capsys, "verify", "--config", str(CONFIGS / "iv_verify.json"),
            "--set", "trials=2", "--set", f"sample_size={size}",
        ))
        assert message == f"count must be at most {sys.float_info.max!r}, got {size}"

    @pytest.mark.parametrize("command, name, override, message", [
        ("verify", "iv_verify", f"master_seed={2**64}",
         "master_seed must fit in an unsigned 64-bit word"),
        ("verify", "iv_verify", f"stream_base={2**64 - 2}",
         "stream_base + trials - 1 must fit in an unsigned 64-bit word"),
        ("sweep", "sccs_sweep", f"stream_base={2**64 - 8}",
         "sweep rejected; assumption-violating grid points:\n"
         "grid point 2: stream_base + trials - 1 must fit in an unsigned 64-bit word"),
    ], ids=["master_seed", "stream_base", "sweep_point"])
    def test_stream_ids_past_64_bits_exit_2_before_any_trial(
        self, capsys, no_trial_may_run, command, name, override, message
    ):
        assert _diagnostic(*run_cli(
            capsys, command, "--config", str(CONFIGS / f"{name}.json"),
            "--set", override, "--set", "trials=3",
        )).endswith(message)
        assert no_trial_may_run == []

    # Record draws past numpy's array limit of 2**63 - 1 bytes; nothing is drawn.
    ARRAY_LIMIT = "bytes, past numpy's array limit of 9223372036854775807 bytes"

    @pytest.mark.parametrize("command, name", [("verify", "iv_verify"), ("sweep", None)])
    def test_iv_block_past_the_array_limit_exits_2_before_any_trial(
        self, capsys, no_trial_may_run, tmp_path, command, name
    ):
        # 2**62 trials' normals, three a trial, take 2**62 * 24 bytes.
        config = json.loads((CONFIGS / "iv_verify.json").read_text())
        if command == "sweep":
            generator = config.pop("generator")
            config["grid"] = [generator, {**generator, "conf_y": 0.5}]
        cfg = write_json(tmp_path / "cfg.json", {**config, "trials": 2**62})
        message = _diagnostic(*run_cli(capsys, command, "--config", cfg))
        assert message.endswith(
            f"drawing {2**62} x 3 float64 values takes {24 * 2**62} " + self.ARRAY_LIMIT
        )
        if command == "sweep":
            assert message.startswith("sweep rejected; assumption-violating grid points:\n"
                                      "grid point 0: drawing")
        assert no_trial_may_run == []

    def test_propensity_records_past_the_array_limit_exit_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "gen.json", {
            "method": "propensity", "count": 10**18, "master_seed": 1,
            "generator": {**PS_GENERATOR, "effect": 0.0},
        })
        assert _diagnostic(*run_cli(capsys, "generate", "--config", cfg)) == (
            f"drawing {10**18} x 3 float64 values takes {24 * 10**18} " + self.ARRAY_LIMIT
        )

    def test_iv_records_past_the_array_limit_exit_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "gen.json", {
            "method": "iv2sls", "count": 2**62, "master_seed": 1,
            "generator": {"alpha": 1.0, "conf_z": 1.0},
        })
        assert _diagnostic(*run_cli(capsys, "generate", "--config", cfg)) == (
            f"drawing {2**62} x 1 float64 values takes {2**65} " + self.ARRAY_LIMIT
        )

    def test_propensity_trial_records_past_the_array_limit_exit_2(self, capsys, tmp_path,
                                                                  no_trial_may_run):
        # Past 20 covariates a trial draws N1 + N2 records: about 7.7e16 here.
        n = 21
        cfg = write_json(tmp_path / "cfg.json", {
            "method": "propensity", "truth": "M2", "epsilon": 8e-7,
            "concept": {"delta": 0.8}, "sample_size": "auto", "trials": 2, "master_seed": 1,
            "generator": {
                "n_covariates": n, "treat_weights": [0.01] * n, "treat_bias": 0.0,
                "positivity_floor": 0.2, "outcome_base": 0.05,
                "confound_weights": [0.001] * n,
            },
        })
        message = _diagnostic(*run_cli(capsys, "verify", "--config", cfg))
        pattern = r"drawing \d+ x 21 float64 values takes \d+ " + re.escape(self.ARRAY_LIMIT)
        assert re.fullmatch(pattern, message)
        assert no_trial_may_run == []

    def test_memory_error_exits_3(self, capsys):
        # The block's normals, 3e17 x 3 float64 values (6.25 EiB), are within
        # numpy's array limit but past any machine's address space, so the
        # allocation fails at once.
        code, out, err = run_cli(capsys, "verify", "--config", str(CONFIGS / "iv_verify.json"),
                                 "--set", f"trials={3 * 10**17}")
        assert code == 3
        assert out == ""
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "MemoryError"
        assert diagnostic["message"].startswith("Unable to allocate 6.25 EiB")


COMMANDS = ("samplesize", "generate", "estimate", "decide", "verify", "sweep")


def _readme_flags() -> dict[str, list[str]]:
    """The README's CLI table: each command (``samplesize`` with its method)
    and the flags it takes."""
    rows = README.read_text().split("\n| command | flags |\n| --- | --- |\n", 1)[1]
    table = {}
    for line in rows.split("\n\n", 1)[0].splitlines():
        _, commands, flags, _ = line.split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = flags.strip().strip("`").split()
    return table


README_FLAGS = _readme_flags()


class TestParser:
    """A well-formed command builds no argparse parser, any other builds
    only its own, and what a user sees of the parser is what the README
    says."""

    @staticmethod
    def _iv_config(tmp_path, command):
        """A 3-trial IV config file for ``verify``, or as a one-point grid
        for ``sweep``."""
        config = {**IV_VERIFY_CONFIG, "trials": 3}
        if command == "sweep":
            config["grid"] = [config.pop("generator")]
        return write_json(tmp_path / "cfg.json", config)

    def test_readme_table_covers_every_command(self):
        assert {command.split()[0] for command in README_FLAGS} == set(COMMANDS)

    def test_help_lists_every_command(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0 and err == ""
        listed = dict(re.findall(r"^    (\S+) +(.+)$", out, re.M))
        assert listed == {
            "samplesize": "evaluate a method's sample-size bound",
            **{name: f"run the {name} command" for name in COMMANDS[1:]},
        }

    @pytest.mark.parametrize("command", sorted(README_FLAGS))
    def test_command_help_shows_exactly_its_flags(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split(), "--help")
        assert code == 0 and err == ""
        assert out.startswith(f"usage: pacc {command} [-h]")
        shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out)) - {"--help"}
        assert shown == set(README_FLAGS[command])

    def test_samplesize_help_lists_the_readme_methods(self, capsys):
        code, out, _ = run_cli(capsys, "samplesize", "--help")
        assert code == 0
        methods = re.search(r"\{([a-z,]+)\}", out).group(1).split(",")
        assert methods == [c.split()[1] for c in README_FLAGS if c.startswith("samplesize ")]

    def test_no_arguments_exits_2(self, capsys):
        message = _diagnostic(*run_cli(capsys))
        assert message == "the following arguments are required: command"

    @pytest.mark.parametrize("name", ["foo", "verif", "Verify"])
    def test_unknown_command_exits_2_naming_all_six(self, capsys, name):
        message = _diagnostic(*run_cli(capsys, name, "--config", "x.json"))
        prefix = f"argument command: invalid choice: {name!r} (choose from "
        assert message.startswith(prefix)
        assert re.findall(r"[a-z]+", message[len(prefix):]) == list(COMMANDS)

    @staticmethod
    def _count_parsers(monkeypatch) -> list:
        """The prog of every argparse parser built from now on."""
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_a_well_formed_command_builds_no_parser(self, capsys, tmp_path, monkeypatch,
                                                    command):
        built = self._count_parsers(monkeypatch)
        code, out, err = run_cli(
            capsys, command, "--config", self._iv_config(tmp_path, command), "--seed", "5",
            "--set", "trials=2", "--threads", "2", "--format", "json",
        )
        assert code in (0, 1) and json.loads(out)["kind"], err
        assert built == []

    def test_help_and_usage_errors_build_the_parsers(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        built = self._count_parsers(monkeypatch)
        all_parsers = [
            "pacc", "pacc samplesize", "pacc samplesize sccs", "pacc samplesize propensity",
            "pacc samplesize iv", *(f"pacc {name}" for name in COMMANDS[1:]),
        ]
        code, out, err = run_cli(capsys, "verify", "--help")
        assert (code, err) == (0, "")
        assert out == (
            "usage: pacc verify [-h] [--config CONFIG] [--seed SEED] [--out OUT]\n"
            "                   [--set PATH=VALUE] [--format {json,csv}]\n"
            "                   [--threads THREADS]\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --config CONFIG      JSON config file\n"
            "  --seed SEED          override the master seed\n"
            "  --out OUT            output path\n"
            "  --set PATH=VALUE     override a config field by dotted path (repeatable)\n"
            "  --format {json,csv}\n"
            "  --threads THREADS    accepted for compatibility; trials run on one thread\n"
        )
        assert built == all_parsers
        built.clear()
        assert _diagnostic(*run_cli(capsys, "foo")) == (
            "argument command: invalid choice: 'foo' (choose from 'samplesize', "
            "'generate', 'estimate', 'decide', 'verify', 'sweep')"
        )
        assert built == all_parsers
        built.clear()
        message = _diagnostic(*run_cli(capsys, "verify", "--config", "x.json", "--bogus"))
        assert message == "unrecognized arguments: --bogus"
        assert built == all_parsers

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_1_names_the_flag(self, capsys, tmp_path, command, threads):
        cfg = self._iv_config(tmp_path, command)
        message = _diagnostic(*run_cli(capsys, command, "--config", cfg, "--threads", threads))
        assert message == f"--threads must be at least 1, got {threads}"


def _argparse_namespace(argv):
    """What the argparse parser gives ``argv``, or None when it exits or
    raises a usage error; help and usage text are swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except (cli.CliError, SystemExit):
            return None


def _items(namespace) -> str:
    # repr tells 5 from 5.0 and keeps nan equal to nan; the order of the
    # items is the order of a samplesize payload's keys.
    return repr(list(vars(namespace).items()))


_TABLES = {
    **{(name,): flags for name, flags in cli._FLAGS.items() if name != "samplesize"},
    **{("samplesize", m): flags for m, flags in cli._FLAGS["samplesize"].items()},
}
_ALL_FLAGS = sorted({row[0] for flags in _TABLES.values() for row in flags})
_VALUES = st.one_of(
    st.sampled_from([
        "1", "0", "-1", "2.5", "1e-3", "nan", "inf", "", " 7", "1_000", "json", "csv",
        "xml", "x.json", "trials=2", "-", "1" * 5000,
    ]),
    st.integers().map(str),
    st.floats().map(str),
    st.text(max_size=4),
)
_FLAG_TOKENS = st.one_of(
    st.sampled_from(_ALL_FLAGS),
    st.builds(lambda flag, cut: flag[:cut], st.sampled_from(_ALL_FLAGS), st.integers(3, 8)),
    st.builds("{}={}".format, st.sampled_from(_ALL_FLAGS), _VALUES),
    st.sampled_from(["-h", "--help", "--", "--bogus"]),
)


def _required(flags) -> list:
    """Each required flag of a table, set to 1."""
    return [token for flag, _, default, _ in flags if default is cli._REQUIRED
            for token in (flag, "1")]


# A command head with the rows of its table: each command, each samplesize
# method with its required flags set to 1, a method without them, an
# unknown name and nothing.
_HEADS = [
    *(([*head, *_required(flags)], flags) for head, flags in _TABLES.items()),
    (["samplesize", "sccs"], _TABLES["samplesize", "sccs"]),
    (["samplesize"], ()), (["verif"], ()), (["foo"], ()), ([], ()),
]


def _valid_values(kind):
    """Values the flag's converter or choices accept."""
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return st.one_of(st.integers(0).map(str), st.sampled_from([" 7", "1_000", "+3"]))
    if kind is float:
        return st.one_of(st.floats(0).map(str), st.sampled_from(["nan", "1e-3", " 2", "0_5"]))
    return st.one_of(st.sampled_from(["x.json", "trials=2", ""]), st.text(max_size=4).filter(
        lambda text: not text.startswith("-")))


@st.composite
def _argvs(draw):
    """A head and up to five flags of its own table, each with a value
    unless it is a switch, the value mostly one its converter accepts; half
    of them get one more chunk somewhere: any flag with a value, a
    flag-like token or a value alone."""
    head, rows = draw(st.sampled_from(_HEADS))
    tokens = []
    for flag, kind, _, _ in draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else ():
        if kind is bool:
            tokens.append(flag)
        else:
            tokens += [flag, draw(st.one_of(_valid_values(kind), _valid_values(kind), _VALUES))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = draw(st.one_of(
            st.tuples(st.sampled_from(_ALL_FLAGS), _VALUES),
            st.tuples(_FLAG_TOKENS),
            st.tuples(_VALUES),
        ))
    return head + tokens


class TestTableParser:
    """``parse_flags`` parses a well-formed command exactly as argparse
    would, and leaves everything else to argparse."""

    @settings(max_examples=600, deadline=None)
    @given(argv=_argvs())
    def test_agrees_with_argparse(self, argv):
        fast = cli.parse_flags(argv)
        slow = _argparse_namespace(argv)
        if slow is None:
            assert fast is None
        elif fast is not None:
            assert _items(fast) == _items(slow)

    @pytest.mark.parametrize("argv", [
        ["verify", "--config", "configs/iv_verify.json", "--threads", "2"],
        ["sweep", "--config", "c.json", "--seed", "7", "--set", "trials=3", "--set",
         "epsilon=0.2", "--seed", "8", "--format", "csv", "--out", "r.csv"],
        ["generate", "--include-hidden", "--format", "json", "--include-hidden"],
        ["estimate"],
        ["decide", "--config", "", "--out", "d.json"],
        ["samplesize", "iv", "--delta", "0.5", "--epsilon", "nan", "--alpha", " 2"],
        ["samplesize", "sccs", "--epsilon", "0.1", "--delta", "inf", "--lambda-floor", "1e-3"],
        ["samplesize", "propensity", "--n-covariates", "1_0", "--epsilon", "1", "--delta", "1"],
    ])
    def test_well_formed_commands_skip_argparse(self, argv):
        fast = cli.parse_flags(argv)
        assert fast is not None
        assert _items(fast) == _items(_argparse_namespace(argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["verify", "-h"], ["verify", "--help"], ["samplesize", "iv", "--help"],
        ["verify", "--conf", "c.json"], ["verify", "--config=c.json"], ["verify", "--"],
        ["verify", "--threads", "-2"], ["verify", "--seed", "x"], ["verify", "--format", "xml"],
        ["verify", "--config"], ["verify", "c.json"], ["decide", "--threads", "2"],
        ["samplesize"], ["samplesize", "sccs", "--epsilon", "0.1", "--delta", "2"],
        ["foo"], ["Verify"],
    ])
    def test_everything_else_goes_to_argparse(self, argv):
        assert cli.parse_flags(argv) is None
