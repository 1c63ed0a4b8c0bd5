"""Command-line surface.

Subcommands: samplesize | generate | estimate | decide | verify | sweep.
Configs are JSON files; scalar fields can be overridden on the command
line with repeated ``--set dotted.path=value`` flags, and ``--seed``
overrides the master seed. stdout carries the payload JSON, stderr a
structured diagnostic on failure.

Exit codes: 0 success or verification pass, 1 verification fail,
2 usage or config error, 3 runtime or data error.

All randomness flows from one master seed: stream id 0 is used for data
generation and stream id 1 for decision-stage randomness (the rejection
sampler), so a generate / estimate / decide file chain reproduces the
corresponding in-process pipeline exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from pacc import _jsonio
from pacc.core import InvalidArgumentError, PaccError, split_stream
from pacc.harness import (
    AUTO,
    TrialSpec,
    adversarial_sweep,
    generator_params_from_dict,
    verify,
    write_report,
)
from pacc.iv2sls import (
    IvDataset,
    IvParams,
    generate_iv,
    iv_decide,
    iv_sample_size,
    two_sls,
)
from pacc.propensity import (
    ObsDataset,
    PsParams,
    generate_obs,
    ps_decide,
    ps_pipeline,
    ps_sample_sizes,
)
from pacc.sccs import (
    SccsDataset,
    SccsDesign,
    SccsParams,
    generate_sccs,
    sccs_decide,
    sccs_mle_closed,
    sccs_sample_size,
)

GENERATE_STREAM_ID = 0
DECIDE_STREAM_ID = 1

_EXIT_VERIFY_FAIL = 1
_EXIT_USAGE = 2
_EXIT_RUNTIME = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(payload: dict) -> None:
    sys.stdout.write(_jsonio.dumps(payload))


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise CliError(_EXIT_USAGE, f"--set expects dotted.path=value, got {text!r}")
    path, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path.split("."), value


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides:
        keys, value = _parse_override(item)
        node = config
        for key in keys[:-1]:
            nxt = node.get(key)
            if not isinstance(nxt, dict):
                nxt = {}
                node[key] = nxt
            node = nxt
        node[keys[-1]] = value
    return config


def _load_config(args: argparse.Namespace) -> dict:
    if not args.config:
        raise CliError(_EXIT_USAGE, "this command requires --config PATH")
    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise CliError(_EXIT_USAGE, f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(_EXIT_USAGE, f"malformed JSON config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError(_EXIT_USAGE, "config root must be a JSON object")
    _apply_overrides(config, args.set or [])
    if args.seed is not None:
        config["master_seed"] = args.seed
    return config


def _config_value(config: dict, key: str, caster, required: bool = True, default=None):
    if key not in config:
        if required:
            raise CliError(_EXIT_USAGE, f"config is missing required field {key!r}")
        return default
    try:
        return caster(config[key])
    except (TypeError, ValueError) as exc:
        raise CliError(_EXIT_USAGE, f"config field {key!r}: {exc}") from exc


def _build(factory, what: str):
    """Run a constructor in the config phase: validation failures are usage errors."""
    try:
        return factory()
    except (InvalidArgumentError, KeyError, TypeError, ValueError) as exc:
        raise CliError(_EXIT_USAGE, f"invalid {what}: {exc}") from exc


def cmd_samplesize(args: argparse.Namespace) -> int:
    try:
        if args.method == "sccs":
            n = sccs_sample_size(args.epsilon, args.delta, args.lambda_floor)
            payload = {
                "method": "sccs",
                "epsilon": args.epsilon,
                "delta": args.delta,
                "lambda_floor": args.lambda_floor,
                "sample_size": n,
            }
        elif args.method == "propensity":
            sizes = ps_sample_sizes(args.epsilon, args.delta, args.n_covariates)
            payload = {
                "method": "propensity",
                "epsilon": args.epsilon,
                "delta": args.delta,
                "n_covariates": args.n_covariates,
                **sizes.to_dict(),
                "sample_size": sizes.total,
            }
        else:
            n = iv_sample_size(
                args.epsilon,
                args.delta,
                args.sigma_dy2,
                args.sigma_dz2,
                args.alpha,
                args.sigma_d2,
            )
            payload = {
                "method": "iv2sls",
                "epsilon": args.epsilon,
                "delta": args.delta,
                "sigma_dy2": args.sigma_dy2,
                "sigma_dz2": args.sigma_dz2,
                "alpha": args.alpha,
                "sigma_d2": args.sigma_d2,
                "sample_size": n,
            }
    except InvalidArgumentError as exc:
        raise CliError(_EXIT_USAGE, str(exc)) from exc
    _emit(payload)
    return 0


def _generator_objects(method: str, config: dict):
    block = config.get("generator")
    if not isinstance(block, dict):
        raise CliError(_EXIT_USAGE, "config needs a 'generator' object")
    if method == "sccs":
        design = _build(lambda: SccsDesign.from_dict(block["design"]), "design")
        params = _build(lambda: SccsParams.from_dict(block["params"]), "generator params")
        return design, params
    if method == "propensity":
        return _build(lambda: PsParams.from_dict(block), "generator params")
    return _build(lambda: IvParams.from_dict(block), "generator params")


def cmd_generate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    method = _config_value(config, "method", str)
    count = _config_value(config, "count", int)
    seed = _config_value(config, "master_seed", int)
    if count < 1:
        raise CliError(_EXIT_USAGE, "count must be at least 1")
    rng = split_stream(seed, GENERATE_STREAM_ID)

    if method == "sccs":
        design, params = _generator_objects(method, config)
        if args.format == "csv":
            raise CliError(_EXIT_USAGE, "case-series datasets serialise to JSON only")
        dataset = generate_sccs(design, params, count, rng)
        text = _jsonio.dumps(dataset.to_dict())
    elif method == "propensity":
        params = _generator_objects(method, config)
        dataset = generate_obs(params, count, rng)
        text = (
            _jsonio.dumps(dataset.to_json_obj())
            if args.format == "json"
            else dataset.to_csv()
        )
    elif method == "iv2sls":
        params = _generator_objects(method, config)
        if args.format == "json":
            raise CliError(_EXIT_USAGE, "instrument datasets serialise to CSV only")
        dataset = generate_iv(params, count, rng)
        text = dataset.to_csv(include_hidden=args.include_hidden)
    else:
        raise CliError(_EXIT_USAGE, f"unknown method {method!r}")

    if args.out:
        Path(args.out).write_text(text)
        _emit({"method": method, "count": count, "written": args.out})
    else:
        sys.stdout.write(text)
    return 0


def _read_dataset(method: str, config: dict):
    path = _config_value(config, "input", str)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(_EXIT_RUNTIME, f"cannot read input {path}: {exc}") from exc
    fmt = config.get("input_format") or ("json" if path.endswith(".json") else "csv")
    try:
        if method == "sccs":
            return SccsDataset.from_dict(json.loads(text))
        if method == "propensity":
            if fmt == "json":
                return ObsDataset.from_json_obj(json.loads(text))
            return ObsDataset.from_csv(text)
        return IvDataset.from_csv(text)
    except (json.JSONDecodeError, PaccError, KeyError, TypeError, ValueError) as exc:
        raise CliError(_EXIT_RUNTIME, f"cannot parse input {path}: {exc}") from exc


def _estimate_payload(args: argparse.Namespace, config: dict, method: str) -> dict:
    dataset = _read_dataset(method, config)
    if method == "sccs":
        return {
            "method": "sccs",
            "estimator": "closed_form",
            "statistic": sccs_mle_closed(dataset),
            "nu1": dataset.nu1,
            "nu2": dataset.nu2,
        }
    if method == "iv2sls":
        est = two_sls(dataset)
        return {"method": "iv2sls", "statistic": est.beta_hat, **est.to_dict()}
    delta = _config_value(config, "delta", float)
    epsilon = _config_value(config, "epsilon", float)
    seed = _config_value(config, "master_seed", int)
    rng = split_stream(seed, DECIDE_STREAM_ID)
    result = ps_pipeline(dataset, delta, rng, epsilon)
    return {
        "method": "propensity",
        "statistic": result.ate,
        "survivors": result.survivors,
        "sizes": result.sizes.to_dict(),
        "model": result.model.to_dict(),
    }


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    method = _config_value(config, "method", str)
    payload = _estimate_payload(args, config, method)
    _emit(payload)
    if args.out:
        Path(args.out).write_text(_jsonio.dumps(payload))
    return 0


def cmd_decide(args: argparse.Namespace) -> int:
    config = _load_config(args)
    method = _config_value(config, "method", str)
    delta = _config_value(config, "delta", float)
    dataset = _read_dataset(method, config)
    if method == "sccs":
        decision = sccs_decide(dataset, delta)
    elif method == "iv2sls":
        decision = iv_decide(dataset, delta)
    elif method == "propensity":
        epsilon = _config_value(config, "epsilon", float)
        seed = _config_value(config, "master_seed", int)
        rng = split_stream(seed, DECIDE_STREAM_ID)
        decision = ps_decide(dataset, delta, rng, epsilon)
    else:
        raise CliError(_EXIT_USAGE, f"unknown method {method!r}")
    payload = {"method": method, "decision": decision.to_dict()}
    _emit(payload)
    if args.out:
        Path(args.out).write_text(_jsonio.dumps(payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = _build(lambda: TrialSpec.from_dict(config), "trial spec")
    report = verify(spec, workers=args.threads)
    _emit(report.to_dict())
    if args.out:
        write_report(report, args.out, format=args.format or "json")
    return 0 if report.passed else _EXIT_VERIFY_FAIL


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    grid_dicts = config.get("grid")
    if not isinstance(grid_dicts, list) or not grid_dicts:
        raise CliError(_EXIT_USAGE, "sweep config needs a nonempty 'grid' array")
    base_config = {k: v for k, v in config.items() if k != "grid"}
    base_config.setdefault("generator", grid_dicts[0])
    base = _build(lambda: TrialSpec.from_dict(base_config), "trial spec")
    grid = _build(
        lambda: tuple(
            generator_params_from_dict(base.method, g) for g in grid_dicts
        ),
        "sweep grid",
    )
    report = adversarial_sweep(base, grid, workers=args.threads)
    _emit(report.to_dict())
    if args.out:
        write_report(report, args.out, format=args.format or "json")
    return 0 if report.passed else _EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacc",
        description="Simulate, decide, and certify PACC causal discovery procedures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    size = sub.add_parser("samplesize", help="evaluate a method's sample-size bound")
    size_sub = size.add_subparsers(dest="method", required=True)
    sccs_p = size_sub.add_parser("sccs")
    sccs_p.add_argument("--epsilon", type=float, required=True)
    sccs_p.add_argument("--delta", type=float, required=True)
    sccs_p.add_argument("--lambda-floor", dest="lambda_floor", type=float, required=True)
    ps_p = size_sub.add_parser("propensity")
    ps_p.add_argument("--epsilon", type=float, required=True)
    ps_p.add_argument("--delta", type=float, required=True)
    ps_p.add_argument("--n-covariates", dest="n_covariates", type=int, required=True)
    iv_p = size_sub.add_parser("iv")
    iv_p.add_argument("--epsilon", type=float, required=True)
    iv_p.add_argument("--delta", type=float, required=True)
    iv_p.add_argument("--sigma-dy2", dest="sigma_dy2", type=float, default=1.0)
    iv_p.add_argument("--sigma-dz2", dest="sigma_dz2", type=float, default=1.0)
    iv_p.add_argument("--alpha", type=float, default=1.0)
    iv_p.add_argument("--sigma-d2", dest="sigma_d2", type=float, default=1.0)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output path")
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        p.add_argument("--include-hidden", action="store_true")
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="override a config field by dotted path (repeatable)",
        )

    for name, _ in _COMMANDS.items():
        if name == "samplesize":
            continue
        add_common(sub.add_parser(name, help=f"run the {name} command"))
    return parser


_COMMANDS = {
    "samplesize": cmd_samplesize,
    "generate": cmd_generate,
    "estimate": cmd_estimate,
    "decide": cmd_decide,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except CliError as exc:
        _diagnose("CliError", str(exc))
        return exc.code
    except InvalidArgumentError as exc:
        _diagnose(type(exc).__name__, str(exc))
        return _EXIT_USAGE
    except PaccError as exc:
        _diagnose(type(exc).__name__, str(exc))
        return _EXIT_RUNTIME
    except OSError as exc:
        _diagnose(type(exc).__name__, str(exc))
        return _EXIT_RUNTIME


def _diagnose(kind: str, message: str) -> None:
    sys.stderr.write(_jsonio.dumps({"error": kind, "message": message}))


if __name__ == "__main__":
    sys.exit(main())
