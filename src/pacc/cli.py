"""Command-line surface.

Subcommands: samplesize | generate | estimate | decide | verify | sweep.
Configs are JSON files; scalar fields can be overridden on the command
line with repeated ``--set dotted.path=value`` flags, and ``--seed``
overrides the master seed. Each subcommand takes only the flags it
reads. stdout carries the payload JSON, stderr a structured diagnostic
on failure.

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
from pacc.core import (
    InsufficientDataError,
    InvalidArgumentError,
    Method,
    PaccError,
    real_number,
    split_stream,
    whole_number,
)
from pacc.harness import (
    METHODS,
    MethodSpec,
    Report,
    TrialSpec,
    adversarial_sweep,
    generator_params_from_dict,
    verify,
    write_report,
)
from pacc.iv2sls import iv_sample_size
from pacc.propensity import ps_sample_sizes
from pacc.sccs import sccs_sample_size

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


def _apply_overrides(config: dict, overrides: list[str]) -> None:
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


def _load_config(args: argparse.Namespace) -> dict:
    if not args.config:
        raise CliError(_EXIT_USAGE, "this command requires --config PATH")
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(_EXIT_USAGE, f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(_EXIT_USAGE, f"malformed JSON config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError(_EXIT_USAGE, "config root must be a JSON object")
    _apply_overrides(config, args.set or [])
    if args.seed is not None:
        config["master_seed"] = args.seed
    return config


def _config_value(config: dict, key: str, caster):
    if key not in config:
        raise CliError(_EXIT_USAGE, f"config is missing required field {key!r}")
    try:
        return caster(config[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(_EXIT_USAGE, f"config field {key!r}: {exc}") from exc


def _config_whole(config: dict, key: str) -> int:
    return _config_value(config, key, lambda value: whole_number(value, key))


def _config_real(config: dict, key: str) -> float:
    return _config_value(config, key, lambda value: real_number(value, key))


def _build(factory, what: str):
    """Run a constructor in the config phase: validation failures are usage
    errors, and so is a list or number where the reader expects an object."""
    try:
        return factory()
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
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


def _method(config: dict) -> tuple[str, MethodSpec]:
    name = _config_value(config, "method", str)
    try:
        return name, METHODS[Method(name)]
    except ValueError:
        raise CliError(_EXIT_USAGE, f"unknown method {name!r}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    name, method = _method(config)
    count = _config_whole(config, "count")
    seed = _config_whole(config, "master_seed")
    if count < 1:
        raise CliError(_EXIT_USAGE, "count must be at least 1")
    block = config.get("generator")
    if not isinstance(block, dict):
        raise CliError(_EXIT_USAGE, "config needs a 'generator' object")
    params = _build(lambda: method.parse_generator(block), "generator params")
    fmt = args.format or method.formats[0]
    if fmt not in method.formats:
        raise CliError(
            _EXIT_USAGE, f"{name} datasets serialise to {method.formats[0].upper()} only"
        )
    if args.include_hidden and not method.hidden_column:
        raise CliError(_EXIT_USAGE, f"{name} datasets have no hidden column")
    dataset = method.generate(params, count, split_stream(seed, GENERATE_STREAM_ID))
    text = method.write(dataset, fmt, args.include_hidden)
    if args.out:
        Path(args.out).write_text(text)
        _emit({"method": name, "count": count, "written": args.out})
    else:
        sys.stdout.write(text)
    return 0


def _read_dataset(method: MethodSpec, config: dict):
    path = _config_value(config, "input", str)
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(_EXIT_RUNTIME, f"cannot read input {path}: {exc}") from exc
    fmt = "json" if path.endswith(".json") else "csv"
    try:
        return method.read(text, fmt)
    except (PaccError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(_EXIT_RUNTIME, f"cannot parse input {path}: {exc}") from exc


def _apply_rule(method: MethodSpec, config: dict, decide: bool):
    """Run the method's ``decide`` (or ``estimate``) on the input dataset,
    the delta, the epsilon and the decide stream; config fields the rule
    does not read are None. An input too short for the rule is a data
    error."""
    delta = epsilon = rng = None
    if decide or method.decide_stream:
        delta = _config_real(config, "delta")
    if method.decide_stream:
        epsilon = _config_real(config, "epsilon")
        rng = split_stream(_config_whole(config, "master_seed"), DECIDE_STREAM_ID)
    dataset = _read_dataset(method, config)
    rule = method.decide if decide else method.estimate
    try:
        return rule(dataset, delta, epsilon, rng)
    except InsufficientDataError as exc:
        raise CliError(_EXIT_RUNTIME, f"cannot use input {config['input']}: {exc}") from exc


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    _, method = _method(config)
    payload = _apply_rule(method, config, decide=False)
    _emit(payload)
    if args.out:
        Path(args.out).write_text(_jsonio.dumps(payload))
    return 0


def cmd_decide(args: argparse.Namespace) -> int:
    config = _load_config(args)
    name, method = _method(config)
    decision = _apply_rule(method, config, decide=True)
    payload = {"method": name, "decision": decision.to_dict()}
    _emit(payload)
    if args.out:
        Path(args.out).write_text(_jsonio.dumps(payload))
    return 0


def _emit_report(report: Report, args: argparse.Namespace) -> int:
    """Print the JSON report; with ``--out`` also write it, reusing the
    printed text for JSON. Returns the exit code."""
    text = _jsonio.dumps(report.to_dict())
    sys.stdout.write(text)
    if args.out and args.format == "csv":
        write_report(report, args.out, format="csv")
    elif args.out:
        Path(args.out).write_text(text)
    return 0 if report.passed else _EXIT_VERIFY_FAIL


def cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = _build(lambda: TrialSpec.from_dict(config), "trial spec")
    return _emit_report(verify(spec, workers=args.threads), args)


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
    return _emit_report(adversarial_sweep(base, grid, workers=args.threads), args)


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

    for name in ("generate", "estimate", "decide", "verify", "sweep"):
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output path")
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="override a config field by dotted path (repeatable)",
        )
        if name in ("generate", "verify", "sweep"):
            p.add_argument("--format", choices=["json", "csv"], default=None)
        if name == "generate":
            p.add_argument("--include-hidden", action="store_true")
        if name in ("verify", "sweep"):
            p.add_argument("--threads", type=int, default=1, help="worker threads")
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
