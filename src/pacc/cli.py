"""Command-line surface.

Subcommands: samplesize | generate | estimate | decide | verify | sweep.
Configs are JSON files; scalar fields can be overridden on the command
line with repeated ``--set dotted.path=value`` flags, and ``--seed``
overrides the master seed. Each subcommand takes only the flags it
reads, all listed in one table, ``_FLAGS``. ``main`` parses a
well-formed command line from that table alone; help, abbreviations,
``--flag=value``, ``--`` and every usage error go to the argparse parser
that ``build_parser`` builds from the same table, and only then is
argparse imported, so abbreviations and ``--flag=value`` keep working.
stdout carries the payload JSON, stderr a structured diagnostic on
failure.

Exit codes: 0 success or verification pass, 1 verification fail,
2 usage or config error, 3 runtime or data error (an allocation too
large for memory included).

All randomness flows from one master seed: stream id 0 is used for data
generation and stream id 1 for decision-stage randomness (the rejection
sampler), so a generate / estimate / decide file chain reproduces the
corresponding in-process pipeline exactly.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from pacc import _jsonio
from pacc.core import (
    InsufficientDataError,
    InvalidArgumentError,
    Method,
    PaccError,
    error_text,
    json_string,
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
    report_json,
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


def _emit(payload: dict, out: str | None = None) -> None:
    """Print the payload's JSON; with ``out``, also write that text there."""
    text = _jsonio.dumps(payload)
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise CliError(_EXIT_USAGE, f"--set expects dotted.path=value, got {text!r}")
    path, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except (ValueError, RecursionError) as exc:  # a huge int, deep nesting
        raise CliError(_EXIT_USAGE, f"--set {path}: {exc}") from exc
    return path.split("."), value


def _apply_overrides(config: dict, overrides: list[str]) -> None:
    """Set each dotted path. A list on the path is entered by a whole-number
    index; an object missing from the path is created."""
    for item in overrides:
        keys, value = _parse_override(item)
        node = config
        for depth, key in enumerate(keys):
            if isinstance(node, list):
                key = _list_index(node, key, item)
            if depth == len(keys) - 1:
                node[key] = value
                break
            child = node.get(key) if isinstance(node, dict) else node[key]
            if not isinstance(child, (dict, list)):
                child = node[key] = {}
            node = child


def _list_index(node: list, key: str, item: str) -> int:
    if key.isascii() and key.isdigit() and int(key) < len(node):
        return int(key)
    raise CliError(
        _EXIT_USAGE,
        f"--set {item}: {key!r} is not an index of a list of {len(node)} entries",
    )


def _load_config(args: SimpleNamespace) -> dict:
    if not args.config:
        raise CliError(_EXIT_USAGE, "this command requires --config PATH")
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(_EXIT_USAGE, f"cannot read config {args.config}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise CliError(_EXIT_USAGE, f"malformed JSON config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError(_EXIT_USAGE, "config root must be a JSON object")
    _apply_overrides(config, args.set or [])
    if args.seed is not None:
        config["master_seed"] = args.seed
    return config


def _config_value(config: dict, key: str, reader):
    """Config field ``key`` as ``reader(value, key)`` reads it, or a usage error."""
    if key not in config:
        raise CliError(_EXIT_USAGE, f"config is missing required field {key!r}")
    try:
        return reader(config[key], key)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(_EXIT_USAGE, f"config field {key!r}: {exc}") from exc


def _build(factory, what: str):
    """Run a constructor in the config phase: validation failures are usage
    errors, and so is a list or number where the reader expects an object."""
    try:
        return factory()
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(_EXIT_USAGE, f"invalid {what}: {error_text(exc)}") from exc


def cmd_samplesize(args: SimpleNamespace) -> int:
    # Each flag's dest is the bound's parameter name and its payload key.
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "method")}
    try:
        if args.method == "propensity":
            sizes = ps_sample_sizes(**flags)
            result = {**sizes.to_dict(), "sample_size": sizes.total}
        else:
            bound = sccs_sample_size if args.method == "sccs" else iv_sample_size
            result = {"sample_size": bound(**flags)}
    except InvalidArgumentError as exc:
        raise CliError(_EXIT_USAGE, str(exc)) from exc
    _emit({"method": "iv2sls" if args.method == "iv" else args.method, **flags, **result})
    return 0


def _method(config: dict) -> tuple[str, MethodSpec]:
    name = _config_value(config, "method", json_string)
    try:
        return name, METHODS[Method(name)]
    except ValueError:
        raise CliError(_EXIT_USAGE, f"unknown method {name!r}") from None


def cmd_generate(args: SimpleNamespace) -> int:
    config = _load_config(args)
    name, method = _method(config)
    count = _config_value(config, "count", whole_number)
    seed = _config_value(config, "master_seed", whole_number)
    if not 1 <= count <= 2**63 - 1:
        raise CliError(_EXIT_USAGE, f"count must lie in [1, 2**63 - 1], got {count}")
    block = config.get("generator")
    if not isinstance(block, dict):
        raise CliError(_EXIT_USAGE, "config needs a 'generator' object")
    params = _build(lambda: method.params_type.from_dict(block), "generator params")
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
    path = _config_value(config, "input", json_string)
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(_EXIT_RUNTIME, f"cannot read input {path}: {exc}") from exc
    fmt = "json" if path.endswith(".json") else "csv"
    try:
        return method.read(text, fmt)
    except (PaccError, KeyError, TypeError, ValueError, OverflowError, RecursionError,
            csv.Error) as exc:
        raise CliError(_EXIT_RUNTIME, f"cannot parse input {path}: {error_text(exc)}") from exc


def _apply_rule(method: MethodSpec, config: dict, decide: bool):
    """Run the method's ``decide`` (or ``estimate``) on the input dataset,
    the delta, the epsilon and the decide stream; config fields the rule
    does not read are None. An input too short for the rule is a data
    error."""
    delta = epsilon = rng = None
    if decide or method.decide_stream:
        delta = _config_value(config, "delta", real_number)
    if method.decide_stream:
        epsilon = _config_value(config, "epsilon", real_number)
        rng = split_stream(_config_value(config, "master_seed", whole_number), DECIDE_STREAM_ID)
    dataset = _read_dataset(method, config)
    rule = method.decide if decide else method.estimate
    try:
        return rule(dataset, delta, epsilon, rng)
    except InsufficientDataError as exc:
        raise CliError(_EXIT_RUNTIME, f"cannot use input {config['input']}: {exc}") from exc


def cmd_estimate(args: SimpleNamespace) -> int:
    config = _load_config(args)
    name, method = _method(config)
    _emit({"method": name, **_apply_rule(method, config, decide=False)}, args.out)
    return 0


def cmd_decide(args: SimpleNamespace) -> int:
    config = _load_config(args)
    name, method = _method(config)
    decision = _apply_rule(method, config, decide=True)
    _emit({"method": name, "decision": decision.to_dict()}, args.out)
    return 0


def _emit_report(report: Report, args: SimpleNamespace) -> int:
    """Print the JSON report; with ``--out`` also write it, reusing the
    printed text for JSON. Returns the exit code."""
    text = report_json(report)
    sys.stdout.write(text)
    if args.out and args.format == "csv":
        write_report(report, args.out, format="csv")
    elif args.out:
        Path(args.out).write_text(text)
    return 0 if report.passed else _EXIT_VERIFY_FAIL


def _check_threads(args: SimpleNamespace) -> None:
    if args.threads < 1:
        raise CliError(_EXIT_USAGE, f"--threads must be at least 1, got {args.threads}")


def cmd_verify(args: SimpleNamespace) -> int:
    _check_threads(args)
    config = _load_config(args)
    spec = _build(lambda: TrialSpec.from_dict(config), "trial spec")
    return _emit_report(verify(spec), args)


def cmd_sweep(args: SimpleNamespace) -> int:
    _check_threads(args)
    config = _load_config(args)
    grid_dicts = config.pop("grid", None)
    if not isinstance(grid_dicts, list) or not grid_dicts:
        raise CliError(_EXIT_USAGE, "sweep config needs a nonempty 'grid' array")
    if "generator" in config:
        raise CliError(
            _EXIT_USAGE, "a sweep takes its generator blocks from 'grid'; remove 'generator'"
        )
    base = _build(
        lambda: TrialSpec.from_dict({**config, "generator": grid_dicts[0]}),
        "trial spec at grid point 0",
    )
    params_type = METHODS[base.method].params_type
    grid = tuple(
        _build(lambda: params_type.from_dict(g), f"grid point {k}")
        for k, g in enumerate(grid_dicts)
    )
    return _emit_report(adversarial_sweep(base, grid), args)


_REQUIRED = object()  # the default of a flag argparse requires

# Each command's flags, one (flag, kind, default, help) row each; the dest
# is the flag without its dashes, "-" read as "_", as argparse derives it.
# A kind of str, int or float converts the flag's value, a tuple lists its
# choices, bool marks a switch and list a repeatable str flag. samplesize
# has one table per method.
_CONFIG_FLAGS = (
    ("--config", str, None, "JSON config file"),
    ("--seed", int, None, "override the master seed"),
    ("--out", str, None, "output path"),
    ("--set", list, None, "override a config field by dotted path (repeatable)"),
)
_FORMAT_FLAG = ("--format", ("json", "csv"), None, None)
_THREADS_FLAG = ("--threads", int, 1, "accepted for compatibility; trials run on one thread")
_BOUND_FLAGS = (("--epsilon", float, _REQUIRED, None), ("--delta", float, _REQUIRED, None))
_FLAGS = {
    "samplesize": {
        "sccs": (*_BOUND_FLAGS, ("--lambda-floor", float, _REQUIRED, None)),
        "propensity": (*_BOUND_FLAGS, ("--n-covariates", int, _REQUIRED, None)),
        "iv": (
            *_BOUND_FLAGS,
            ("--sigma-dy2", float, 1.0, None),
            ("--sigma-dz2", float, 1.0, None),
            ("--alpha", float, 1.0, None),
            ("--sigma-d2", float, 1.0, None),
        ),
    },
    "generate": (*_CONFIG_FLAGS, _FORMAT_FLAG, ("--include-hidden", bool, False, None)),
    "estimate": _CONFIG_FLAGS,
    "decide": _CONFIG_FLAGS,
    "verify": (*_CONFIG_FLAGS, _FORMAT_FLAG, _THREADS_FLAG),
    "sweep": (*_CONFIG_FLAGS, _FORMAT_FLAG, _THREADS_FLAG),
}


def parse_flags(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives a well-formed
    ``argv``: a command (and a samplesize method), then exact flags of its
    table, each value not starting with "-" and accepted by the flag's
    converter or choices. Anything else (help, an abbreviation,
    ``--flag=value``, ``--``, a missing required flag, any usage error)
    gives None, and argparse parses it."""
    flags = _FLAGS.get(argv[0]) if argv else None
    values, start = {"command": argv[0] if argv else None}, 1
    if isinstance(flags, dict):
        values["method"] = argv[1] if len(argv) > 1 else None
        flags, start = flags.get(values["method"]), 2
    if flags is None:
        return None
    table = {}
    for flag, kind, default, _ in flags:
        dest = flag[2:].replace("-", "_")
        table[flag] = dest, kind
        values[dest] = default
    tokens = iter(argv[start:])
    for token in tokens:
        if token not in table:
            return None
        dest, kind = table[token]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value goes to argparse too
        if value.startswith("-"):
            return None
        if kind is list:
            values[dest] = [*(values[dest] or ()), value]
        elif isinstance(kind, tuple):
            if value not in kind:
                return None
            values[dest] = value
        else:
            try:
                values[dest] = kind(value)
            except ValueError:
                return None
    if any(default is _REQUIRED for default in values.values()):
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The ``pacc`` argparse parser with all six subcommands, built from
    ``_FLAGS``. Usage errors raise CliError, so they end in the same JSON
    diagnostic as every other exit 2."""
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        def error(self, message: str):
            raise CliError(_EXIT_USAGE, message)

    parser = ArgumentParser(
        prog="pacc",
        description="Simulate, decide, and certify PACC causal discovery procedures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        if name == "samplesize":
            size = sub.add_parser(name, help="evaluate a method's sample-size bound")
            methods = size.add_subparsers(dest="method", required=True)
            for method, flags in _FLAGS[name].items():
                _add_flags(methods.add_parser(method), flags)
        else:
            _add_flags(sub.add_parser(name, help=f"run the {name} command"), _FLAGS[name])
    return parser


def _add_flags(parser, flags) -> None:
    for flag, kind, default, help_text in flags:
        options = {"help": help_text}
        if default is _REQUIRED:
            options["required"] = True
        else:
            options["default"] = default
        if kind is bool:
            options["action"] = "store_true"
        elif kind is list:
            options.update(action="append", metavar="PATH=VALUE")
        elif isinstance(kind, tuple):
            options["choices"] = kind
        elif kind is not str:
            options["type"] = kind
        parser.add_argument(flag, **options)


_COMMANDS = {
    "samplesize": cmd_samplesize,
    "generate": cmd_generate,
    "estimate": cmd_estimate,
    "decide": cmd_decide,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_flags(argv)
        if args is None:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    except CliError as exc:
        _diagnose("CliError", str(exc))
        return exc.code
    except InvalidArgumentError as exc:
        _diagnose(type(exc).__name__, str(exc))
        return _EXIT_USAGE
    except PaccError as exc:
        _diagnose(type(exc).__name__, str(exc))
        return _EXIT_RUNTIME
    except (OSError, MemoryError) as exc:
        _diagnose(type(exc).__name__, str(exc))
        return _EXIT_RUNTIME


def _diagnose(kind: str, message: str) -> None:
    sys.stderr.write(_jsonio.dumps({"error": kind, "message": message}))


if __name__ == "__main__":
    sys.exit(main())
