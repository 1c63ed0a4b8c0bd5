"""One benchmark child process: a ``pacc`` CLI command or a set-up probe.

    child.py --timing OUT.json [--trace SPANS.json] -- <pacc arguments>
        Runs ``pacc.cli.main`` exactly as the ``pacc`` console script does and
        writes how long the import and the command took. With ``--trace`` the
        layer wrappers of ``tracing.py`` are installed first and the spans are
        written after the command returns.
    child.py --setup CONFIG
        The set-up a verify command pays before its first trial: import the
        CLI, load the config, build the ``TrialSpec`` and resolve the sample
        size. Nothing else.

``pacc`` must come from the checkout's ``src`` directory (the parent sets
``PYTHONPATH``); any other copy is refused so the benchmark never measures
an installed version by mistake.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _import_cli():
    import pacc.cli

    expected = os.path.join(os.getcwd(), "src", "pacc") + os.sep
    if not os.path.abspath(pacc.cli.__file__).startswith(expected):
        sys.stderr.write(f"pacc imported from {pacc.cli.__file__}, not {expected}\n")
        sys.exit(97)
    return pacc.cli


def setup_probe(config_path: str) -> None:
    _import_cli()
    from pacc.harness import TrialSpec, resolve_sample_size

    with open(config_path) as fh:
        config = json.load(fh)
    resolve_sample_size(TrialSpec.from_dict(config))


def run_command(argv: list[str], timing_path: str, trace_path: str | None) -> int:
    t0 = time.perf_counter()
    cli = _import_cli()
    t1 = time.perf_counter()
    if trace_path:
        import tracing

        tracing.install()
    t2 = time.perf_counter()
    code = cli.main(argv)
    t3 = time.perf_counter()
    if trace_path:
        tracing.dump(trace_path)
    with open(timing_path, "w") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t3 - t2, "exit": code}, fh)
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup")
    parser.add_argument("--timing")
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.setup:
        setup_probe(args.setup)
        return 0
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return run_command(argv, args.timing, args.trace)


if __name__ == "__main__":
    sys.exit(main())
