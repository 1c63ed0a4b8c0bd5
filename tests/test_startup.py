"""What `import pacc.cli` loads, and that a command loads nothing more.

Each check runs in a fresh interpreter, so modules that other tests have
already imported cannot hide a module the CLI would load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str) -> object:
    """Run ``code`` in a fresh interpreter from the repository root and
    return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by_cli_import(prefix: str) -> list:
    """The modules named ``prefix`` or ``prefix.*`` after ``import pacc.cli``."""
    return run_python(
        "import json, sys, pacc.cli\n"
        f"print(json.dumps(sorted(m for m in sys.modules"
        f" if m == {prefix!r} or m.startswith({prefix + '.'!r}))))\n"
    )


def test_importing_the_cli_loads_no_scipy():
    assert loaded_by_cli_import("scipy") == []


def test_importing_the_cli_loads_no_numpy_ma():
    # Only np.median loads numpy.ma, and only propensity estimate and
    # decide call it, so loading it at import slowed every command.
    assert loaded_by_cli_import("numpy.ma") == []


def test_importing_the_cli_loads_no_thread_pool():
    # Trials run on the calling thread; a thread pool's modules would cost
    # every command their import time.
    for prefix in ("concurrent.futures", "queue", "logging"):
        assert loaded_by_cli_import(prefix) == []


def test_verify_loads_no_module_after_import():
    # numpy loads submodules such as numpy.random on first use; the layers
    # that use one load it at import, so a command's time is its own work.
    # No verify reaches np.median, so numpy.ma stays unloaded here too.
    added = run_python(
        "import contextlib, io, json, sys\n"
        "import pacc.cli\n"
        "added = {}\n"
        "for config in ('iv_verify', 'ps_verify_fast', 'sccs_verify'):\n"
        "    before = set(sys.modules)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        pacc.cli.main(['verify', '--config', f'configs/{config}.json',\n"
        "                       '--set', 'trials=2', '--threads', '2'])\n"
        "    added[config] = sorted(m for m in set(sys.modules) - before\n"
        "                           if m.split('.')[0] in ('numpy', 'scipy', 'pacc'))\n"
        "print(json.dumps(added))\n"
    )
    assert added == {"iv_verify": [], "ps_verify_fast": [], "sccs_verify": []}


def test_well_formed_commands_load_no_argparse():
    # argparse, and the gettext and locale its first message loads, cost
    # about 5 ms; a command line the flag table parses needs none of them.
    loaded = run_python(
        "import contextlib, io, json, sys\n"
        "import pacc.cli\n"
        "for argv in (['verify', '--config', 'configs/iv_verify.json'],\n"
        "             ['sweep', '--config', 'configs/sccs_sweep.json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        pacc.cli.main([*argv, '--set', 'trials=2'])\n"
        "print(json.dumps(sorted(m for m in ('argparse', 'gettext', 'locale')\n"
        "                        if m in sys.modules)))\n"
    )
    assert loaded == []
