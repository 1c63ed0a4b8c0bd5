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


def test_importing_the_cli_loads_no_scipy():
    loaded = run_python(
        "import json, sys, pacc.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    assert loaded == []


def test_verify_loads_no_module_after_import():
    # numpy loads numpy.random and numpy.ma on first use; the layers that
    # use them load them at import, so a command's time is its own work.
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
