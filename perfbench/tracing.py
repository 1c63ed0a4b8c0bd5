"""Span recording around the public functions of each ``pacc`` layer.

``install()`` replaces each target function or method with a wrapper that
records one span per call: name, start, end, its own id, the id of the
enclosing span on the same thread, the exception it raised (if any) and a
few counts read from its arguments or result. Spans stay in memory until
``dump()`` writes them out. Nothing here changes what the wrapped code
computes; a target that a later version of the package no longer has is
skipped, and its metrics then report no samples.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

_spans: list = []
_ids = itertools.count(1)
_local = threading.local()


def _report_or_dataset(args, kwargs, out):
    obj = args[0] if args else None
    if isinstance(obj, dict) and "schema" in obj:
        kind = "report"
    elif isinstance(obj, dict) and "patients" in obj:
        kind = "dataset"
    else:
        kind = "other"
    return {"kind": kind, "bytes": len(out)}


# (module, attribute path, span name, counts read from (args, kwargs, result))
TARGETS = (
    ("pacc.core", "RngStream.generator", "core.stream_setup", None),
    ("pacc.harness", "run_trial", "harness.run_trial",
     lambda a, k, out: {"failed": out.failure is not None}),
    ("pacc.harness", "verify", "harness.verify",
     lambda a, k, out: {"workers": k.get("workers", a[1] if len(a) > 1 else 1)}),
    ("pacc.sccs", "generate_sccs", "sccs.generate",
     lambda a, k, out: {"events": out.nu1 + out.nu2, "cases": len(out)}),
    ("pacc.sccs", "PointLaw.sample", "sccs.law_draw", lambda a, k, out: {"draws": len(out)}),
    ("pacc.sccs", "TwoPointLaw.sample", "sccs.law_draw", lambda a, k, out: {"draws": len(out)}),
    ("pacc.sccs", "sccs_decide", "sccs.decide", None),
    ("pacc.sccs", "SccsDataset.to_dict", "sccs.to_dict", None),
    ("pacc.sccs", "SccsDataset.from_dict", "sccs.from_dict", None),
    ("pacc.propensity", "generate_obs", "propensity.generate", None),
    ("pacc.propensity", "fit_logistic", "propensity.fit",
     lambda a, k, out: {"capped": bool(out.capped), "rows": len(a[0]),
                        "cols": a[0].x.shape[1] + 1}),
    ("pacc.propensity", "rejection_sample", "propensity.reject",
     lambda a, k, out: {"offered": len(a[0]), "kept": len(out)}),
    ("pacc.propensity", "ate", "propensity.ate", None),
    ("pacc.propensity", "ps_pipeline", "propensity.pipeline", None),
    ("pacc.propensity", "ObsDataset.to_csv", "propensity.to_csv", None),
    ("pacc.propensity", "ObsDataset.from_csv", "propensity.from_csv", None),
    ("pacc.iv2sls", "generate_iv", "iv2sls.generate", None),
    ("pacc.iv2sls", "iv_decide", "iv2sls.decide", None),
    ("pacc.iv2sls", "IvDataset.to_csv", "iv2sls.to_csv", None),
    ("pacc.iv2sls", "IvDataset.from_csv", "iv2sls.from_csv", None),
    ("pacc._jsonio", "dumps", "jsonio.dumps", _report_or_dataset),
    ("pacc.cli", "_load_config", "cli.config_load", None),
)


def _wrap(fn, name: str, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _local.__dict__.setdefault("stack", [])
        span_id = next(_ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        error = None
        out = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            info = counts(args, kwargs, out) if counts and error is None else {}
            _spans.append((name, start, end, span_id, parent, error, info))

    return wrapper


def install() -> list[str]:
    """Wrap every target that exists; return the span names installed."""
    installed = []
    for module_name, path, name, counts in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            continue
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(_wrap(original.__func__, name, counts)))
        elif owner_name:
            setattr(owner, attr, _wrap(original, name, counts))
        else:
            wrapped = _wrap(original, name, counts)
            # Modules that imported the function by name hold their own
            # reference to it; rebind those too.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("pacc"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        installed.append(name)
    return installed


def dump(path: str) -> None:
    with open(path, "w") as fh:
        json.dump(_spans, fh, separators=(",", ":"))
