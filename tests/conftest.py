"""The seam through which tests stub, forbid or watch trials.

Every method's trials run through its ``harness.METHODS`` entry: ``prepare``
builds the ``trials(master_seed, first stream, count)`` function that
``verify`` and ``run_trial`` call, which gives whether each trial chose M1,
its statistic and each halt's error by row. A wrapper there covers each
method's trials, whatever they draw and however they decide.
"""

import numpy as np
import pytest

from pacc import harness


def wrap_blocks(setitem, wrap) -> None:
    """Through ``setitem(harness.METHODS, method, entry)``, make every
    method's prepared trials ``wrap(spec, trials)``, where ``trials`` is the
    function the method's own ``prepare`` built, with its checks and tables."""
    for method, entry in list(harness.METHODS.items()):
        def prepare(spec, params, size, entry=entry):
            return wrap(spec, entry.prepare(spec, params, size))

        setitem(harness.METHODS, method, entry._replace(prepare=prepare))


def no_trials(master_seed, first, count):
    """Trials that draw nothing: each chooses M2 with statistic 0."""
    return np.zeros(count, dtype=bool), np.zeros(count), {}


@pytest.fixture
def no_trial_may_run(monkeypatch) -> list:
    """Record, in the list returned, (spec, first stream, count) of every
    block of trials that would run, by any method; none runs."""
    ran = []
    wrap_blocks(monkeypatch.setitem, lambda spec, trials: lambda master_seed, first, count: (
        ran.append((spec, first, count)) or no_trials(master_seed, first, count)
    ))
    return ran
