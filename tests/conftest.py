"""The seam through which tests stub, forbid or watch trials.

Every method's trials run through its ``harness.METHODS`` entry: ``prepare``
builds the ``trials(master_seed, first stream, count)`` function that
``verify`` calls, which gives each trial's statistic and each halt's
error by row; the entry's ``chooses_m1`` decides the statistics. A wrapper
there covers each method's trials, whatever they draw. ``run_trial`` picks out one
trial of a spec through the same ``verify``.
"""

from dataclasses import replace

import numpy as np
import pytest

from pacc import harness


def run_trial(spec, index):
    """Trial ``index`` of ``spec``: the record of a one-trial verify on its
    stream, (master_seed, stream_base + index)."""
    one = replace(spec, trials=1, stream_base=spec.stream_base + index)
    return harness.verify(one).per_trial[0]


def wrap_blocks(setitem, wrap) -> None:
    """Through ``setitem(harness.METHODS, method, entry)``, make every
    method's prepared trials ``wrap(spec, trials)``, where ``trials`` is the
    function the method's own ``prepare`` built, with its checks and tables."""
    for method, entry in list(harness.METHODS.items()):
        def prepare(spec, params, size, entry=entry):
            return wrap(spec, entry.prepare(spec, params, size))

        setitem(harness.METHODS, method, entry._replace(prepare=prepare))


def no_trials(master_seed, first, count):
    """Trials that draw nothing: each has statistic 0, which every method's
    rule decides as M2."""
    return np.zeros(count), {}


@pytest.fixture
def no_trial_may_run(monkeypatch) -> list:
    """Record, in the list returned, (spec, first stream, count) of every
    block of trials that would run, by any method; none runs."""
    ran = []
    wrap_blocks(monkeypatch.setitem, lambda spec, trials: lambda master_seed, first, count: (
        ran.append((spec, first, count)) or no_trials(master_seed, first, count)
    ))
    return ran
