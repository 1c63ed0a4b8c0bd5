"""The seam through which tests stub, forbid or watch trials.

Every method's trials run through its ``harness.METHODS`` entry: ``prepare``
builds the block that ``verify`` calls with (first, count). A wrapper there
covers each method's trials, whatever they draw and however they decide.
"""

import pytest

from pacc import harness


def wrap_blocks(setitem, wrap) -> None:
    """Through ``setitem(harness.METHODS, method, entry)``, make every
    method's prepared block ``wrap(spec, block)``, where ``block`` is the
    one the method's own ``prepare`` built, with its checks and tables."""
    for method, entry in list(harness.METHODS.items()):
        def prepare(spec, params, size, entry=entry):
            return wrap(spec, entry.prepare(spec, params, size))

        setitem(harness.METHODS, method, entry._replace(prepare=prepare))


@pytest.fixture
def no_trial_may_run(monkeypatch) -> list:
    """Record, in the list returned, (spec, first, count) of every block of
    trials that would run, by any method; none runs."""
    ran = []
    wrap_blocks(monkeypatch.setitem,
                lambda spec, block: lambda first, count: ran.append((spec, first, count)) or [])
    return ran
