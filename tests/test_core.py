import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pacc.core import (
    ConceptSpec,
    Decision,
    InvalidArgumentError,
    Method,
    ModelChoice,
    RngStream,
    rate_upper_bound,
    split_stream,
)


class TestSplitStream:
    def test_identity_mapping(self):
        assert split_stream(42, 0) == RngStream(42, 0)
        assert split_stream(42, 7) == RngStream(42, 7)

    def test_distinct_streams_differ(self):
        a = split_stream(42, 0).generator().random(100)
        b = split_stream(42, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_same_stream_is_byte_identical(self):
        s = RngStream(master_seed=123456789, stream_id=17)
        a = s.generator().random(1000)
        b = s.generator().random(1000)
        assert a.tobytes() == b.tobytes()

    def test_different_master_seeds_differ(self):
        a = split_stream(1, 0).generator().random(50)
        b = split_stream(2, 0).generator().random(50)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_rejects_out_of_range_keys(self, seed, stream):
        with pytest.raises(InvalidArgumentError):
            RngStream(seed, stream)


class TestRateUpperBound:
    def test_zero_errors_hundred_trials(self):
        ub = rate_upper_bound(0, 100, 0.95)
        assert 0.0 < ub < 0.05

    def test_all_failures_is_one(self):
        assert rate_upper_bound(100, 100, 0.95) == 1.0

    def test_ten_of_thousand(self):
        ub = rate_upper_bound(10, 1000, 0.95)
        assert 0.010 < ub < 0.020

    def test_frozen_value(self):
        # Direct Wilson evaluation with z = Phi^-1(0.95).
        assert rate_upper_bound(0, 100, 0.95) == pytest.approx(0.026342720783174303, abs=1e-15)

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rate_upper_bound(0, 0, 0.95)

    def test_errors_exceeding_trials_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rate_upper_bound(5, 4, 0.95)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5])
    def test_confidence_range(self, confidence):
        with pytest.raises(InvalidArgumentError):
            rate_upper_bound(1, 10, confidence)

    @given(
        trials=st.integers(min_value=1, max_value=500),
        confidence=st.floats(min_value=0.5, max_value=0.999),
        data=st.data(),
    )
    def test_nondecreasing_in_errors_and_dominates_rate(self, trials, confidence, data):
        errors = data.draw(st.integers(min_value=0, max_value=trials))
        ub = rate_upper_bound(errors, trials, confidence)
        assert ub >= errors / trials
        if errors < trials:
            assert rate_upper_bound(errors + 1, trials, confidence) >= ub


class TestConceptSpec:
    def test_sccs_delta_must_exceed_one(self):
        ConceptSpec(2.0, Method.SCCS)
        with pytest.raises(InvalidArgumentError):
            ConceptSpec(0.5, Method.SCCS)
        with pytest.raises(InvalidArgumentError):
            ConceptSpec(1.0, Method.SCCS)

    @pytest.mark.parametrize("method", [Method.PROPENSITY, Method.IV2SLS])
    def test_other_deltas_in_unit_interval(self, method):
        ConceptSpec(0.5, method)
        for bad in (0.0, 1.0, 2.0, -0.3):
            with pytest.raises(InvalidArgumentError):
                ConceptSpec(bad, method)


def test_decision_to_dict():
    d = Decision(chosen=ModelChoice.M1, statistic=1.25, threshold=0.25)
    assert d.to_dict() == {"chosen": "M1", "statistic": 1.25, "threshold": 0.25}
