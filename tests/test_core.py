import math
import sys
import threading

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
    real_number,
    rekeyed_generator,
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


def _draws(gen):
    """One of each draw kind that trials use, in a fixed order."""
    return [
        gen.standard_normal(7),
        gen.integers(0, 2, size=5),
        gen.integers(0, 1000, size=3, dtype=np.int32),
        gen.random(4),
        gen.binomial(250, 0.02, size=6),
        gen.binomial(50_000_000_000, 0.999),
        gen.multinomial(5_000, [0.5, 0.3, 0.15, 0.05]),
        gen.negative_binomial(20, 0.3, size=3),
        gen.integers(0, 7, size=1, dtype=np.int32),
        gen.standard_normal(3),
    ]


def _key_pairs():
    rng = np.random.default_rng(20240601)
    pairs = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (20240501, 7)]
    big = rng.integers(0, 2**64, size=(195, 2), dtype=np.uint64, endpoint=False)
    return pairs + [(int(a), int(b)) for a, b in big]


KEY_PAIRS = _key_pairs()


class TestRekeyedGenerator:
    def _assert_same_draws(self, rekeyed, fresh):
        for got, want in zip(_draws(rekeyed), _draws(fresh)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_draws_equal_a_fresh_generator(self):
        assert len(set(KEY_PAIRS)) == 200
        for seed, stream in KEY_PAIRS:
            self._assert_same_draws(
                rekeyed_generator(seed, stream), split_stream(seed, stream).generator()
            )

    def test_reuses_one_generator_per_thread(self):
        assert rekeyed_generator(1, 2) is rekeyed_generator(3, 4)

    def test_rekey_after_a_stream_stopped_mid_buffer(self):
        # An odd number of 32-bit draws leaves half a word held back and a
        # partly used Philox buffer; re-keying must drop both.
        for k, (seed, stream) in enumerate(KEY_PAIRS[:40]):
            gen = rekeyed_generator(stream, seed)
            gen.integers(0, 1000, size=2 * k + 1, dtype=np.int32)
            assert gen.bit_generator.state["has_uint32"] == 1
            gen.random(k % 3)
            self._assert_same_draws(
                rekeyed_generator(seed, stream), split_stream(seed, stream).generator()
            )

    def test_threads_at_once(self):
        # More threads than cores re-key and draw in lockstep, switching
        # often: with one shared generator their streams would interleave.
        threads_n = 4
        barrier = threading.Barrier(threads_n, timeout=60)
        results = {}

        def worker(k, pairs):
            out = []
            for seed, stream in pairs:
                gen = rekeyed_generator(seed, stream)
                barrier.wait()
                out.append([np.asarray(d).tobytes() for d in _draws(gen)])
                barrier.wait()
            results[k] = out

        shares = [KEY_PAIRS[k::threads_n][:25] for k in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=item) for item in enumerate(shares)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, pairs in enumerate(shares):
            assert len(results[k]) == len(pairs)
            for got, (seed, stream) in zip(results[k], pairs):
                fresh = split_stream(seed, stream).generator()
                assert got == [np.asarray(d).tobytes() for d in _draws(fresh)]

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (True, 0)])
    def test_rejects_out_of_range_keys(self, seed, stream):
        with pytest.raises(InvalidArgumentError):
            rekeyed_generator(seed, stream)


class TestRealNumber:
    @pytest.mark.parametrize("value", [0, 2, -3, 0.5, -1e300])
    def test_numbers_pass_as_floats(self, value):
        number = real_number(value, "x")
        assert type(number) is float and number == value

    @pytest.mark.parametrize(
        "value", ["0.5", True, False, None, [0.5], {}, math.inf, -math.inf, math.nan, 10**400]
    )
    def test_other_values_are_rejected(self, value):
        with pytest.raises(InvalidArgumentError, match="x must be a finite number"):
            real_number(value, "x")


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
