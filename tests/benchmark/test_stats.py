"""Tests for the paper's statistics formulas."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.benchmark import stats

finite_floats = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


class TestMeanStd:
    def test_mean(self):
        assert stats.mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty(self):
        with pytest.raises(ValueError):
            stats.mean([])

    def test_std_constant_series(self):
        assert stats.std([5.0, 5.0, 5.0]) == 0.0

    def test_std_known_value(self):
        assert stats.std([2.0, 4.0]) == pytest.approx(1.0)

    def test_relative_std(self):
        assert stats.relative_std([2.0, 4.0]) == pytest.approx(1.0 / 3.0)

    def test_relative_std_zero_mean(self):
        with pytest.raises(ValueError):
            stats.relative_std([0.0, 0.0])

    def test_pooled_relative_std_averages(self):
        pooled = stats.pooled_relative_std([[2.0, 4.0], [5.0, 5.0]])
        assert pooled == pytest.approx((1.0 / 3.0 + 0.0) / 2)

    def test_pooled_skips_empty_series(self):
        assert stats.pooled_relative_std([[2.0, 4.0], []]) == pytest.approx(1.0 / 3.0)

    def test_pooled_all_empty(self):
        with pytest.raises(ValueError):
            stats.pooled_relative_std([[], []])


class TestSlowdownFactor:
    def test_paper_formula(self):
        # sf = mean over parallelisms of beam/native ratio
        sf = stats.slowdown_factor({1: 10.0, 2: 30.0}, {1: 2.0, 2: 3.0})
        assert sf == pytest.approx((5.0 + 10.0) / 2)

    def test_speedup_below_one(self):
        sf = stats.slowdown_factor({1: 1.0}, {1: 2.0})
        assert sf == 0.5

    def test_mismatched_parallelisms(self):
        with pytest.raises(ValueError):
            stats.slowdown_factor({1: 1.0}, {1: 1.0, 2: 1.0})

    def test_empty(self):
        with pytest.raises(ValueError):
            stats.slowdown_factor({}, {})

    def test_non_positive_native(self):
        with pytest.raises(ValueError):
            stats.slowdown_factor({1: 1.0}, {1: 0.0})


class TestProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_relative_std_is_scale_invariant(self, values):
        scaled = [v * 7.5 for v in values]
        assert stats.relative_std(scaled) == pytest.approx(
            stats.relative_std(values), rel=1e-9
        )

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_std_nonnegative(self, values):
        assert stats.std(values) >= 0

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_mean_within_bounds(self, values):
        mu = stats.mean(values)
        tolerance = 1e-9 * max(abs(v) for v in values)
        assert min(values) - tolerance <= mu <= max(values) + tolerance

    @given(
        st.dictionaries(
            st.integers(1, 4), finite_floats, min_size=1, max_size=4
        )
    )
    def test_slowdown_identity_is_one(self, means):
        assert stats.slowdown_factor(means, means) == pytest.approx(1.0)

    @given(
        st.dictionaries(st.integers(1, 4), finite_floats, min_size=1, max_size=4),
        st.floats(min_value=0.1, max_value=100),
    )
    def test_slowdown_scales_linearly_with_beam_times(self, native, factor):
        beam_means = {p: v * factor for p, v in native.items()}
        assert stats.slowdown_factor(beam_means, native) == pytest.approx(factor)


#: Latency-like samples: negatives, both zeros and forced duplicates.
_samples = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1.0, 3.25]),
)
_containers = {
    "list": list,
    "array": lambda values: array("d", values),
    "ndarray": lambda values: np.array(values, dtype=np.float64),
}


class TestPercentiles:
    """``percentiles`` sorts once but must equal per-``q`` ``percentile``."""

    @given(
        st.lists(_samples, min_size=1, max_size=60),
        st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=8),
        st.sampled_from(sorted(_containers)),
    )
    def test_matches_percentile_bit_for_bit(self, values, qs, container):
        values = _containers[container](values)
        qs = [0.0, 100.0, *qs]
        expected = [stats.percentile(values, q) for q in qs]
        got = stats.percentiles(values, qs)
        assert [float(v).hex() for v in expected] == [v.hex() for v in got]
        assert all(type(v) is float for v in got)

    @pytest.mark.parametrize("container", sorted(_containers))
    def test_empty_input_raises_like_percentile(self, container):
        empty = _containers[container]([])
        with pytest.raises(ValueError, match="empty") as single:
            stats.percentile(empty, 50)
        with pytest.raises(ValueError, match="empty") as batch:
            stats.percentiles(empty, (50,))
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("q", (-0.5, 100.5))
    @pytest.mark.parametrize("container", sorted(_containers))
    def test_q_out_of_range_raises_like_percentile(self, q, container):
        values = _containers[container]([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="q must be") as single:
            stats.percentile(values, q)
        with pytest.raises(ValueError, match="q must be") as batch:
            stats.percentiles(values, (50, q))
        assert str(batch.value) == str(single.value)
