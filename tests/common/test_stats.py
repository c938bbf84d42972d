"""Distribution summaries."""

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import summarize


class TestSummarize:
    def test_constant_distribution(self):
        summary = summarize([5.0] * 100)
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.p5 == summary.p95 == 5.0

    def test_known_percentiles(self):
        summary = summarize(range(1, 101))
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p5 == pytest.approx(5.95)
        assert summary.count == 100

    def test_single_value(self):
        summary = summarize([3.5])
        assert summary.count == 1
        assert summary.mean == summary.p5 == summary.p95 == 3.5
        assert summary.std == 0.0

    def test_population_std(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.std == pytest.approx(1.25 ** 0.5)

    def test_accepts_a_one_shot_iterable(self):
        summary = summarize(float(i) for i in range(10))
        assert summary.count == 10
        assert summary.mean == pytest.approx(4.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
    def test_percentiles_ordered(self, values):
        summary = summarize(values)
        assert summary.p5 <= summary.p25 <= summary.p50 <= summary.p75 <= summary.p95

    @given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=200))
    def test_percentiles_within_the_range(self, values):
        summary = summarize(values)
        assert summary.count == len(values)
        assert min(values) <= summary.p5 and summary.p95 <= max(values)
