"""Tests for JSD and KL helpers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.divergence import (
    LN2,
    jensen_shannon_divergence,
    jsd_from_counts,
    kl_divergence,
)

prob_vec = st.lists(st.floats(0.0, 10.0), min_size=2, max_size=10).filter(
    lambda v: sum(v) > 0
)


class TestJSD:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert jensen_shannon_divergence(p, p) == pytest.approx(0.0)

    def test_disjoint_is_ln2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert jensen_shannon_divergence(p, q) == pytest.approx(LN2)

    def test_unnormalised_counts_accepted(self):
        assert jensen_shannon_divergence(
            np.array([2.0, 2.0]), np.array([500.0, 500.0])
        ) == pytest.approx(0.0)

    def test_zero_vector_treated_uniform(self):
        p = np.zeros(4)
        q = np.full(4, 0.25)
        assert jensen_shannon_divergence(p, q) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            jensen_shannon_divergence(np.ones(2), np.ones(3))

    @given(p=prob_vec, q=prob_vec)
    @example(p=[1.0, 0.0], q=[1.0, 5e-324])  # subnormal mixture underflow
    @example(p=[1.0, 3.0], q=[1.0, 2.9999999999999987])  # rounds below 0
    @settings(max_examples=60)
    def test_bounded_and_symmetric(self, p, q):
        n = max(len(p), len(q))
        p = np.asarray(p + [0.0] * (n - len(p)))
        q = np.asarray(q + [0.0] * (n - len(q)))
        d1 = jensen_shannon_divergence(p, q)
        d2 = jensen_shannon_divergence(q, p)
        assert 0.0 <= d1 <= LN2 + 1e-9
        assert d1 == pytest.approx(d2)

    @given(p=prob_vec)
    @settings(max_examples=30)
    def test_self_divergence_zero(self, p):
        arr = np.asarray(p)
        assert jensen_shannon_divergence(arr, arr) == pytest.approx(0.0, abs=1e-12)


class TestKL:
    def test_zero_p_entries_ignored(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(np.log(2.0))

    def test_identical_zero(self):
        p = np.array([0.5, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0)


class TestSparseCounts:
    def test_matching_dicts(self):
        a = {"x": 3, "y": 1}
        b = {"x": 300, "y": 100}
        assert jsd_from_counts(a, b) == pytest.approx(0.0)

    def test_disjoint_dicts(self):
        assert jsd_from_counts({"x": 1}, {"y": 1}) == pytest.approx(LN2)

    def test_empty_dicts(self):
        assert jsd_from_counts({}, {}) == 0.0

    def test_union_support(self):
        a = {(0, 1): 5}
        b = {(0, 1): 5, (1, 2): 5}
        d = jsd_from_counts(a, b)
        assert 0.0 < d < LN2
