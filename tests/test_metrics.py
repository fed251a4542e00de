"""Accuracy and AUC, checked against the O(n^2) pairwise definition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adapterdistill.acceptance import auc_pairwise_oracle
from adapterdistill.errors import UsageError
from adapterdistill.metrics import accuracy, auc


class TestAccuracy:
    def test_hand_value(self):
        # predictions at 0.5: [1, 0, 1, 0] -> 3 of 4 correct
        assert accuracy([0.9, 0.2, 0.7, 0.4], [1, 0, 0, 0]) == 0.75

    def test_threshold_boundary_counts_as_positive(self):
        assert accuracy([0.5], [1]) == 1.0
        assert accuracy([0.5], [0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            accuracy([], [])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UsageError):
            auc([0.1, 0.9], [1, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 50), st.integers(0, 100), st.sampled_from([1, 2, None]))
    def test_matches_pairwise_oracle_exactly(self, n, seed, decimals):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0], labels[-1] = 0, 1
        probs = rng.random(n)
        if decimals is not None:
            probs = np.round(probs, decimals)  # a coarse grid forces ties
        assert auc(probs, labels) == auc_pairwise_oracle(probs, labels)
