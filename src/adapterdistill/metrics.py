"""Accuracy and AUC for binary pair classification."""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def accuracy(probabilities, labels, threshold: float = 0.5) -> float:
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probabilities.size == 0:
        raise UsageError("accuracy of an empty set")
    predicted = (probabilities >= threshold).astype(np.int64)
    return float((predicted == labels).mean())


def auc(probabilities, labels) -> float:
    """P(score of a positive > score of a negative) + half credit for ties,
    computed via midranks (equivalent to the pairwise definition)."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UsageError("AUC undefined: need at least one positive and one negative")
    ranks = _midranks(probabilities)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; each run of tied values gets the mean of the
    positions it spans."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks
