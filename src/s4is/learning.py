"""Candidate pools, the stage learning functions and candidate selection.

Scores are computed for the whole pool at once; ``select_next`` takes the
argmin over the not-yet-selected candidates with a lowest-index tie-break
so results do not depend on evaluation order.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .errors import S4isError


class PoolExhausted(S4isError):
    """Every candidate has already been promoted to a support point."""


class CandidatePool:
    """u-space candidates with a selected mask; extendable for CoV control."""

    def __init__(self, points):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.selected = np.zeros(self.points.shape[0], dtype=bool)

    def __len__(self):
        return self.points.shape[0]

    def extend(self, new_points):
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        self.points = np.vstack([self.points, new_points])
        self.selected = np.concatenate([self.selected, np.zeros(new_points.shape[0], dtype=bool)])


def min_distances(points, support):
    """Per-point minimum Euclidean distance to the support set (vectorized)."""
    return cdist(np.atleast_2d(points), np.atleast_2d(support)).min(axis=1)


def lf1_scores(abs_means, dmin, scale=1.0):
    """Stage-1 score: |predicted g| / scale minus the distance to the nearest
    support point. Lower is better."""
    return np.asarray(abs_means) / scale - np.asarray(dmin)


def lf2_scores(abs_means, dmin, log_pn, log_q2, scale=1.0):
    """Stage-2 score: the stage-1 terms minus the log likelihood ratio
    log(p_n / q2), favoring failure mass that weighs most in the IS
    estimator."""
    return lf1_scores(abs_means, dmin, scale) - (np.asarray(log_pn) - np.asarray(log_q2))


def select_next(pool: CandidatePool, scores):
    """Pick the argmin-scoring unselected candidate and mark it selected.

    ``scores`` covers the whole pool; ties break to the lowest candidate
    index.
    """
    unselected = np.flatnonzero(~pool.selected)
    if unselected.size == 0:
        raise PoolExhausted("no unselected candidates remain")
    scores = np.asarray(scores, dtype=float)[unselected]
    winner = int(unselected[int(np.argmin(scores))])
    pool.selected[winner] = True
    return winner
