"""Candidate pools, the stage learning functions and candidate selection.

Scores are computed for the whole pool at once (the nearest-support
distances in row blocks); ``select_next`` takes the argmin over the
not-yet-selected candidates with a lowest-index tie-break so results do not
depend on evaluation order, and returns None once every candidate is
selected.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .surrogate import row_blocks


class CandidatePool:
    """u-space candidates ``points`` with their GP coordinates ``x``, their
    log importance weights ``log_w`` (log standard-normal density minus the
    log density they were drawn from), and a selected mask."""

    def __init__(self, points, x, log_w):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.x, self.log_w = x, log_w
        self.selected = np.zeros(self.points.shape[0], dtype=bool)


def min_distances(points, support):
    """Per-point minimum Euclidean distance to the support set, in the row
    blocks of ``surrogate.row_blocks``: the (points x support) distances
    are never built whole, and each row's bits are those of one ``cdist``
    on all the rows."""
    points, support = np.atleast_2d(points), np.atleast_2d(support)
    dmin = np.empty(len(points))
    for block in row_blocks(len(points), len(support)):
        dmin[block] = cdist(points[block], support).min(axis=1)
    return dmin


def lf1_scores(abs_means, dmin, scale=1.0):
    """Stage-1 score: |predicted g| / scale minus the distance to the nearest
    support point. Lower is better."""
    return np.asarray(abs_means) / scale - np.asarray(dmin)


def lf2_scores(abs_means, dmin, log_w, scale=1.0):
    """Stage-2 score: the stage-1 terms minus the log likelihood ratio
    ``log_w`` = log(p_n / q2), favoring failure mass that weighs most in the
    IS estimator."""
    return lf1_scores(abs_means, dmin, scale) - np.asarray(log_w)


def select_next(pool: CandidatePool, scores):
    """Pick the argmin-scoring unselected candidate, mark it selected and
    return its index; None when every candidate is already selected.

    ``scores`` covers the whole pool; ties break to the lowest candidate
    index.
    """
    unselected = np.flatnonzero(~pool.selected)
    if unselected.size == 0:
        return None
    scores = np.asarray(scores, dtype=float)[unselected]
    winner = int(unselected[int(np.argmin(scores))])
    pool.selected[winner] = True
    return winner
