"""Candidate pools, the stage learning functions and candidate selection."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import s4is.surrogate
from s4is.learning import (CandidatePool, lf1_scores, lf2_scores,
                           min_distances, select_next)
from s4is.surrogate import row_blocks


def _pool(points):
    """A pool over ``points`` whose coordinates and weights play no part."""
    return CandidatePool(points, points, np.zeros(len(points)))


def test_min_distance_helpers():
    support = np.array([[0.0, 0.0], [2.0, 0.0]])
    d = min_distances(np.array([[3.0, 0.0], [-1.0, 0.0]]), support)
    np.testing.assert_allclose(d, [1.0, 1.0])


@pytest.mark.parametrize("budget, n_support", [(100, 3), (1200, 30), (None, 20), (None, 300)])
def test_blocked_min_distances_equal_one_cdist(monkeypatch, budget, n_support):
    # Row counts around the block size, with a one-row tail joined to the
    # block before it; (None, ...) keeps the module's block budget.
    if budget is not None:
        monkeypatch.setattr(s4is.surrogate, "_PREDICT_BLOCK_VALUES", budget)
    rows = next(row_blocks(10**6, n_support)).stop
    rng = np.random.default_rng(n_support)
    support = rng.standard_normal((n_support, 3))
    for n in (1, 2, rows - 1, rows, rows + 1, rows + 2, 3 * rows + 1, 3 * rows + 17):
        points = rng.uniform(-4, 4, size=(n, 3))
        expected = cdist(points, support).min(axis=1)
        assert np.array_equal(min_distances(points, support), expected), n


def test_min_distances_hold_a_few_blocks(peak_bytes):
    # Unblocked, the (points x support) distances of 10^4 rows and 300
    # support points are 24 MB.
    rng = np.random.default_rng(3)
    points = rng.standard_normal((10**4, 2))
    support = rng.standard_normal((300, 2))
    block = 8 * s4is.surrogate._PREDICT_BLOCK_VALUES
    assert peak_bytes(lambda: min_distances(points, support)) < 8 * len(points) + 4 * block


def test_lf1_scores_tradeoff():
    # same |prediction|: the farther candidate scores lower (better)
    scores = lf1_scores(np.array([1.0, 1.0]), np.array([0.5, 2.0]), scale=1.0)
    assert scores[1] < scores[0]
    # same distance: the candidate closer to the limit state wins
    scores = lf1_scores(np.array([0.1, 2.0]), np.array([1.0, 1.0]), scale=1.0)
    assert scores[0] < scores[1]


def test_lf1_scale_normalizes_prediction_term():
    raw = lf1_scores(np.array([4.0]), np.array([1.0]), scale=1.0)
    scaled = lf1_scores(np.array([4.0]), np.array([1.0]), scale=4.0)
    assert scaled[0] == pytest.approx(raw[0] - 3.0)


def test_lf2_scores_prefer_heavy_weights():
    # identical surrogate terms; larger p_n/q2 ratio must score lower
    abs_means = np.array([1.0, 1.0])
    dmin = np.array([1.0, 1.0])
    log_pn = np.array([-1.0, -3.0])
    log_q2 = np.array([-2.0, -2.0])
    scores = lf2_scores(abs_means, dmin, log_pn - log_q2)
    assert scores[0] < scores[1]
    assert scores[0] == pytest.approx(scores[1] - 2.0)


def test_lf2_scores_are_lf1_scores_minus_the_log_weights():
    rng = np.random.default_rng(5)
    abs_means, dmin, log_w = np.abs(rng.normal(size=50)), rng.random(50), rng.normal(size=50)
    np.testing.assert_array_equal(lf2_scores(abs_means, dmin, log_w, scale=1.7),
                                  lf1_scores(abs_means, dmin, scale=1.7) - log_w)


def test_select_next_argmin_and_marking():
    pool = _pool(np.array([[0.0], [1.0], [2.0]]))
    scores = np.array([3.0, -1.0, 0.5])
    idx = select_next(pool, scores)
    assert idx == 1
    assert pool.selected[1]
    # next call skips the selected candidate
    assert select_next(pool, scores) == 2


def test_select_next_tie_breaks_to_lowest_index():
    pool = _pool(np.array([[0.0], [1.0], [2.0]]))
    assert select_next(pool, np.array([1.0, 1.0, 1.0])) == 0


def test_pool_exhaustion():
    pool = _pool(np.array([[0.0]]))
    select_next(pool, np.array([0.0]))
    assert select_next(pool, np.array([0.0])) is None
    assert pool.selected.all()
