"""Candidate pools, the stage learning functions and candidate selection."""

import numpy as np
import pytest

from s4is.learning import (CandidatePool, PoolExhausted, lf1_scores,
                           lf2_scores, min_distances, select_next)


def test_min_distance_helpers():
    support = np.array([[0.0, 0.0], [2.0, 0.0]])
    d = min_distances(np.array([[3.0, 0.0], [-1.0, 0.0]]), support)
    np.testing.assert_allclose(d, [1.0, 1.0])


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
    scores = lf2_scores(abs_means, dmin, log_pn, log_q2)
    assert scores[0] < scores[1]
    assert scores[0] == pytest.approx(scores[1] - 2.0)


def test_select_next_argmin_and_marking():
    pool = CandidatePool(np.array([[0.0], [1.0], [2.0]]))
    scores = np.array([3.0, -1.0, 0.5])
    idx = select_next(pool, scores)
    assert idx == 1
    assert pool.selected[1]
    # next call skips the selected candidate
    assert select_next(pool, scores) == 2


def test_select_next_tie_breaks_to_lowest_index():
    pool = CandidatePool(np.array([[0.0], [1.0], [2.0]]))
    assert select_next(pool, np.array([1.0, 1.0, 1.0])) == 0


def test_pool_exhaustion():
    pool = CandidatePool(np.array([[0.0]]))
    select_next(pool, np.array([0.0]))
    with pytest.raises(PoolExhausted):
        select_next(pool, np.array([0.0]))
    assert pool.selected.all()


def test_pool_extend():
    pool = CandidatePool(np.array([[0.0], [1.0]]))
    pool.selected[0] = True
    pool.extend(np.array([[2.0]]))
    assert len(pool) == 3
    assert np.count_nonzero(~pool.selected) == 2
