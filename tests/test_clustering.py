"""k-means clustering, per-cluster MPP extraction and mixture building."""

import numpy as np
import pytest

from s4is.clustering import ClusterAssignment, kmeans, mpp_per_cluster
from s4is.probability import GaussianMixture, log_std_normal_pdf


def _blobs(seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal([0, 0], 0.3, size=(40, 2)),
        rng.normal([5, 5], 0.3, size=(40, 2)),
        rng.normal([-5, 5], 0.3, size=(40, 2)),
    ])


def test_kmeans_recovers_blobs():
    pts = _blobs()
    a = kmeans(pts, 3, np.random.default_rng(1))
    assert a.k == 3
    assert len(np.unique(a.labels)) == 3
    found = a.centroids[np.lexsort(a.centroids.T)]
    expect = np.array([[-5, 5], [0, 0], [5, 5]])
    expect = expect[np.lexsort(expect.T)]
    np.testing.assert_allclose(found, expect, atol=0.3)


def test_inertia_monotone_in_k():
    pts = _blobs()
    rng = np.random.default_rng(2)
    inertias = [kmeans(pts, k, rng).inertia for k in (1, 2, 3, 4)]
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


def test_inertia_equals_assignment_cost():
    pts = _blobs()
    a = kmeans(pts, 3, np.random.default_rng(3))
    cost = sum(np.sum((pts[a.labels == j] - c) ** 2)
               for j, c in enumerate(a.centroids))
    assert a.inertia == pytest.approx(cost, rel=1e-12)


def test_k_reduced_when_too_few_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    a = kmeans(pts, 4, np.random.default_rng(0))
    assert a.k == 2
    assert a.reduced
    assert a.requested_k == 4


def test_mpp_per_cluster_membership_and_min_norm():
    pts = _blobs()
    a = kmeans(pts, 3, np.random.default_rng(4))
    mpps = mpp_per_cluster(pts, a)
    assert mpps.shape == (3, 2)
    for j, mpp in enumerate(mpps):
        members = pts[a.labels == j]
        # the MPP is an actual member of its cluster...
        assert any(np.array_equal(mpp, m) for m in members)
        # ...and no member is closer to the origin
        assert np.linalg.norm(mpp) <= np.linalg.norm(members, axis=1).min() + 1e-12


def test_mpp_tie_breaks_to_lowest_index():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    one = ClusterAssignment(np.zeros(3, dtype=int),
                            pts.mean(axis=0, keepdims=True), 0.0, 1)
    mpps = mpp_per_cluster(pts, one)
    np.testing.assert_array_equal(mpps[0], pts[2])  # unique min norm
    # exact norm tie between index 0 and 1 within the first cluster
    two = ClusterAssignment(np.array([0, 0, 1]),
                            np.vstack([pts[:2].mean(axis=0), pts[2:]]),
                            0.0, 2)
    mpps = mpp_per_cluster(pts, two)
    np.testing.assert_array_equal(mpps[0], pts[0])


def test_build_gm_equal_weights_identity_covariance():
    mpps = np.array([[3.0, 0.0], [0.0, 3.0]])
    gm = GaussianMixture(mpps)
    assert gm.n_components == 2
    u = np.random.default_rng(5).standard_normal((50, 2))
    a = np.exp(log_std_normal_pdf(u - mpps[0]))
    b = np.exp(log_std_normal_pdf(u - mpps[1]))
    np.testing.assert_allclose(np.exp(gm.logpdf(u)), 0.5 * (a + b), rtol=1e-10)


def test_kmeans_deterministic_given_rng_state():
    pts = _blobs()
    a = kmeans(pts, 3, np.random.default_rng(9))
    b = kmeans(pts, 3, np.random.default_rng(9))
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_allclose(a.centroids, b.centroids)
