"""k-means over failure samples and Gaussian-mixture construction.

Lloyd's algorithm with k-means++ seeding and restarts; the per-cluster
representative is the member nearest the origin in u-space (the point of
maximal standard-normal density), which stays well defined where the
density itself underflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .probability import GaussianMixture

_N_RESTARTS = 10  # k-means++ seedings per clustering; the best is kept
_MAX_ITER = 300  # Lloyd iterations per seeding


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    requested_k: int

    @property
    def k(self):
        return self.centroids.shape[0]

    @property
    def reduced(self):
        return self.k < self.requested_k


def _kmeans_pp_seed(points, k, rng):
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        idx = rng.choice(n, p=d2 / total)
        centers.append(points[idx])
        d2 = np.minimum(d2, np.sum((points - centers[-1]) ** 2, axis=1))
    return np.array(centers)


def _lloyd(points, centers):
    labels = None
    for _ in range(_MAX_ITER):
        dist = cdist(points, centers)
        new_labels = dist.argmin(axis=1)
        for j in range(centers.shape[0]):
            members = new_labels == j
            if not members.any():
                # Repair an empty cluster by reseeding from the point
                # farthest from its assigned centroid.
                idx = int(np.argmax(dist[np.arange(points.shape[0]), new_labels]))
                centers[j] = points[idx]
                new_labels[idx] = j
            else:
                centers[j] = points[members].mean(axis=0)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    inertia = float(np.sum((points - centers[labels]) ** 2))
    return labels, centers, inertia


def kmeans(points, k, rng):
    """The lowest-inertia Lloyd clustering of ``_N_RESTARTS`` k-means++
    seedings; k is reduced to the number of points when the failure set is
    small."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    requested = k
    k = min(k, n)
    if k < 1:
        raise ValueError("need at least one point")
    best = None
    for _ in range(_N_RESTARTS):
        centers = _kmeans_pp_seed(points, k, rng).copy()
        labels, centers, inertia = _lloyd(points, centers)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    labels, centers, inertia = best
    return ClusterAssignment(labels=labels, centroids=centers, inertia=inertia,
                             requested_k=requested)


def mpp_per_cluster(failure_points_u, assignment: ClusterAssignment):
    """Per-cluster member of minimal norm (maximal standard-normal density);
    ties break to the lowest sample index."""
    points = np.atleast_2d(np.asarray(failure_points_u, dtype=float))
    norms = np.linalg.norm(points, axis=1)
    mpps = []
    for j in range(assignment.k):
        members = np.flatnonzero(assignment.labels == j)
        if members.size == 0:
            continue
        best = members[int(np.argmin(norms[members]))]
        mpps.append(points[best])
    return np.array(mpps)


def build_gm(mpps):
    """Equal-weight identity-covariance mixture centered on the MPPs."""
    return GaussianMixture(np.atleast_2d(np.asarray(mpps, dtype=float)))
