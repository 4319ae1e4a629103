"""Failure-probability estimators: crude Monte Carlo and importance sampling.

Conventions: failure is g <= 0 (boundary counts as failure); a zero estimate
is returned with its CoV flagged undefined rather than raising.

An IS estimate is made from one (n,) array of weighted indicators, filled
block by block through :func:`failure_weights`, the one place where a zero
importance density at a failure raises, and finished by
:func:`is_estimate_from_weighted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DensitySupportError

# Rows that every sample-sized loop takes at a time, so that its temporaries
# keep this size whatever the sample count: the weights of
# is_estimate_from_log, and the draws that the sample-based references
# (crude MCS and the true-g oracle) transform and evaluate. At d = 10 one
# block of draws is 1.25 MiB, and crude MCS holds about 2.2 blocks at once
# (tracemalloc): the block under evaluation, its transform and g's
# temporaries. What stays O(n) is each reference's per-sample results.
REFERENCE_BLOCK_ROWS = 1 << 14


@dataclass
class ReliabilityEstimate:
    pf: float
    variance: float
    cov: float  # NaN when undefined (pf == 0)
    n_eval: int = 0
    n_samples: int = 0

    @property
    def cov_defined(self):
        return not math.isnan(self.cov)


def _finish(pf, variance, n_samples):
    cov = math.sqrt(variance) / pf if pf > 0 else math.nan
    return ReliabilityEstimate(pf=float(pf), variance=float(variance), cov=cov,
                               n_samples=int(n_samples))


def mcs_estimate(indicators):
    """Binomial estimate from 0/1 indicator values."""
    ind = np.asarray(indicators)
    n = ind.size
    pf = np.float64(np.count_nonzero(ind)) / n  # NaN, not an error, at n = 0
    variance = pf * (1.0 - pf) / n
    return _finish(pf, variance, n)


def is_variance_deviation(weighted, pf):
    """Sum-of-squared-deviations form of the IS estimator variance: the
    reference formula of :func:`is_estimate_from_log`'s, which takes it in
    place."""
    w = np.asarray(weighted, dtype=float)
    n = w.size
    if n < 2:
        return 0.0
    dev = w - pf
    return float(np.sum(np.square(dev, out=dev)) / (n * (n - 1)))


def is_variance_moment(weighted, pf):
    """Second-moment form of the IS estimator variance."""
    w = np.asarray(weighted, dtype=float)
    n = w.size
    if n < 2:
        return 0.0
    return float((np.mean(w * w) - pf * pf) / (n - 1))


def reference_blocks(n):
    """The slices of range(n), ``REFERENCE_BLOCK_ROWS`` rows each, in order."""
    return [slice(start, min(start + REFERENCE_BLOCK_ROWS, n))
            for start in range(0, n, REFERENCE_BLOCK_ROWS)]


def failure_weights(log_w):
    """The IS weights exp(log_w) of one block's failure samples, taken in
    place of their log weights; a weight that is +inf (the importance
    density is zero there) or NaN raises."""
    if not np.all(log_w < np.inf):
        raise DensitySupportError("importance density is zero at a failure sample")
    return np.exp(log_w, out=log_w)


def is_estimate_from_weighted(weighted):
    """IS estimate from the n weighted indicators w * 1{failure}, which it
    overwrites with their squared deviations from pf, so the variance is
    :func:`is_variance_deviation`'s bit for bit."""
    n = weighted.size
    pf = float(weighted.mean())
    variance = 0.0
    if n >= 2:
        weighted -= pf
        variance = float(np.sum(np.square(weighted, out=weighted)) / (n * (n - 1)))
    return _finish(pf, variance, n)


def is_estimate_from_log(indicators, log_w):
    """IS estimate from indicators and log weights log p - log q of target
    and proposal; a failure whose weight is +inf (q = 0) or NaN raises.

    Working in logs keeps likelihood ratios finite in high dimension where
    both densities underflow. The weighted indicators are the one (n,)
    array made here: they are filled block by block
    (:func:`reference_blocks`, :func:`failure_weights`), then finished by
    :func:`is_estimate_from_weighted`.
    """
    ind = np.asarray(indicators, dtype=bool)
    log_w = np.asarray(log_w, dtype=float)
    weighted = np.zeros(ind.size)
    for block in reference_blocks(ind.size):
        failed = ind[block]
        weighted[block][failed] = failure_weights(log_w[block][failed])
    return is_estimate_from_weighted(weighted)


def relative_error(reference_pf, pf):
    """|reference - pf| / reference."""
    if not reference_pf > 0:
        raise ValueError("reference failure probability must be positive")
    return abs(reference_pf - pf) / reference_pf
