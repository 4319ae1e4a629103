"""Failure-probability estimators: crude Monte Carlo and importance sampling.

Conventions: failure is g <= 0 (boundary counts as failure); a zero estimate
is returned with its CoV flagged undefined rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DensitySupportError


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

    def to_dict(self):
        return {
            "pf": self.pf,
            "variance": self.variance,
            "cov": None if not self.cov_defined else self.cov,
            "n_eval": self.n_eval,
            "n_samples": self.n_samples,
        }


def _finish(pf, variance, n_samples):
    cov = math.sqrt(variance) / pf if pf > 0 else math.nan
    return ReliabilityEstimate(pf=float(pf), variance=float(variance), cov=cov,
                               n_samples=int(n_samples))


def mcs_estimate(indicators):
    """Binomial estimate from 0/1 indicator values."""
    ind = np.asarray(indicators, dtype=float)
    n = ind.size
    pf = ind.mean()
    variance = pf * (1.0 - pf) / n
    return _finish(pf, variance, n)


def is_variance_deviation(weighted, pf):
    """Sum-of-squared-deviations form of the IS estimator variance."""
    w = np.asarray(weighted, dtype=float)
    n = w.size
    if n < 2:
        return 0.0
    return float(np.sum((w - pf) ** 2) / (n * (n - 1)))


def is_variance_moment(weighted, pf):
    """Second-moment form of the IS estimator variance."""
    w = np.asarray(weighted, dtype=float)
    n = w.size
    if n < 2:
        return 0.0
    return float((np.mean(w * w) - pf * pf) / (n - 1))


def is_estimate_from_log(indicators, log_p, log_q):
    """IS estimate from indicators and log densities of target and proposal.

    Working in logs keeps likelihood ratios finite in high dimension where
    both densities underflow.
    """
    ind = np.asarray(indicators, dtype=bool)
    log_p = np.asarray(log_p, dtype=float)
    log_q = np.asarray(log_q, dtype=float)
    n = ind.size
    if np.any(ind & ~np.isfinite(log_q)):
        raise DensitySupportError("importance density is zero at a failure sample")
    weighted = np.zeros(n)
    weighted[ind] = np.exp(log_p[ind] - log_q[ind])
    pf = float(weighted.mean())
    variance = is_variance_deviation(weighted, pf)
    return _finish(pf, variance, n)


def relative_error(reference_pf, pf):
    """|reference - pf| / reference."""
    if not reference_pf > 0:
        raise ValueError("reference failure probability must be positive")
    return abs(reference_pf - pf) / reference_pf
