"""Marginal distributions, the standard-normal transform and sampling densities.

All densities and samplers work in u-space (independent standard normal
coordinates). Original-space inputs are mapped componentwise through
u_i = Phi^-1(F_i(theta_i)); only independent marginals are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtr, ndtri

from .errors import DomainError

_SQRT3 = math.sqrt(3.0)
_LOG_2PI = math.log(2.0 * math.pi)

KINDS = ("normal", "lognormal", "uniform")
HYPERCUBE_HALF_WIDTH = 5.0  # of the u-space cube stage 1 draws its candidates from


@dataclass(frozen=True)
class Marginal:
    """One independent marginal, parameterized by original-space moments.

    For the lognormal kind ``mean``/``sd`` are the moments of the variable
    itself; the log-space parameters are derived lazily.
    """

    kind: str
    mean: float
    sd: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown marginal kind {self.kind!r}")
        if not self.sd > 0:
            raise DomainError("standard deviation must be positive")
        if self.kind == "lognormal" and not self.mean > 0:
            raise DomainError("lognormal requires a positive mean")

    def log_params(self):
        """Log-space (mu, sigma) of a lognormal from its moments."""
        sigma2 = math.log1p((self.sd / self.mean) ** 2)
        mu = math.log(self.mean) - 0.5 * sigma2
        return mu, math.sqrt(sigma2)

    def uniform_bounds(self):
        half = _SQRT3 * self.sd
        return self.mean - half, self.mean + half

    def to_u(self, theta):
        """Map original-space values to standard-normal coordinates."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "normal":
            return (theta - self.mean) / self.sd
        if self.kind == "lognormal":
            if np.any(theta <= 0):
                raise DomainError("lognormal support is theta > 0")
            mu, sigma = self.log_params()
            return (np.log(theta) - mu) / sigma
        a, b = self.uniform_bounds()
        if np.any(theta < a) or np.any(theta > b):
            raise DomainError("value outside uniform support")
        return ndtri((theta - a) / (b - a))

    def from_u(self, u):
        """Inverse of :meth:`to_u`."""
        u = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(u)):
            raise DomainError("non-finite u-space input")
        if self.kind == "normal":
            return self.mean + self.sd * u
        if self.kind == "lognormal":
            mu, sigma = self.log_params()
            return np.exp(mu + sigma * u)
        a, b = self.uniform_bounds()
        return a + (b - a) * ndtr(u)


@dataclass(frozen=True)
class RandomVector:
    """Ordered collection of independent marginals."""

    marginals: tuple

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if len(self.marginals) < 1:
            raise DomainError("need at least one marginal")

    @property
    def dim(self):
        return len(self.marginals)

    def to_standard_normal(self, theta):
        theta = np.asarray(theta, dtype=float)
        squeezed = theta.ndim == 1
        t2 = np.atleast_2d(theta)
        if t2.shape[-1] != self.dim:
            raise DomainError(f"expected dimension {self.dim}, got {t2.shape[-1]}")
        cols = []
        for i, m in enumerate(self.marginals):
            try:
                cols.append(m.to_u(t2[:, i]))
            except DomainError as exc:
                raise DomainError(f"component {i}: {exc}") from exc
        u = np.stack(cols, axis=-1)
        return u[0] if squeezed else u

    def from_standard_normal(self, u):
        u = np.asarray(u, dtype=float)
        squeezed = u.ndim == 1
        u2 = np.atleast_2d(u)
        if u2.shape[-1] != self.dim:
            raise DomainError(f"expected dimension {self.dim}, got {u2.shape[-1]}")
        cols = []
        for i, m in enumerate(self.marginals):
            try:
                cols.append(m.from_u(u2[:, i]))
            except DomainError as exc:
                raise DomainError(f"component {i}: {exc}") from exc
        theta = np.stack(cols, axis=-1)
        return theta[0] if squeezed else theta


def log_std_normal_pdf(u):
    """Log density of the d-variate standard normal, over the last axis."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    return -0.5 * (d * _LOG_2PI + np.sum(u * u, axis=-1))


def std_normal_pdf(u):
    """Density of the d-variate standard normal at u."""
    return np.exp(log_std_normal_pdf(u))


def hypercube_density(u):
    """Uniform density on the closed cube [-hw, hw]^d, zero outside, with
    hw = ``HYPERCUBE_HALF_WIDTH``."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    inside = np.all(np.abs(u) <= HYPERCUBE_HALF_WIDTH, axis=-1)
    return inside * (2.0 * HYPERCUBE_HALF_WIDTH) ** (-d)


def sample_hypercube(d, n, rng):
    """n i.i.d. uniform draws on [-hw, hw]^d, hw = ``HYPERCUBE_HALF_WIDTH``."""
    return rng.uniform(-HYPERCUBE_HALF_WIDTH, HYPERCUBE_HALF_WIDTH, size=(n, d))


@dataclass(frozen=True)
class GaussianMixture:
    """Equal-weight, identity-covariance Gaussian mixture in u-space."""

    centers: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if centers.shape[0] < 1:
            raise DomainError("mixture needs at least one center")
        object.__setattr__(self, "centers", centers)

    @property
    def n_components(self):
        return self.centers.shape[0]

    @property
    def dim(self):
        return self.centers.shape[1]

    def logpdf(self, u):
        u = np.asarray(u, dtype=float)
        diff = np.atleast_2d(u)[:, None, :] - self.centers[None, :, :]
        comp = -0.5 * (self.dim * _LOG_2PI + np.sum(diff * diff, axis=-1))
        out = logsumexp(comp, axis=1) - math.log(self.n_components)
        return out[0] if u.ndim == 1 else out

    def pdf(self, u):
        return np.exp(self.logpdf(u))

    def sample(self, n, rng):
        """n i.i.d. draws; component picked uniformly, then a unit-normal jitter."""
        idx = rng.integers(0, self.n_components, size=n)
        return self.centers[idx] + rng.standard_normal(size=(n, self.dim))
