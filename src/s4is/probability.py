"""Marginal distributions, the standard-normal transform and sampling densities.

All densities and samplers work in u-space (independent standard normal
coordinates). Original-space inputs are mapped componentwise through
u_i = Phi^-1(F_i(theta_i)); only independent marginals are supported.

:meth:`RandomVector.from_standard_normal` maps u to theta in one pass over
the whole array, ``loc + scale * u`` with per-column parameters computed
once, then ``exp`` on the lognormal columns and ``loc + scale * Phi(u)`` on
the uniform ones; it gives the values of :meth:`Marginal.from_u` column by
column, bit for bit. :meth:`GaussianMixture.logpdf` takes the log-sum-exp
over the components with the algorithm of ``scipy.special.logsumexp``, one
(n,) row per component, summing the k terms of each point over the same
C-ordered (n, k) layout scipy sums, so it returns scipy's values bit for
bit without scipy's per-call array-API overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

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
        # Per-column rows of the one-pass transform: theta = loc + scale * z,
        # z = u for normal and lognormal columns (exponentiated afterwards
        # for lognormal ones) and z = Phi(u) for uniform ones.
        loc, scale = [], []
        for m in self.marginals:
            if m.kind == "normal":
                lo, sc = m.mean, m.sd
            elif m.kind == "lognormal":
                lo, sc = m.log_params()
            else:
                lo, hi = m.uniform_bounds()
                sc = hi - lo
            loc.append(lo)
            scale.append(sc)
        kinds = np.array([m.kind for m in self.marginals])
        object.__setattr__(self, "_loc", np.array(loc))
        object.__setattr__(self, "_scale", np.array(scale))
        object.__setattr__(self, "_lognormal", np.flatnonzero(kinds == "lognormal"))
        object.__setattr__(self, "_uniform", np.flatnonzero(kinds == "uniform"))

    @property
    def dim(self):
        return len(self.marginals)

    def from_standard_normal(self, u):
        u = np.asarray(u, dtype=float)
        squeezed = u.ndim == 1
        u2 = np.atleast_2d(u)
        if u2.shape[-1] != self.dim:
            raise DomainError(f"expected dimension {self.dim}, got {u2.shape[-1]}")
        finite = np.isfinite(u2)
        if not finite.all():
            i = int(np.argmin(finite.all(axis=0)))
            raise DomainError(f"component {i}: non-finite u-space input")
        theta = u2 * self._scale
        theta += self._loc
        ln, uni = self._lognormal, self._uniform
        if ln.size == self.dim:
            np.exp(theta, out=theta)
        elif ln.size:
            theta[:, ln] = np.exp(theta[:, ln])
        if uni.size:
            theta[:, uni] = self._loc[uni] + self._scale[uni] * ndtr(u2[:, uni])
        return theta[0] if squeezed else theta


def log_std_normal_pdf(u):
    """Log density of the d-variate standard normal, over the last axis."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    return -0.5 * (d * _LOG_2PI + np.sum(u * u, axis=-1))


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
        u2 = np.atleast_2d(u)
        # Component log densities, one row per centre; sums over the
        # components run on a C-ordered (n, k) copy, the layout scipy sums.
        a = np.empty((self.n_components, u2.shape[0]))
        for row, center in zip(a, self.centers):
            diff = u2 - center
            row[:] = -0.5 * (self.dim * _LOG_2PI + np.sum(diff * diff, axis=-1))
        # scipy.special.logsumexp over the components: the m maximal terms
        # are taken out of the sum, the rest scaled by exp(-a_max).
        a_max = a.max(axis=0)
        at_max = a == a_max
        m = np.sum(at_max, axis=0, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = np.exp(a - a_max)
            e[at_max] = 0.0
            s = np.ascontiguousarray(e.T).sum(axis=1)
            s = np.where(s == 0, s, s / m)
            out = np.log1p(s) + np.log(m) + a_max
            # Where that is not finite (every term -inf, or NaN input),
            # scipy returns the direct log(sum(exp(a))).
            bad = ~np.isfinite(out)
            if bad.any():
                out[bad] = np.log(np.ascontiguousarray(np.exp(a[:, bad]).T).sum(axis=1))
        out -= math.log(self.n_components)
        return out[0] if u.ndim == 1 else out

    def sample(self, n, rng):
        """n i.i.d. draws; component picked uniformly, then a unit-normal jitter."""
        idx = rng.integers(0, self.n_components, size=n)
        return self.centers[idx] + rng.standard_normal(size=(n, self.dim))
