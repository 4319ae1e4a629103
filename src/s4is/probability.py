"""Marginal distributions, the standard-normal transform and sampling densities.

All densities and samplers work in u-space (independent standard normal
coordinates). Original-space inputs are mapped componentwise through
u_i = Phi^-1(F_i(theta_i)); only independent marginals are supported.

:meth:`RandomVector.from_standard_normal` maps u to theta as
``loc + scale * u`` with per-column parameters computed once, then ``exp``
on the lognormal columns and ``loc + scale * Phi(u)`` on the uniform ones;
it gives the values of :meth:`Marginal.from_u` column by column, bit for
bit. :meth:`GaussianMixture.logpdf` takes the log-sum-exp over the
components with the algorithm of ``scipy.special.logsumexp``, one (n,) row
per component, so it returns scipy's values bit for bit without scipy's
per-call array-API overhead.

Short rows. numpy sums fewer than eight terms over an array's last axis
one after another, from the first, but runs its inner loop over those few
terms, a few elements at a time. Over the first axis of a C-ordered array
it adds whole rows in that same order, with long inner loops.
:func:`log_std_normal_pdf` and :meth:`GaussianMixture.logpdf` therefore
sum d < 8 squared coordinates over the first axis of a C-ordered (d, n)
array, and the mixture sums its k < 8 component terms over the first axis
of its (k, n) array: the same additions in the same order, so the same
values bit for bit, with (n,)-long inner loops. From eight terms on numpy
sums pairwise, and both keep numpy's own sum over the last axis. For the
same reason :meth:`RandomVector.from_standard_normal` writes a long array
of at most three columns one column at a time; wider or shorter arrays
take one whole-array pass, which is faster there (2-core x86, numpy 2.4).
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
# numpy sums fewer terms than this over a last axis left to right, more pairwise.
_PAIRWISE_MIN = 8
# from_standard_normal goes column by column for at most this many columns
# and at least this many rows, where that was measured to be faster.
_COLUMNWISE_MAX_DIM = 3
_COLUMNWISE_MIN_ROWS = 512


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
        try:
            finite = all(math.isfinite(v) for v in (self.mean, self.sd, *self._loc_scale()))
        except OverflowError:  # beyond the float range
            finite = False
        if not finite:
            raise DomainError(f"{self.kind} marginal with mean {self.mean!r} and sd "
                              f"{self.sd!r}: its parameters must be finite floats")

    def _loc_scale(self):
        """(loc, scale) of the one-pass transform, see :class:`RandomVector`."""
        if self.kind == "normal":
            return self.mean, self.sd
        if self.kind == "lognormal":
            return self.log_params()
        lo, hi = self.uniform_bounds()
        return lo, hi - lo

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
        loc, scale = self._loc_scale()
        theta = loc + scale * (ndtr(u) if self.kind == "uniform" else u)
        return np.exp(theta) if self.kind == "lognormal" else theta


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
        loc, scale = zip(*(m._loc_scale() for m in self.marginals))
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
        if self.dim <= _COLUMNWISE_MAX_DIM and u2.shape[0] >= _COLUMNWISE_MIN_ROWS:
            theta = np.empty(u2.shape)
            for m, col, u_col, loc, scale in zip(self.marginals, theta.T, u2.T,
                                                 self._loc, self._scale):
                np.multiply(ndtr(u_col) if m.kind == "uniform" else u_col, scale, out=col)
                col += loc
                if m.kind == "lognormal":
                    np.exp(col, out=col)
            return theta
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
    if 0 < d < _PAIRWISE_MIN:
        sq = np.square(np.moveaxis(u, -1, 0), order="C").sum(axis=0)
    else:
        sq = np.sum(u * u, axis=-1)
    return -0.5 * (d * _LOG_2PI + sq)


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
    """Equal-weight, identity-covariance Gaussian mixture in u-space.

    Draws go through :meth:`block_sampler`, which also serves a caller that
    takes the n draws a block at a time; :meth:`sample` is its one-block
    case.
    """

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

    def _component_logpdfs(self, u2):
        """(k, n) log densities of the (n, d) points under each centre's
        unit normal; short rows of squared coordinates are summed over the
        first axis of their (d, n) array (module docstring)."""
        k, d = self.centers.shape
        a = np.empty((k, u2.shape[0]))
        if d < _PAIRWISE_MIN:
            cols = np.ascontiguousarray(u2.T)
            diff = np.empty_like(cols)
            for row, center in zip(a, self.centers):
                np.subtract(cols, center[:, None], out=diff)
                diff *= diff
                np.sum(diff, axis=0, out=row)
        else:
            for row, center in zip(a, self.centers):
                diff = u2 - center
                row[:] = np.sum(diff * diff, axis=-1)
        a += d * _LOG_2PI
        a *= -0.5
        return a

    def logpdf(self, u):
        u = np.asarray(u, dtype=float)
        u2 = np.atleast_2d(u)
        if u2.ndim != 2 or u2.shape[1] != self.dim:
            raise DomainError(f"expected points of dimension {self.dim}, got shape {u.shape}")
        k = self.n_components
        a = self._component_logpdfs(u2)
        # scipy.special.logsumexp over the components: the m maximal terms
        # are taken out of the sum, the rest scaled by exp(-a_max).
        a_max = a.max(axis=0)
        at_max = a == a_max
        m = np.sum(at_max, axis=0, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # The maximal terms' exp(0.0) = 1.0 become 0.0 as a product with
            # the mask, one pass without the index arrays of a masked store.
            # Rows with a non-finite a_max fall to the direct form below.
            e = a - a_max
            np.exp(e, out=e)
            e *= ~at_max
            # The k terms of each point in scipy's order: a first-axis sum below
            # eight, else numpy's pairwise sum over the C-ordered (n, k) copy.
            s = e.sum(axis=0) if k < _PAIRWISE_MIN else np.ascontiguousarray(e.T).sum(axis=1)
            s = np.where(s == 0, s, s / m)
            out = np.log1p(s) + np.log(m) + a_max
            # Where that is not finite (every term -inf, or NaN input),
            # scipy returns the direct log(sum(exp(a))).
            bad = ~np.isfinite(out)
            if bad.any():
                out[bad] = np.log(np.ascontiguousarray(np.exp(a[:, bad]).T).sum(axis=1))
        out -= math.log(k)
        return out[0] if u.ndim == 1 else out

    def block_sampler(self, n, rng):
        """n i.i.d. draws, taken block by block: the n component indices are
        drawn here, at once, and ``draw(block)`` returns the rows of the
        slice ``block`` of range(n), a unit-normal jitter on each picked
        centre. Blocks drawn in order give the points of :meth:`sample`,
        bit for bit: the generator's normal stream is that of one (n, d)
        draw.

        The indices come from one int64 ``rng.integers`` draw and are kept
        in the smallest unsigned type that holds them, one byte each up to
        256 centres; the int64 array is freed before this returns."""
        idx = rng.integers(0, self.n_components, size=n)
        idx = idx.astype(np.min_scalar_type(self.n_components - 1))

        def draw(block):
            picked = idx[block]
            u = rng.standard_normal(size=(picked.size, self.dim))
            u += self.centers[picked]
            return u
        return draw

    def sample(self, n, rng):
        """n i.i.d. draws; component picked uniformly, then a unit-normal jitter."""
        return self.block_sampler(n, rng)(slice(0, n))
