"""Marginal transforms, standard-normal helpers and the Gaussian mixture."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from s4is.errors import DomainError
from s4is.probability import (_COLUMNWISE_MIN_ROWS, GaussianMixture, Marginal,
                              RandomVector, hypercube_density, log_std_normal_pdf,
                              sample_hypercube)

RNG = np.random.default_rng(0)


@pytest.mark.parametrize("marginal", [
    Marginal("normal", 0.0, 1.0),
    Marginal("normal", 1.5, 0.3),
    Marginal("lognormal", 1.0, 0.2),
    Marginal("lognormal", 1.0, 2.0),
    Marginal("uniform", 2.0, 0.5),
])
def test_roundtrip_u_theta_u(marginal):
    u = RNG.standard_normal(1000)
    back = marginal.to_u(marginal.from_u(u))
    np.testing.assert_allclose(back, u, atol=1e-9, rtol=0)


@pytest.mark.parametrize("marginal,lo,hi", [
    (Marginal("normal", 0.0, 1.0), -5, 5),
    (Marginal("lognormal", 1.0, 0.2), 0.3, 3.0),
    (Marginal("uniform", 2.0, 0.5), 2 - 0.5 * math.sqrt(3) + 1e-6,
     2 + 0.5 * math.sqrt(3) - 1e-6),
])
def test_roundtrip_theta_u_theta(marginal, lo, hi):
    theta = RNG.uniform(lo, hi, 1000)
    back = marginal.from_u(marginal.to_u(theta))
    np.testing.assert_allclose(back, theta, atol=1e-9, rtol=1e-9)


def test_lognormal_log_params():
    # moments (1, 2): sigma^2 = log(1 + 4), mu = -sigma^2 / 2
    mu, sigma = Marginal("lognormal", 1.0, 2.0).log_params()
    assert sigma == pytest.approx(1.2686362, abs=1e-6)
    assert mu == pytest.approx(-0.8047190, abs=1e-6)
    assert math.exp(mu) == pytest.approx(0.4472136, abs=1e-6)


def test_lognormal_moments_recovered_by_sampling():
    m = Marginal("lognormal", 1.0, 0.2)
    theta = m.from_u(RNG.standard_normal(400_000))
    assert theta.mean() == pytest.approx(1.0, abs=5e-3)
    assert theta.std() == pytest.approx(0.2, abs=5e-3)
    assert (theta > 0).all()


def test_uniform_bounds_match_moments():
    lo, hi = Marginal("uniform", 2.0, 0.5).uniform_bounds()
    assert (lo + hi) / 2 == pytest.approx(2.0)
    assert (hi - lo) / math.sqrt(12) == pytest.approx(0.5)


def _stacked_from_u(rv, u):
    """The column-by-column transform the one-pass transform must reproduce."""
    return np.stack([m.from_u(u[:, i]) for i, m in enumerate(rv.marginals)], axis=-1)


@pytest.mark.parametrize("marginals", [
    [Marginal("normal", 0.0, 1.0)],
    [Marginal("normal", 0.3 * i - 1.0, 0.2 + 0.1 * i) for i in range(10)],
    [Marginal("lognormal", 1.0, 0.2) for _ in range(10)],
    [Marginal("lognormal", 0.5 + i, 0.1 + 0.3 * i) for i in range(3)],
    [Marginal("uniform", 2.0, 0.5), Marginal("uniform", -1.0, 3.0)],
    [Marginal("normal", 1.0, 2.0), Marginal("lognormal", 1.0, 0.2),
     Marginal("uniform", 0.0, 1.0)],
    [Marginal("lognormal", 2.0, 0.5), Marginal("uniform", 1.0, 0.3),
     Marginal("normal", -1.0, 0.4), Marginal("lognormal", 0.7, 0.1),
     Marginal("uniform", -2.0, 1.5)],
], ids=["normal_d1", "normal_d10", "lognormal_d10", "lognormal_d3", "uniform",
        "mixed", "mixed_interleaved"])
def test_from_standard_normal_equals_columnwise(marginals):
    rv = RandomVector(tuple(marginals))
    u = np.random.default_rng(11).standard_normal((70_001, rv.dim)) * 2.0
    # Short rows go column by column from _COLUMNWISE_MIN_ROWS rows on.
    for rows in (u, u[:_COLUMNWISE_MIN_ROWS], u[:_COLUMNWISE_MIN_ROWS - 1]):
        assert np.array_equal(rv.from_standard_normal(rows), _stacked_from_u(rv, rows))
    assert np.array_equal(rv.from_standard_normal(u[5]), _stacked_from_u(rv, u[5:6])[0])


@pytest.mark.parametrize("kinds", [("normal",) * 4, ("lognormal",) * 4,
                                   ("normal", "lognormal", "uniform", "normal")])
def test_non_finite_u_names_first_bad_component(kinds):
    rv = RandomVector(tuple(Marginal(kind, 1.0, 0.2) for kind in kinds))
    u = np.zeros((5, 4))
    u[3, 2] = np.nan
    u[1, 3] = np.inf
    with pytest.raises(DomainError, match="^component 2: non-finite u-space input$"):
        rv.from_standard_normal(u)


@pytest.mark.parametrize("kind, mean, sd", [
    ("normal", math.nan, 1.0),
    ("normal", math.inf, 1.0),
    ("normal", 0.0, math.inf),
    ("lognormal", 1.0, 1e300),  # (sd / mean)^2 overflows
    ("lognormal", math.inf, 1.0),
    ("uniform", 0.0, 1e308),  # the width overflows
    ("uniform", -math.inf, 1.0),
])
def test_non_finite_or_overflowing_parameters_raise_domain_error(kind, mean, sd):
    with pytest.raises(DomainError, match="finite"):
        Marginal(kind, mean, sd)


def test_vector_roundtrip_shapes():
    rv = RandomVector((Marginal("normal", 1.0, 2.0),
                       Marginal("lognormal", 1.0, 0.2),
                       Marginal("uniform", 0.0, 1.0)))
    u = RNG.standard_normal((50, 3))
    theta = rv.from_standard_normal(u)
    assert theta.shape == (50, 3)
    back = np.stack([m.to_u(theta[:, i]) for i, m in enumerate(rv.marginals)], axis=-1)
    np.testing.assert_allclose(back, u, atol=1e-9)
    # 1-d in, 1-d out
    assert rv.from_standard_normal(u[0]).shape == (3,)


def test_hypercube_density():
    assert hypercube_density(np.zeros(2)) == pytest.approx(1 / 100)
    assert hypercube_density(np.array([5.0, -5.0])) == pytest.approx(1 / 100)
    assert hypercube_density(np.array([5.1, 0.0])) == 0.0
    d3 = hypercube_density(np.zeros((1, 3)))
    assert d3[0] == pytest.approx(1 / 1000)


def test_sample_hypercube_within_bounds():
    pts = sample_hypercube(3, 500, np.random.default_rng(1))
    assert pts.shape == (500, 3)
    assert (np.abs(pts) <= 5.0).all()


def test_gm_logpdf_matches_manual():
    centers = np.array([[0.0, 0.0], [3.0, 0.0]])
    gm = GaussianMixture(centers)
    u = RNG.standard_normal((40, 2))
    manual = 0.5 * (np.exp(log_std_normal_pdf(u))
                    + np.exp(log_std_normal_pdf(u - centers[1])))
    np.testing.assert_allclose(np.exp(gm.logpdf(u)), manual, rtol=1e-12)


def _logsumexp_reference(centers, u):
    """The mixture log density as scipy's logsumexp gives it."""
    u = np.asarray(u, dtype=float)
    diff = np.atleast_2d(u)[:, None, :] - centers[None, :, :]
    comp = -0.5 * (centers.shape[1] * math.log(2 * math.pi)
                   + np.sum(diff * diff, axis=-1))
    out = logsumexp(comp, axis=1) - math.log(centers.shape[0])
    return out[0] if u.ndim == 1 else out


# Below eight terms (k or d) the kernel adds rows one by one, from eight on
# numpy sums over the last axis; k = 9 and 130 sum the k terms in numpy's
# blocked and halved pairwise orders.
@pytest.mark.parametrize("k", [1, 3, 4, 7, 8, 9, 130])
@pytest.mark.parametrize("d", [1, 2, 7, 8, 10])
def test_gm_logpdf_equals_scipy_logsumexp(k, d):
    rng = np.random.default_rng(100 * k + d)
    centers = 3.0 * rng.standard_normal((k, d))
    if k > 1:
        centers[1] = centers[0]  # two maximal terms (m = 2) near centre 0
    gm = GaussianMixture(centers)
    near = centers[rng.integers(0, k, 3000)] + rng.standard_normal((3000, d))
    far = centers.max() + 60.0 + rng.random((50, d))  # every term underflows exp
    # 1e200: every term -inf; NaN: a NaN maximum. Both take the direct form.
    u = np.vstack([near, far, np.full((1, d), 1e200), np.full((1, d), np.nan)])
    with np.errstate(over="ignore"):  # (1e200)^2
        want = _logsumexp_reference(centers, u)
        assert np.array_equal(gm.logpdf(u), want, equal_nan=True)
    assert np.all(np.exp(want[3000:3050]) == 0.0) and np.all(np.isfinite(want[3000:3050]))
    assert want[-2] == -np.inf and np.isnan(want[-1])
    for row in (near[0], centers[0], far[0]):  # 1-d in, scalar out
        assert gm.logpdf(row) == _logsumexp_reference(centers, row)


@pytest.mark.parametrize("width", [1, 3])
def test_gm_logpdf_rejects_rows_of_another_width(width):
    gm = GaussianMixture([[1.0, 2.0], [0.0, -1.0]])
    for u in (np.zeros((3, width)), np.zeros(width)):
        with pytest.raises(DomainError, match=r"^expected points of dimension 2, got shape"):
            gm.logpdf(u)
    with pytest.raises(DomainError):
        gm.logpdf(np.zeros((4, 3, 2)))


# d < 8 takes the first-axis sum of the (d, n) squares, d >= 8 numpy's sum
# over the last axis.
@pytest.mark.parametrize("d", range(1, 13))
def test_log_std_normal_pdf_equals_numpy_sum(d):
    rng = np.random.default_rng(d)
    u = rng.standard_normal((5001, d)) * rng.uniform(0.1, 30.0, d)
    # (n, d), (d,), (1, d), strided, leading shape (3, 1667), Fortran-ordered
    for v in (u, u[7], u[7:8], u[:, ::-1], u.reshape(3, 1667, d), np.asfortranarray(u)):
        want = -0.5 * (d * math.log(2 * math.pi) + np.sum(v * v, axis=-1))
        got = log_std_normal_pdf(v)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def test_gm_normalization_monte_carlo():
    # E_pn[q/pn] = 1 when q integrates to one
    gm = GaussianMixture(np.array([[1.0, -1.0], [-2.0, 0.5], [0.0, 3.0]]))
    u = gm.sample(200_000, np.random.default_rng(3))
    ratio = np.exp(log_std_normal_pdf(u) - gm.logpdf(u))
    assert ratio.mean() == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("n", [(1 << 16) + 17, 5000])
def test_gm_block_draws_concatenate_to_one_sample(n):
    gm = GaussianMixture(np.array([[1.0, -1.0], [-2.0, 0.5], [0.0, 3.0]]))
    draw = gm.block_sampler(n, np.random.default_rng(7))
    cuts = list(range(0, n, 1 << 12)) + [n]
    blocks = [draw(slice(a, b)) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.vstack(blocks), gm.sample(n, np.random.default_rng(7)))


@pytest.mark.parametrize("k", [1, 4, 300])  # one-byte indices, and two past 256 centres
def test_gm_sample_equals_the_int64_index_construction(k):
    gm = GaussianMixture(np.random.default_rng(k).normal(scale=3.0, size=(k, 3)))
    n = 5000
    rng, replay = np.random.default_rng(11), np.random.default_rng(11)
    got = gm.sample(n, rng)
    idx = replay.integers(0, k, size=n)
    assert idx.dtype == np.int64
    want = replay.standard_normal((n, 3))
    want += gm.centers[idx]
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_gm_sampling_matches_density():
    gm = GaussianMixture(np.array([[2.0], [-2.0]]))
    u = gm.sample(100_000, np.random.default_rng(4))
    assert abs(u.mean()) < 0.05  # symmetric mixture
    assert u.var() == pytest.approx(5.0, rel=0.05)  # 1 + 4


@given(st.floats(-3, 3), st.floats(0.05, 3))
@settings(max_examples=50, deadline=None)
def test_normal_roundtrip_property(mean, sd):
    m = Marginal("normal", mean, sd)
    u = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(m.to_u(m.from_u(u)), u, atol=1e-9)
