"""Gaussian-process surrogate: interpolation, invariances and updates."""

import hashlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize import _lbfgsb_py
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.spatial._distance_pybind import cdist_sqeuclidean
from scipy.spatial.distance import cdist

import s4is.surrogate
from s4is.errors import FitError, S4isError, SupportPointError
from s4is.surrogate import (CompositeMinSurrogate, GpSurrogate,
                            SupportPointSet, fit_surrogate, update_surrogate)


def _training_data(n=20, d=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, size=(n, d))
    y = x[:, 0] ** 2 - x[:, 1] + np.sin(x.sum(axis=1))
    return x, y


def test_interpolates_training_points():
    x, y = _training_data()
    model = GpSurrogate().fit(x, y)
    mean, sd = model.predict(x)
    np.testing.assert_allclose(mean, y, atol=1e-4)
    assert np.all(sd < 1e-3)


def test_output_shift_invariance():
    x, y = _training_data()
    grid = np.random.default_rng(1).uniform(-3, 3, size=(30, 2))
    base = GpSurrogate().fit(x, y).predict_mean(grid)
    shifted = GpSurrogate().fit(x, y + 100.0).predict_mean(grid)
    np.testing.assert_allclose(shifted, base + 100.0, atol=1e-3)


def test_predictive_sd_grows_away_from_data():
    x, y = _training_data()
    model = GpSurrogate().fit(x, y)
    sd_near = model.predict_sd(x[:1] + 1e-3)
    sd_far = model.predict_sd(np.array([[30.0, -30.0]]))
    assert sd_far[0] > sd_near[0]


def test_optimizer_history_is_monotone_best_so_far():
    x, y = _training_data()
    model = GpSurrogate().fit(x, y)
    hist = np.asarray(model.nll_history)
    assert len(hist) >= 1
    assert np.all(np.diff(hist) <= 1e-12)


def test_constant_outputs_degenerate_fit():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    model = GpSurrogate().fit(x, np.full(3, 7.0))
    mean, sd = model.predict(np.array([[5.0, 5.0]]))
    assert mean[0] == pytest.approx(7.0)
    assert sd[0] == pytest.approx(0.0, abs=1e-12)


def test_duplicate_inputs_rejected():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        GpSurrogate().fit(x, np.array([1.0, 1.0, 2.0]))


def test_update_matches_fresh_fit():
    x, y = _training_data(15)
    rng = np.random.default_rng(3)
    x_new = rng.uniform(-3, 3, size=(1, 2))
    y_new = x_new[:, 0] ** 2 - x_new[:, 1] + np.sin(x_new.sum(axis=1))

    fresh = GpSurrogate().fit(np.vstack([x, x_new]), np.append(y, y_new))
    pts = SupportPointSet(x, x, y, y[:, None])
    updated = fit_surrogate(pts)
    pts.append(x_new[0], x_new[0], y_new[0], y_new)
    updated = update_surrogate(updated, pts)
    assert updated.n_appended == 1 and updated.nll_history == []
    # With no new point, the update re-optimises the appended model.
    updated = update_surrogate(updated, pts)
    assert updated.n_appended == 0

    # The refit starts at the old lengthscales, not at the fresh fit's
    # starts, so both reach the same optimum only to optimizer tolerance
    # (the means differ by about 7e-7 here).
    assert updated.nll_history[-1] <= fresh.nll_history[-1] + 1e-8
    grid = rng.uniform(-3, 3, size=(20, 2))
    np.testing.assert_allclose(updated.predict_mean(grid),
                               fresh.predict_mean(grid), atol=1e-5)


def _fixed_hyperparameter_fit(model, x, y):
    """A GP on (x, y) at ``model``'s lengthscales and relative nugget, from
    one full ``_factor``."""
    ref = GpSurrogate()
    ref.isotropic = model.isotropic
    assert ref._set_data(x, y) and ref._adopt(np.log(model.lengthscales), model._delta)
    return ref


@pytest.mark.parametrize("n, d, isotropic", [(20, 2, False), (40, 6, False),
                                              (40, 25, True)])
def test_append_matches_a_full_factor_at_fixed_hyperparameters(n, d, isotropic):
    rng = np.random.default_rng([n, d, 1])
    x = rng.uniform(-3, 3, size=(n, d))
    y = np.sin(x).sum(axis=1) + 0.1 * (x ** 2).sum(axis=1)
    pts = SupportPointSet(x[:-2], x[:-2], y[:-2], y[:-2, None])
    model = fit_surrogate(pts, isotropic=isotropic)
    for i in (n - 2, n - 1):
        pts.append(x[i], x[i], y[i], y[i:i + 1])
        model = update_surrogate(model, pts)
        assert model.n_appended == i - n + 3
        ref = _fixed_hyperparameter_fit(model, x[:i + 1], y[:i + 1])
        tol = 1e-6 * ref._y_sd
        assert model.trend == pytest.approx(ref.trend, abs=1e-6)
        assert model.signal_variance == pytest.approx(ref.signal_variance, rel=1e-6)
        assert model.nugget == pytest.approx(ref.nugget, rel=1e-6)
        u = rng.uniform(-4, 4, size=(50, d))
        np.testing.assert_allclose(model.predict_mean(u), ref.predict_mean(u),
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(model.predict_sd(u), ref.predict_sd(u),
                                   rtol=0, atol=tol)


def _grown(x, y, x_new, y_new):
    y = np.append(y, y_new)
    return SupportPointSet(np.vstack([x, x_new]), np.vstack([x, x_new]), y, y[:, None])


def test_every_third_point_takes_the_full_fit():
    x, y = _training_data(15)
    pts = SupportPointSet(x[:12], x[:12], y[:12], y[:12, None])
    model = fit_surrogate(pts)
    for i, expected in zip(range(12, 15), (1, 2, 0)):
        pts.append(x[i], x[i], y[i], y[i:i + 1])
        model = update_surrogate(model, pts)
        assert model.n_appended == expected
    assert len(model.nll_history) == 3  # the warm refit's three starts


def test_surprising_output_takes_the_full_fit():
    x, y = _training_data(13)
    model = GpSurrogate().fit(x[:12], y[:12])
    (mean,), (sd,) = model.predict(x[12:])
    assert sd > 1e-3
    for z, appended in ((2.9, 1), (-2.9, 1), (3.1, 0), (-3.1, 0)):
        updated = update_surrogate(model, _grown(x[:12], y[:12], x[12], mean + z * sd))
        assert updated.n_appended == appended
        assert len(updated.nll_history) == (0 if appended else 3)


def test_grown_matrix_not_positive_definite_takes_the_full_fit(monkeypatch):
    x, y = _training_data(13)
    model = GpSurrogate().fit(x[:12], y[:12])
    pts = _grown(x[:12], y[:12], x[12], y[12])
    original = s4is.surrogate.dpotrf
    calls = []

    def fails_first(r, lower, clean):
        # The append's factorization fails, as for a numerically repeated
        # point; the full fit's succeed.
        calls.append(r.shape[0])
        chol, info = original(r, lower=lower, clean=clean)
        return chol, (1 if len(calls) == 1 else info)

    monkeypatch.setattr(s4is.surrogate, "dpotrf", fails_first)
    updated = update_surrogate(model, pts)
    assert calls[0] == 13 and len(calls) > 1
    assert updated.n_appended == 0 and len(updated.nll_history) == 3


def test_constant_outputs_and_constant_gps_take_the_full_fit():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # Non-constant on two points, constant (sd < 1e-12) once the third
    # is added.
    model = GpSurrogate().fit(x[:2], np.array([0.0, 2.1e-12]))
    assert not model._constant
    assert model._append(x[2], 0.0) is None
    updated = update_surrogate(model, _grown(x[:2], np.array([0.0, 2.1e-12]), x[2], 0.0))
    assert updated._constant and updated.n_appended == 0
    # A constant GP is refitted from scratch, whatever the new output.
    constant = GpSurrogate().fit(x[:2], np.full(2, 7.0))
    for y_new, stays_constant in ((7.0, True), (8.0, False)):
        updated = update_surrogate(constant, _grown(x[:2], np.full(2, 7.0), x[2], y_new))
        assert updated._constant == stays_constant and updated.n_appended == 0


@pytest.mark.parametrize("x_new, y_new, error", [
    (np.array([1.0, 2.0]), np.nan, FitError),
    (np.array([np.inf, 2.0]), 1.0, FitError),
    (None, 1.0, SupportPointError),  # a copy of an existing input
])
def test_append_path_keeps_the_data_checks(monkeypatch, x_new, y_new, error):
    x, y = _training_data(12)
    model = GpSurrogate().fit(x, y)

    def no_optimizer(*args, **kwargs):
        raise AssertionError("optimizer called on the append path")

    monkeypatch.setattr(s4is.surrogate.optimize, "minimize", no_optimizer)
    x_new = x[4] if x_new is None else x_new
    # SupportPointSet checks only u for duplicates; x repeats here.
    y = np.append(y, y_new)
    pts = SupportPointSet(np.vstack([x, [9.0, 9.0]]), np.vstack([x, x_new]), y, y[:, None])
    with pytest.raises(error):
        update_surrogate(model, pts)


def _composite(x, comp, rule):
    """The composite surrogate of per-component outputs ``comp`` at ``x``."""
    return fit_surrogate(SupportPointSet(x, x, rule(comp), comp), rule)


def test_composite_min_of_component_means():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, size=(25, 2))
    comp = np.column_stack([x[:, 0] + 2.0, -x[:, 0] + 2.0])
    model = _composite(x, comp, lambda v: np.min(v, axis=-1))
    grid = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 0.0]])
    mean = model.predict_mean(grid)
    np.testing.assert_allclose(mean, [0.0, 0.0, 2.0], atol=1e-3)


def test_composite_applies_the_system_rule():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, size=(25, 2))
    comp = np.column_stack([x[:, 0] + 2.0, -x[:, 0] + 2.0 + 0.5 * np.sin(3 * x[:, 1])])
    model = _composite(x, comp, lambda v: np.max(v, axis=-1))
    grid = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(model.predict_mean(grid), [4.0, 4.0, 2.0], atol=1e-2)


def test_support_point_set_append_and_duplicates():
    pts = SupportPointSet(np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.0]),
                          np.array([[1.0, 2.0]]))
    pts.append(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.5,
               np.array([0.5, 0.7]))
    assert len(pts) == 2
    with pytest.raises(ValueError):
        pts.append(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.5,
                   np.array([0.5, 0.7]))


@pytest.mark.parametrize("part, bad", [("x", np.nan), ("x", np.inf),
                                       ("y", np.nan), ("y", -np.inf)])
def test_non_finite_training_data_raises_fit_error(monkeypatch, part, bad):
    x, y = _training_data()
    (x if part == "x" else y)[3] = bad

    def no_optimizer(*args, **kwargs):
        raise AssertionError("optimizer called on non-finite data")

    monkeypatch.setattr(s4is.surrogate.optimize, "minimize", no_optimizer)
    with pytest.raises(FitError, match="non-finite"):
        GpSurrogate().fit(x, y)


@pytest.mark.parametrize("n, d, isotropic, ls_range", [
    (20, 2, False, (1.0, 4.0)),
    (40, 6, False, (1.0, 4.0)),
    (60, 10, False, (1.0, 4.0)),
    (50, 25, True, (3.0, 12.0)),
])
def test_nll_gradient_matches_central_differences(n, d, isotropic, ls_range):
    rng = np.random.default_rng(n + d)
    x = rng.uniform(-3, 3, size=(n, d))
    y = np.sin(x).sum(axis=1) + 0.1 * (x ** 2).sum(axis=1)
    model = GpSurrogate().fit(x, y, n_restarts=1, isotropic=isotropic)
    h = 1e-4  # smaller steps drown in round-off once R is ill-conditioned
    for _ in range(3):
        p = rng.uniform(*np.log(ls_range), size=1 if isotropic else d)
        _, grad = model._nll(p, model._delta)
        fd = np.array([(model._nll(p + h * e, model._delta)[0]
                        - model._nll(p - h * e, model._delta)[0]) / (2 * h)
                       for e in np.eye(p.size)])
        assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))


def _plain_nll(model, log_ls, delta):
    """The concentrated NLL and its gradient written with plain
    expressions, step for step as ``GpSurrogate._nll`` computes them."""
    ls = np.exp(log_ls)
    if model.isotropic:
        ls = np.full(model.x.shape[1], float(ls[0]))
    n = model.x.shape[0]
    sq = cdist(model.x / ls, model.x / ls, "sqeuclidean")
    r = np.exp(-0.5 * sq)
    r.flat[::n + 1] += delta
    chol, info = dpotrf(r, lower=1, clean=0)
    assert info == 0
    rz, _ = dpotrs(chol, model._z, lower=1)
    r1, _ = dpotrs(chol, model._ones, lower=1)
    resid = model._z - (model._ones @ rz) / (model._ones @ r1)
    alpha, _ = dpotrs(chol, resid, lower=1)
    sigma2 = max(float(resid @ alpha) / n, 1e-300)
    nll = 0.5 * (n * math.log(sigma2) + 2.0 * np.log(chol.diagonal()).sum())
    w = np.ascontiguousarray(dpotrs(chol, np.eye(n), lower=1)[0])
    w = (w - alpha[:, None] * alpha / sigma2) * r
    if model.isotropic:
        return nll, np.array([0.5 * (w * sq).sum()])
    diffs = [np.subtract.outer(col, col) ** 2 for col in model.x.T]
    return nll, np.array([0.5 * (w * dk).sum() / lk ** 2 for dk, lk in zip(diffs, ls)])


@pytest.mark.parametrize("n, d, isotropic", [(12, 2, False), (30, 6, False), (25, 4, True)])
def test_in_place_kernels_equal_the_plain_expressions(n, d, isotropic):
    x, y = _training_data(n, d, seed=n)
    model = GpSurrogate().fit(x, y, n_restarts=1, isotropic=isotropic)
    rng = np.random.default_rng(d)
    for p in rng.uniform(-1.0, 2.0, size=(4, 1 if isotropic else d)):
        nll, grad = model._nll(p, model._delta)
        plain_nll, plain_grad = _plain_nll(model, p, model._delta)
        assert nll == plain_nll and np.array_equal(grad, plain_grad)
    u = rng.normal(size=(50, d))
    k = np.exp(-0.5 * cdist(u / model.lengthscales, x / model.lengthscales, "sqeuclidean"))
    plain = model._y_mean + model._y_sd * (model.trend + k @ model._alpha)
    assert np.array_equal(model.predict_mean(u), plain)


# (n, d, best NLL) of fits with finite-difference gradients on the datasets
# built by _recorded_dataset(i), with GpSurrogate().fit(x, y, seed=i).
_RECORDED_FITS = (
    (12, 2, -10.707199025647625), (15, 3, -27.99193540675889),
    (18, 4, -17.292329766546324), (20, 2, -40.893159530614284),
    (24, 5, -15.834051842786803), (28, 6, -26.043219702694916),
    (30, 3, -35.74375300033753), (35, 8, -23.289741971320826),
    (40, 10, -36.59210644435287), (45, 2, -236.73841274428005),
    (50, 4, -61.27108827207641), (55, 6, -52.62127464580094),
    (60, 10, -42.745421006992615), (64, 3, -29.263299659310405),
    (70, 5, -130.3518263939739), (80, 8, -55.58451450438503),
    (90, 2, -644.0072959264188), (100, 6, -59.64154137254298),
    (110, 4, -63.39484126301318), (120, 10, -82.32102054528251),
    (120, 2, -1055.9245594844697),
)


def _recorded_dataset(i):
    n, d, _ = _RECORDED_FITS[i]
    rng = np.random.default_rng([31, i])
    x = rng.uniform(-3.0, 3.0, size=(n, d))
    a = rng.normal(size=d)
    y = np.sin(x @ a) + 0.3 * np.sum(x ** 2, axis=1) / d - x[:, 0]
    return x, y


def test_recorded_fits_reach_recorded_likelihood():
    best = [GpSurrogate().fit(*_recorded_dataset(i), seed=i).nll_history[-1]
            for i in range(len(_RECORDED_FITS))]
    assert sum(best) <= sum(nll for _, _, nll in _RECORDED_FITS)


def _scipy_lbfgsb_requests(fun, x0, args, bounds, options):
    """scipy's own L-BFGS-B from ``x0`` and what its ``setulb`` asked for:
    the result, and one ("fg", x) per evaluation request and one
    ("iterate", x) per new iterate, in order. scipy answers a request at
    the point it evaluated last from memory, so counting its calls of
    ``fun`` would miss those requests."""
    events = []
    setulb = _lbfgsb_py._lbfgsb.setulb

    def recorded(*a):
        setulb(*a)
        x, task = a[1], a[11]
        if task[0] == s4is.surrogate._TASK_FG:
            events.append(("fg", x.copy()))
        elif task[0] == s4is.surrogate._TASK_NEW_X:
            events.append(("iterate", x.copy()))

    with mock.patch.object(_lbfgsb_py, "_lbfgsb", SimpleNamespace(setulb=recorded)):
        ref = optimize.minimize(fun, x0, args=args, jac=True, method="L-BFGS-B",
                                bounds=bounds, options=options)
    return ref, events


def _check_driver_against_scipy(fun, x0, args, bounds, maxiter=60):
    """Run ``fun`` from ``x0`` through the L-BFGS-B driver and through
    scipy's own L-BFGS-B and check the driver's contract:
    - it calls ``fun`` once per distinct point, and ``nfev`` counts the calls;
    - it evaluates the points scipy requests up to scipy's first run of more
      than ``_LBFGSB_MAXLS`` requests with no new iterate, and no others;
    - without such a run its x, value and iteration count are scipy's bit
      for bit; with one, it returns scipy's iterate at the start of the
      run, the value there and the iterations before it.
    Returns the driver's result and whether scipy's run had such a run."""
    calls = []

    def counted(p, *a):
        calls.append(p.tobytes())
        return fun(p, *a)

    options = {"maxiter": maxiter}
    res = optimize.minimize(counted, x0, args=args, method=s4is.surrogate._lbfgsb,
                            bounds=bounds, options=options)
    ref, events = _scipy_lbfgsb_requests(fun, x0, args, bounds, options)
    assert res.nfev == len(calls) == len(set(calls))
    requested, nit, since_iterate = set(), 0, -1  # the first request is for x0
    for kind, x in events:
        if kind == "iterate":
            iterate, nit, since_iterate = x, nit + 1, 0
            continue
        since_iterate += 1
        if since_iterate > s4is.surrogate._LBFGSB_MAXLS:
            break
        requested.add(x.tobytes())
    else:
        assert np.array_equal(res.x, ref.x)
        assert res.fun == ref.fun
        assert res.nit == ref.nit
        assert set(calls) == requested
        return res, False
    assert nit > 0  # a first search that fails ends scipy's run after maxls requests
    assert np.array_equal(res.x, iterate)
    assert res.fun == fun(iterate, *args)[0]
    assert res.nit == nit
    assert set(calls) == requested
    return res, True


class _PinnedOptimize:
    """``scipy.optimize`` for ``s4is.surrogate`` in which every start is
    also run through scipy's L-BFGS-B and must keep the driver's contract
    with it; ``cut`` records which starts ended at a failed line search."""

    def __init__(self):
        self.results = []
        self.cut = []

    def __getattr__(self, name):
        return getattr(optimize, name)

    def minimize(self, fun, x0, args, method, bounds, options):
        assert method is s4is.surrogate._lbfgsb
        res, cut = _check_driver_against_scipy(fun, x0, args, bounds, **options)
        self.results.append(res)
        self.cut.append(cut)
        return res


def test_driver_repeats_scipy_lbfgsb_on_every_start_of_the_recorded_fits(monkeypatch):
    pinned = _PinnedOptimize()
    monkeypatch.setattr(s4is.surrogate, "optimize", pinned)
    for i in range(len(_RECORDED_FITS)):
        GpSurrogate().fit(*_recorded_dataset(i), seed=i)
    GpSurrogate().fit(*_recorded_dataset(8), seed=8, isotropic=True)
    assert len(pinned.results) == 5 * (len(_RECORDED_FITS) + 1)
    assert all(res.x.shape == (1,) for res in pinned.results[-5:])
    assert any(pinned.cut) and not all(pinned.cut)  # both sides of the contract ran


def _rosenbrock_with_jitter(x):
    """Rosenbrock's function plus a jitter below 1e-6 fixed by the bytes of
    ``x``, and its exact gradient: deterministic, but noisy in its values."""
    h = int.from_bytes(hashlib.blake2b(x.tobytes(), digest_size=8).digest(), "little")
    return optimize.rosen(x) + 1e-6 * (2.0 * h / 2.0**64 - 1.0), optimize.rosen_der(x)


def test_driver_ends_a_start_at_its_first_failed_line_search():
    x0, bounds = np.array([-1.2, 1.0]), [(-3.0, 3.0)] * 2
    res, cut = _check_driver_against_scipy(_rosenbrock_with_jitter, x0, (), bounds)
    ref = optimize.minimize(_rosenbrock_with_jitter, x0, jac=True, method="L-BFGS-B",
                            bounds=bounds)
    # scipy searches again after the first failure, fails again and ends
    # on the same iterate, at a cost of 20 more evaluations or so.
    assert cut and ref.message.startswith("ABNORMAL")
    assert np.array_equal(res.x, ref.x) and res.nit == ref.nit
    assert res.nfev <= ref.nfev - 20


@pytest.mark.parametrize("shape_a, shape_b", [((15, 2), (15, 2)), ((1, 1), (40, 1)),
                                              ((300, 10), (7, 10)), ((5, 30), (5, 30))])
def test_sq_dist_routine_equals_cdist(shape_a, shape_b):
    rng = np.random.default_rng(shape_a[0])
    a, b = rng.normal(size=shape_a) * 5.0, rng.normal(size=shape_b)
    assert np.array_equal(cdist_sqeuclidean(a, b), cdist(a, b, "sqeuclidean"))
    assert np.array_equal(cdist_sqeuclidean(a, a), cdist(a, a, "sqeuclidean"))
    ls = rng.uniform(0.1, 3.0, shape_a[1])
    assert np.array_equal(s4is.surrogate._sq_dists(a, b, ls),
                          cdist(a / ls, b / ls, "sqeuclidean"))


def test_driver_repeats_scipy_lbfgsb_at_the_edges():
    x, y = _training_data()
    model = GpSurrogate().fit(x, y)
    lo, hi = np.log(s4is.surrogate._LS_BOUNDS)
    bounds = [(lo, hi)] * 2
    # A start outside the bounds is clipped onto them.
    res, _ = _check_driver_against_scipy(model._nll, np.array([hi + 2.0, lo - 3.0]),
                                  (model._delta,), bounds)
    assert np.all((res.x >= lo) & (res.x <= hi))
    # A run cut off by maxiter.
    res, _ = _check_driver_against_scipy(model._nll, np.zeros(2), (model._delta,), bounds,
                                  maxiter=2)
    assert res.nit == 2
    # A start where R is singular: _nll returns _BIG with a zero gradient.
    x[1] = x[0] + 1e-9
    singular = GpSurrogate().fit(x, y)
    res, _ = _check_driver_against_scipy(singular._nll, np.full(2, hi), (0.0,), bounds)
    assert res.fun == s4is.surrogate._BIG


def test_composite_honours_isotropic_through_updates():
    rng = np.random.default_rng(9)
    u = rng.uniform(-3, 3, size=(15, 3))
    comps = lambda v: np.column_stack([v[:, 0] + 0.5 * v[:, 1] ** 2 + 2.0,
                                       np.full(len(v), 1.5)])
    pts = SupportPointSet(u, u, comps(u).min(axis=1), comps(u))

    def assert_isotropic(model):
        assert isinstance(model, CompositeMinSurrogate)
        for m in model.models:
            assert m.isotropic
            np.testing.assert_array_equal(m.lengthscales, m.lengthscales[0])

    model = fit_surrogate(pts, lambda v: np.min(v, axis=-1), isotropic=True)
    assert_isotropic(model)
    v = rng.uniform(-3, 3, size=(1, 3))
    pts.append(v[0], v[0], comps(v).min(), comps(v)[0])
    model = update_surrogate(model, pts)
    assert_isotropic(model)


@pytest.mark.parametrize("make", [
    lambda: SupportPointSet(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(2), np.zeros((2, 1))),
    lambda: SupportPointSet(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1),
                            np.zeros((1, 1))).append(np.zeros(2), np.zeros(2), 0.0, [0.0]),
    lambda: GpSurrogate().fit(np.zeros((1, 2)), np.zeros(1)),
    lambda: GpSurrogate().fit(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
                              np.array([1.0, 1.0, 2.0])),
    lambda: SupportPointSet(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros((3, 1))),
])
def test_bad_support_points_raise_a_typed_error(make):
    # An S4isError makes the CLI exit 3; it stays a ValueError for callers
    # that catch that.
    with pytest.raises(SupportPointError) as info:
        make()
    assert isinstance(info.value, S4isError)
    assert isinstance(info.value, ValueError)


def test_duplicate_check_is_exact_equality():
    pts = SupportPointSet(np.array([[0.0, np.inf]]), np.zeros((1, 2)), np.zeros(1), np.zeros((1, 1)))
    pts.append(np.array([0.0, 1e-300]), np.zeros(2), 0.0, [0.0])  # near is not equal
    with pytest.raises(SupportPointError):
        pts.append(np.array([0.0, np.inf]), np.zeros(2), 0.0, [0.0])
    pts.append(np.array([np.nan, 0.0]), np.zeros(2), 0.0, [0.0])
    pts.append(np.array([np.nan, 0.0]), np.zeros(2), 0.0, [0.0])  # NaN equals nothing
    assert len(pts) == 4


def test_extend_appends_each_point_in_turn():
    pts = SupportPointSet(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1), np.zeros((1, 2)))
    new = SupportPointSet(np.eye(2), 2 * np.eye(2), np.array([5.0, 6.0]),
                          np.array([[1.0, 2.0], [3.0, 4.0]]))
    pts.extend(new)
    np.testing.assert_array_equal(pts.inputs_u, [[0, 0], [1, 0], [0, 1]])
    np.testing.assert_array_equal(pts.x, [[0, 0], [2, 0], [0, 2]])
    np.testing.assert_array_equal(pts.outputs, [0, 5, 6])
    np.testing.assert_array_equal(pts.component_outputs, [[0, 0], [1, 2], [3, 4]])
    with pytest.raises(SupportPointError):
        pts.extend(new)  # its first point is already there


def _reference_factor(model, ls, delta):
    """The likelihood kernel written with scipy's cho_factor/cho_solve, in
    the same floating-point order as GpSurrogate."""
    x, z = model.x, model._z
    n = x.shape[0]
    sq = cdist(x / ls, x / ls, "sqeuclidean")
    r = np.exp(-0.5 * sq)
    r[np.diag_indices(n)] += delta
    cf = cho_factor(r, lower=True, check_finite=False)
    ones = np.ones(n)
    rz = cho_solve(cf, z, check_finite=False)
    r1 = cho_solve(cf, ones, check_finite=False)
    denom = ones @ r1
    beta = (ones @ rz) / denom
    resid = z - beta
    alpha = cho_solve(cf, resid, check_finite=False)
    sigma2 = max(float(resid @ alpha) / n, 1e-300)
    logdet = 2.0 * np.sum(np.log(np.diag(cf[0])))
    nll = 0.5 * (n * np.log(sigma2) + logdet)
    w = cho_solve(cf, np.eye(n), check_finite=False)
    w -= np.outer(alpha, alpha) / sigma2
    w *= r
    if model.isotropic:
        grad = np.array([0.5 * np.sum(w * sq)])
    else:
        grad = np.empty(len(ls))
        for k, col in enumerate(x.T):
            diff = np.subtract.outer(col, col)
            grad[k] = 0.5 * np.sum(w * (diff * diff)) / ls[k] ** 2
    return nll, grad, cf, r1, denom, sigma2


def _reference_sd(model, u):
    ls = model.lengthscales
    _, _, cf, r1, denom, sigma2 = _reference_factor(model, ls, model._delta)
    k = np.exp(-0.5 * cdist(u / ls, model.x / ls, "sqeuclidean"))
    v = cho_solve(cf, k.T, check_finite=False)
    var = 1.0 - np.sum(k.T * v, axis=0)
    u_term = 1.0 - k @ r1
    var = sigma2 * (var + u_term**2 / denom)
    return model._y_sd * np.sqrt(np.clip(var, 0.0, None))


@pytest.mark.parametrize("n, d, isotropic", [(20, 2, False), (60, 6, False),
                                              (40, 25, True)])
def test_likelihood_kernel_equals_the_cho_solve_reference(n, d, isotropic):
    rng = np.random.default_rng([n, d])
    x = rng.uniform(-3, 3, size=(n, d))
    y = np.sin(x).sum(axis=1) + 0.1 * (x ** 2).sum(axis=1)
    model = GpSurrogate().fit(x, y, n_restarts=2, isotropic=isotropic)
    n_params = 1 if isotropic else d
    points = [rng.uniform(np.log(0.3), np.log(30.0), size=n_params)
              for _ in range(3)]
    for p in points + [np.log(model.lengthscales[:n_params])]:
        ls = np.exp(p)
        if isotropic:
            ls = np.full(d, float(ls[0]))
        nll, grad = model._nll(p, model._delta)
        ref_nll, ref_grad, *_ = _reference_factor(model, ls, model._delta)
        assert nll == ref_nll
        assert np.array_equal(grad, ref_grad)
    u = rng.uniform(-4, 4, size=(50, d))
    assert np.array_equal(model.predict_sd(u), _reference_sd(model, u))


def test_rank_deficient_correlation_gives_big_and_zero_gradient():
    x, y = _training_data()
    x[1] = x[0] + 1e-9
    model = GpSurrogate().fit(x, y)
    log_ls = np.full(2, np.log(s4is.surrogate._LS_BOUNDS[1]))
    # Without a nugget the two rows of R are equal, so R is singular.
    nll, grad = model._nll(log_ls, 0.0)
    assert nll == s4is.surrogate._BIG
    np.testing.assert_array_equal(grad, np.zeros(2))


def test_fit_escalates_the_nugget_then_raises_fit_error(monkeypatch):
    nuggets = []

    def never_positive_definite(r, lower, clean):
        nuggets.append(r[0, 0] - 1.0)  # R[0, 0] = 1 + delta
        return r, 1

    monkeypatch.setattr(s4is.surrogate, "dpotrf", never_positive_definite)
    with pytest.raises(FitError, match="nugget escalation"):
        GpSurrogate().fit(*_training_data())
    levels = sorted({float(f"{v:.1e}") for v in nuggets})
    assert levels == [1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4]
