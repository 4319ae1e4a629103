"""Gaussian-process surrogate (ordinary kriging) and the per-component
composite for series and parallel systems; ``fit_surrogate`` builds either.

Inputs are the training coordinates a ``SupportPointSet`` stores in
``x``; a support set always carries the per-component outputs too.
Outputs are standardized internally and de-normalized on prediction.
Every predict method takes (n, d) rows and returns (n,) values; the
composite combines the component means only. Hyperparameters
(per-dimension lengthscales, or one shared lengthscale once the inputs
have ``_ISOTROPIC_DIM`` columns) maximize the concentrated log marginal
likelihood with the constant trend and signal variance profiled out.
L-BFGS-B fits the log-lengthscales with the analytic gradient of that
likelihood, so one Cholesky factorisation serves both the value and the
gradient. A GP is made from its data: ``GpSurrogate(x, y, seed,
init_lengthscales)`` fits it, and ``GpSurrogate._at`` builds one at fixed
hyperparameters for an append. Both check the data in one place,
``GpSurrogate._set_data`` ((n, d) rows, at least two and all distinct,
one finite output per row), before any likelihood evaluation, and both
end in one fixed-hyperparameter step, ``GpSurrogate._adopt``.

Each likelihood evaluation runs one LAPACK ``dpotrf`` and its ``dpotrs``
solves directly, without scipy's ``cho_factor``/``cho_solve`` wrappers,
whose per-call overhead exceeds the arithmetic at these sizes (n up to a
few hundred). Squared distances come from ``cdist_sqeuclidean``, the C
routine behind ``cdist(a, b, "sqeuclidean")``, without ``cdist``'s
Python-side checks; it is a private scipy name, and a test pins it to
``cdist`` bit for bit. Everything that depends on the training inputs
alone is built once per fit, not once per evaluation: the ones vector
with the data, and the identity and the per-dimension squared differences
of the gradient as the fit's own scratch, passed to every evaluation
through ``optimize.minimize``'s ``args``. So a GP, fitted or grown by
``_at``, holds its data, its hyperparameters and its factor: what the
predictions and ``_update`` read. The correlation matrix, the gradient's
products and the prediction's kernel rows are scaled, exponentiated and
multiplied in place, in buffers reused within a call, with the bits of
the plain expressions. Predictions take their rows in blocks of about
``_PREDICT_BLOCK_VALUES`` kernel values, so a candidate pool's kernel is
never built whole (``row_blocks``, which ``learning.min_distances`` takes
too).

For the same reason each L-BFGS-B start runs ``_lbfgsb``, which drives
scipy's ``setulb`` routine itself, in place of scipy's own
``_minimize_lbfgsb`` and its ``ScalarFunction``/``MemoizeJac`` wrapping
of every evaluation. It takes finite two-sided bounds only, the only
kind the fit passes, and makes the loop scipy makes, with scipy's default
tolerances, but evaluates the likelihood only where the answer is new and
can still move the iterate. Near a flat optimum the likelihood's rounding
noise exceeds L-BFGS-B's relative-reduction test; scipy's line search
then probes points an ulp apart, some of them twice, fails, resets its
memory, searches again and mostly ends on the iterate it had. The driver
answers every repeated point from memory and ends a start at its first
failed line search, on that iterate. So every fit is the same bit for bit
from run to run, and each start makes scipy's iterates bit for bit up to
its first failed line search; that leans on scipy's private ``setulb``
signature of scipy >= 1.15, and a test pins the driver to
``minimize(method="L-BFGS-B")`` on those terms. The driver goes in as a
custom ``optimize.minimize`` method, so ``optimize.minimize`` still runs
every start: the benchmark's tracer stands in for this module's
``optimize`` to count starts and likelihood evaluations, and the tests
read each start's value there.

The refinement loop adds one support point per step, and
``update_surrogate`` takes it one of two ways; ``_update`` makes the
choice for each GP. Most points are appended at fixed lengthscales and
nugget: ``GpSurrogate._at`` on the support set's own arrays, which
already hold the new row, so one factorization of the grown correlation
matrix, with the outputs re-standardized and the trend and signal
variance re-profiled, and no likelihood search (DiceKriging's ``update``
with ``cov.reestim = FALSE``). Every third point since the last full fit
(``_REFIT_EVERY``), an output more than three predictive standard
deviations from the model's mean (``_SURPRISE_SD``), constant outputs, a
constant GP and a grown matrix that is not positive definite take the
full warm refit instead: three starts, one at the previous lengthscales
(a constant GP has none and gets a fresh fit's five). A call with no new
point re-optimises every GP that carries appended points; the pipeline
makes it before it accepts any stop, so every stage ends on a
re-optimised model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize._lbfgsb import setulb
from scipy.spatial._distance_pybind import cdist_sqeuclidean

from .errors import ConfigError, FitError, SupportPointError

_LS_BOUNDS = (1e-2, 1e3)
_NUGGET_START = 1e-10
_NUGGET_MAX = 1e-4
_BIG = 1e25
# Per-input lengthscales stop being identifiable once their count rivals
# the support size: a GP on inputs of this many columns or more shares one
# lengthscale across them.
_ISOTROPIC_DIM = 20
# Points added by update_surrogate between full fits: two are appended at
# fixed hyperparameters, the third re-optimises them.
_REFIT_EVERY = 3
# A new output more than this many predictive standard deviations from
# the model's mean is a sign of stale hyperparameters and re-optimises them.
_SURPRISE_SD = 3.0
# scipy's L-BFGS-B defaults: corrections kept, the relative-reduction and
# projected-gradient stopping tolerances, and line-search steps per iteration.
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
# setulb's task codes: evaluate f and g at x, a new iterate, stop; and the
# reason it stopped at the iteration limit.
_TASK_FG = 3
_TASK_NEW_X = 1
_TASK_STOP = 5
_TASK_MAXITER = 504
# Values (rows x support points) a pool-sized computation holds at a time,
# and the multiple of rows its blocks take (``row_blocks``): a multiple of
# the four rows that OpenBLAS's x86-64 gemv kernels take together, with room
# for kernels that take eight or sixteen.
_PREDICT_BLOCK_VALUES = 1 << 16
_PREDICT_ROW_ALIGN = 16


def row_blocks(n, width):
    """The row slices of range(n) in order, none past n, each of about
    ``_PREDICT_BLOCK_VALUES`` values when a row holds ``width`` of them, so
    a (rows x support) array is never built whole.

    A block takes a multiple of ``_PREDICT_ROW_ALIGN`` rows, at least that
    many, and a last block of one row, which numpy would hand to ``dot`` in
    place of ``gemv``, is joined to the block before it. Pool
    predictions (``GpSurrogate._kernel_blocks``) and the nearest-support
    distances (``learning.min_distances``) take these blocks.
    """
    rows = max(_PREDICT_ROW_ALIGN, _PREDICT_BLOCK_VALUES // width
               // _PREDICT_ROW_ALIGN * _PREDICT_ROW_ALIGN)
    start = 0
    while start < n:
        stop = min(start + rows, n)
        if stop == n - 1:
            stop = n
        yield slice(start, stop)
        start = stop


def _lbfgsb(fun, x0, args, bounds, maxiter=60, **_):
    """L-BFGS-B (Zhu, Byrd, Lu & Nocedal, ACM TOMS 1997) on ``fun``, which
    returns the value and the gradient, as a custom ``optimize.minimize``
    method. ``bounds`` holds one finite (low, high) pair per coordinate.

    The reverse-communication loop over ``setulb`` is the one scipy's
    ``_minimize_lbfgsb`` runs, with its default tolerances, and two changes
    that spend evaluations only where the answer is new and can still move
    the iterate:
    - ``fun``, which is deterministic, is called once per distinct point: a
      request at a point this start has evaluated is answered from memory;
    - a start ends at its first failed line search. A request that follows
      more than ``_LBFGSB_MAXLS`` requests with no new iterate (none counts
      the start's own) is not answered; the driver returns the last iterate
      and its value. Scipy would reset its memory and search again, and
      return the same iterate when that search fails too.
    Up to that point the requests are scipy's, and a start with no failed
    search (or whose very first search fails, where scipy stops too) ends
    on scipy's result bit for bit. Left out are the
    ``ScalarFunction``/``MemoizeJac`` wrapping, the callback and the
    ``maxfun`` check (at most ``maxiter`` x ``maxls`` evaluations here, far
    below scipy's 15000). ``nfev`` counts the calls of ``fun``; the memory
    of one start goes when it ends.
    """
    low, high = np.array(bounds, dtype=np.float64).T.copy()
    x = np.clip(np.array(x0, dtype=np.float64).ravel(), low, high)
    n = x.size
    nbd = np.full(n, 2, np.int32)  # every coordinate bounded on both sides
    m = _LBFGSB_M
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)

    f, g = fun(x.copy(), *args)
    memo = {x.tobytes(): (f, g)}
    iterate = (x.copy(), f)
    requests = -1  # setulb's first request is for the start itself
    nit = 0
    while True:
        g = g.copy()  # setulb may write g back; the memo keeps its own
        setulb(m, x, low, high, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL, wa,
               iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == _TASK_FG:
            requests += 1
            if requests > _LBFGSB_MAXLS:
                x, f = iterate
                break
            key = x.tobytes()
            if key not in memo:
                memo[key] = fun(x.copy(), *args)
            f, g = memo[key]
        elif task[0] == _TASK_NEW_X:
            nit += 1
            iterate = (x.copy(), f)
            requests = 0
            if nit >= maxiter:
                task[0] = _TASK_STOP
                task[1] = _TASK_MAXITER
        else:
            break
    return optimize.OptimizeResult(fun=f, x=x, nfev=len(memo), nit=nit)


@dataclass
class SupportPointSet:
    """Append-only dataset of evaluated points: u-space inputs, the GP's
    training coordinates of the same points, aggregated outputs and
    per-component outputs."""

    inputs_u: np.ndarray
    x: np.ndarray
    outputs: np.ndarray
    component_outputs: np.ndarray  # (n, n_components)

    def __post_init__(self):
        self.inputs_u = np.atleast_2d(np.asarray(self.inputs_u, dtype=float))
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.outputs = np.asarray(self.outputs, dtype=float)
        self.component_outputs = np.atleast_2d(np.asarray(self.component_outputs, dtype=float))
        n = self.inputs_u.shape[0]
        if any(a.shape[0] != n for a in (self.x, self.outputs, self.component_outputs)):
            raise SupportPointError("support point arrays must have equal lengths")

    def __len__(self):
        return self.inputs_u.shape[0]

    def extend(self, points):
        """Add the rows of the support set ``points`` at the end, or none of
        them: every new input is checked against this set and against the
        rows before it in ``points`` (exact equality, so NaN repeats
        nothing) before any array grows."""
        inputs_u = np.vstack([self.inputs_u, points.inputs_u])
        for i in range(len(self), len(inputs_u)):
            if (inputs_u[:i] == inputs_u[i]).all(axis=1).any():
                raise SupportPointError("duplicate support input")
        self.inputs_u, self.x, self.outputs, self.component_outputs = (
            inputs_u, np.vstack([self.x, points.x]),
            np.concatenate([self.outputs, points.outputs]),
            np.vstack([self.component_outputs, points.component_outputs]))


class GpSurrogate:
    """Squared-exponential GP with a constant trend: one lengthscale per
    input, or one shared by all of them on inputs of ``_ISOTROPIC_DIM``
    columns or more (``isotropic``). Constructing one fits it to (x, y).

    Invariants: the posterior mean reproduces training outputs up to the
    stabilizing jitter on the kernel diagonal (within 1e-3 in output units
    for well-scaled data) and is equivariant under a constant output shift.
    """

    # -- fitting -----------------------------------------------------------

    def _set_data(self, x, y):
        """Validate and store the training data and its standardized
        outputs, with no appended point yet: (n, d) rows ``x``, at least
        two and all distinct, and one finite output per row in ``y``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[1] == 0:
            raise SupportPointError("training inputs must be (n, d) rows, d >= 1")
        n = x.shape[0]
        if y.shape != (n,):
            raise SupportPointError("need one training output per input row")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise FitError("non-finite values in training data")
        if n < 2:
            raise SupportPointError("need at least 2 support points")
        rows = x[np.lexsort(x.T)]  # equal rows are now neighbours
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise SupportPointError("duplicate inputs in training data")
        self.x = x
        self.isotropic = x.shape[1] >= _ISOTROPIC_DIM
        self._y_mean = float(y.mean())
        self._y_sd = float(y.std())
        self._constant = self._y_sd < 1e-12 * (abs(self._y_mean) + 1.0)
        if not self._constant:
            self._z = (y - self._y_mean) / self._y_sd
            self._ones = np.ones(n)
        self.n_appended = 0  # points appended since the last full fit

    def __init__(self, x, y, seed=0, init_lengthscales=None):
        """Fit a GP to (x, y): maximise the likelihood from five L-BFGS-B
        starts, or from three when ``init_lengthscales`` gives the first."""
        self._set_data(x, y)
        n, d = self.x.shape
        if init_lengthscales is not None:
            init_lengthscales = np.asarray(init_lengthscales, dtype=float)
            # A NaN fails both bounds.
            if init_lengthscales.shape != (d,) or not np.all(
                    (init_lengthscales > 0) & (init_lengthscales < np.inf)):
                raise ConfigError(f"init_lengthscales must be {d} finite positive values")
        if self._constant:
            # Degenerate constant data: the trend absorbs everything.
            self.lengthscales = np.ones(d)
            self.signal_variance = self.trend = 0.0
            return
        n_params = 1 if self.isotropic else d
        # Terms of the likelihood that depend on x alone, shared by every
        # evaluation of this fit and gone with it (the ones vector comes
        # with the data). The squared differences take d n^2 doubles;
        # isotropic GPs use the total distance instead.
        eye = np.eye(n)
        sq_diffs = []
        if not self.isotropic:
            for col in self.x.T:
                diff = np.subtract.outer(col, col)
                sq_diffs.append(diff * diff)

        rng = np.random.default_rng(seed)
        lo, hi = np.log(_LS_BOUNDS[0]), np.log(_LS_BOUNDS[1])
        starts = []
        if init_lengthscales is not None:
            init = np.log(init_lengthscales)
            if self.isotropic:
                init = np.atleast_1d(np.median(init))
            starts.append(np.clip(init, lo, hi))
        starts.append(np.zeros(n_params))  # unit lengthscales
        while len(starts) < (5 if init_lengthscales is None else 3):
            starts.append(rng.uniform(math.log(0.1), math.log(10.0), size=n_params))

        delta = _NUGGET_START
        while delta <= _NUGGET_MAX * 1.01:
            best = (math.inf, None)
            for s in starts:
                res = optimize.minimize(
                    self._nll, s, args=(delta, eye, sq_diffs), method=_lbfgsb,
                    bounds=[(lo, hi)] * len(s), options={"maxiter": 60},
                )
                if res.fun < best[0]:
                    best = (res.fun, res.x)
            if math.isfinite(best[0]) and self._adopt(best[1], delta):
                return
            delta *= 10.0
        raise FitError("Cholesky failed after nugget escalation")

    def _factor(self, log_ls, delta):
        """Concentrated NLL at ``log_ls`` with the quantities prediction
        reuses, or None when the correlation matrix is not positive
        definite."""
        ls = np.exp(log_ls)
        if self.isotropic:
            ls = np.full(self.x.shape[1], float(ls[0]))
        n = self.x.shape[0]
        xs = self.x / ls
        sq = cdist_sqeuclidean(xs, xs)
        r = sq * -0.5
        np.exp(r, out=r)
        r.reshape(-1)[::n + 1] += delta
        chol, info = dpotrf(r, lower=1, clean=0)
        if info > 0:
            return None
        z = self._z
        ones = self._ones
        rz, _ = dpotrs(chol, z, lower=1)
        r1, _ = dpotrs(chol, ones, lower=1)
        denom = ones @ r1
        beta = (ones @ rz) / denom
        resid = z - beta
        alpha, _ = dpotrs(chol, resid, lower=1)
        sigma2 = max(float(resid @ alpha) / n, 1e-300)
        logdet = 2.0 * np.log(chol.diagonal()).sum()
        nll = 0.5 * (n * math.log(sigma2) + logdet)
        return nll, ls, sq, r, chol, beta, sigma2, alpha, r1, denom

    def _nll(self, log_ls, delta, eye, sq_diffs):
        """Concentrated NLL and its gradient with respect to ``log_ls``;
        ``eye`` is the (n, n) identity and ``sq_diffs`` the per-dimension
        squared differences of x (none for an isotropic GP), which the fit
        builds once for all its evaluations.

        With alpha = R^-1 (z - beta) and sigma2 profiled out,
        dNLL/dlog(l_k) = 1/2 sum_ij [(R^-1 - alpha alpha^T / sigma2) o R o D_k]_ij
        where D_k holds the squared differences in dimension k scaled by
        l_k^2 (Rasmussen & Williams, GPML, eq. 5.9). The trend term
        vanishes because beta is the GLS optimum.
        """
        fit = self._factor(log_ls, delta)
        if fit is None:
            return _BIG, np.zeros_like(log_ls)
        nll, ls, sq, r, chol, _, sigma2, alpha, _, _ = fit
        w, _ = dpotrs(chol, eye, lower=1)
        # R^-1 comes back in Fortran order. In C order, like r, alpha
        # alpha^T and the squared differences, the products below run over
        # contiguous memory; the products summed are in C order either
        # way, so the sums add in the same order.
        w = np.ascontiguousarray(w)
        # One (n, n) buffer takes alpha alpha^T / sigma2, then each product
        # summed for the gradient.
        buf = np.multiply(alpha[:, None], alpha)
        buf /= sigma2
        w -= buf
        w *= r  # the nugget on the diagonal meets D_k[i, i] = 0
        if self.isotropic:
            return nll, np.array([0.5 * np.multiply(w, sq, out=buf).sum()])
        grad = np.empty(len(ls))
        for k, sq_diff in enumerate(sq_diffs):
            grad[k] = 0.5 * np.multiply(w, sq_diff, out=buf).sum() / ls[k] ** 2
        return nll, grad

    def _adopt(self, log_ls, delta):
        """Fix the hyperparameters at ``log_ls`` and relative nugget
        ``delta``: factor R and store the profiled trend, signal variance
        (in standardized output units) and the solves prediction reuses.
        False when R is not positive definite."""
        fit = self._factor(log_ls, delta)
        if fit is None:
            return False
        (_, self.lengthscales, _, _, self._chol, self.trend, self.signal_variance,
         self._alpha, self._rinv1, self._one_rinv_one) = fit
        self._delta = delta
        return True

    @classmethod
    def _at(cls, x, y, log_ls, delta):
        """A GP on (x, y) at log-lengthscales ``log_ls`` and relative nugget
        ``delta``, with no likelihood search; the data is checked as for a
        fit. None when the outputs are constant or R is not positive
        definite."""
        gp = cls.__new__(cls)
        gp._set_data(x, y)
        if gp._constant or not gp._adopt(log_ls, delta):
            return None
        return gp

    # -- prediction: (n, d) rows in, (n,) out -------------------------------

    def _kernel_blocks(self, u):
        """(slice, kernel rows) for the rows of ``u`` in the blocks of
        ``row_blocks``, so a prediction's temporaries keep a block's size
        whatever the row count. Every block is written into one buffer,
        which the next block overwrites: no two blocks are held at once, and
        a pool prediction makes one block-sized allocation, not one per
        block (each of which glibc may hand back to the system and fault in
        again).

        Blocking keeps every bit of one BLAS call on all the rows: ``dpotrs``
        solves each column alone, and ``gemv`` takes the rows in groups of
        four from the start of its call, with the tail rows apart, which the
        blocks' alignment respects. With more than one BLAS thread, ``gemv``
        splits its rows between the threads, and the bits depend on where
        (ROADMAP item 12).
        """
        m = self.x.shape[0]
        blocks = list(row_blocks(len(u), m))
        buf = np.empty(max((b.stop - b.start for b in blocks), default=0) * m)
        x = self.x / self.lengthscales
        for block in blocks:
            k = buf[:(block.stop - block.start) * m].reshape(-1, m)
            cdist_sqeuclidean(u[block] / self.lengthscales, x, out=k)
            k *= -0.5
            np.exp(k, out=k)
            yield block, k

    def predict_mean(self, u):
        """Posterior mean at the (n, d) rows ``u``, computed in row blocks
        (``_kernel_blocks``)."""
        if self._constant:
            return np.full(len(u), self._y_mean)
        mean = np.empty(len(u))
        for block, k in self._kernel_blocks(u):
            mean[block] = self._y_mean + self._y_sd * (self.trend + k @ self._alpha)
        return mean

    def predict_sd(self, u):
        """Posterior standard deviation at the (n, d) rows ``u``, with the
        trend's uncertainty, computed in row blocks (``_kernel_blocks``)."""
        if self._constant:
            return np.zeros(len(u))
        sd = np.empty(len(u))
        for block, k in self._kernel_blocks(u):
            v, _ = dpotrs(self._chol, k.T, lower=1)
            var = 1.0 - np.sum(k.T * v, axis=0)
            u_term = 1.0 - k @ self._rinv1
            var = self.signal_variance * (var + u_term**2 / self._one_rinv_one)
            sd[block] = self._y_sd * np.sqrt(np.clip(var, 0.0, None))
        return sd


class CompositeMinSurrogate:
    """Per-component GPs for a system. The prediction combines the component
    means with the system's rule ``aggregate`` (the minimum for a series
    system, the maximum for a parallel one); it has no predictive sd.
    :func:`fit_surrogate` fits it and :func:`update_surrogate` carries it
    forward."""

    def __init__(self, models, aggregate):
        self.models = list(models)
        if not self.models:
            raise ValueError("need at least one component model")
        self.aggregate = aggregate

    @property
    def n_appended(self):
        return max(m.n_appended for m in self.models)

    def predict_mean(self, u):
        # (k, n) rows, aggregated over the transposed view as in g_batch.
        return self.aggregate(np.stack([m.predict_mean(u) for m in self.models]).T)


def fit_surrogate(points: SupportPointSet, aggregate=None):
    """Fit one GP on the outputs of a support point set, or, given the
    system's rule ``aggregate`` and more than one component, one GP per
    component combined by it."""
    if aggregate is not None and points.component_outputs.shape[1] > 1:
        return CompositeMinSurrogate(
            (GpSurrogate(points.x, y, seed=j)
             for j, y in enumerate(points.component_outputs.T)), aggregate)
    return GpSurrogate(points.x, points.outputs)


def _update(gp, x, y, seed):
    n = gp.x.shape[0]
    if x.shape[0] == n and gp.n_appended == 0:
        return gp
    if x.shape[0] == n + 1 and gp.n_appended + 1 < _REFIT_EVERY:
        (mean,), (sd,) = gp.predict_mean(x[n:]), gp.predict_sd(x[n:])
        if abs(y[n] - mean) <= _SURPRISE_SD * sd:
            grown = None if gp._constant else GpSurrogate._at(
                x, y, np.log(gp.lengthscales), gp._delta)
            if grown is not None:
                grown.n_appended = gp.n_appended + 1
                return grown
    # The warm refit: three starts, one at gp's lengthscales; a constant
    # GP has none and gets a full fresh fit.
    return GpSurrogate(x, y, seed=seed,
                       init_lengthscales=None if gp._constant else gp.lengthscales)


def update_surrogate(model, points: SupportPointSet):
    """Bring the surrogate up to date with ``points``.

    One point more than the model has is appended at fixed lengthscales:
    ``GpSurrogate._at`` on ``points``' arrays, new row included
    (``_update``). The full warm refit is taken instead on every
    ``_REFIT_EVERY``-th point since the last full fit, for an output more
    than ``_SURPRISE_SD`` predictive standard deviations from the model's
    mean, for constant outputs or a constant GP, and when the grown
    correlation matrix is not positive definite. A call with no new point
    re-optimises every GP that carries appended points, so the model is
    fully optimised afterwards.
    """
    if isinstance(model, CompositeMinSurrogate):
        return CompositeMinSurrogate(
            (_update(m, points.x, points.component_outputs[:, j], j)
             for j, m in enumerate(model.models)), model.aggregate)
    return _update(model, points.x, points.outputs, 0)
