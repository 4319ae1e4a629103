"""First-order reliability method: HL-RF search for the most probable point
in u-space with central finite-difference gradients, plus a multi-start
variant that collects distinct MPPs and all paid-for evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import StageFailureError, StationaryPointError
from .evaluation import Evaluator

_FD_STEP = 1e-4
_STEP_TOL = 1e-6  # HL-RF has converged once a step is this short ...
_G_TOL_REL = 1e-6  # ... and |g| <= this times (|g at the start| + 1)
_MAX_ITER = 100  # HL-RF iterations before a search ends unconverged
_DEDUP_DISTANCE = 0.5  # u-space distance below which two MPPs are one


@dataclass
class MppResult:
    u_star: np.ndarray
    beta: float
    n_eval: int
    converged: bool
    iterations: int
    trace_u: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    trace_g: np.ndarray = field(default_factory=lambda: np.empty(0))
    trace_components: np.ndarray | None = None


class _UspaceG:
    """g composed with the inverse transform, recording every evaluation."""

    def __init__(self, evaluator: Evaluator):
        self.ev = evaluator
        self.rv = evaluator.problem.marginals
        self.trace_u = []
        self.trace_g = []
        self.trace_components = []

    def __call__(self, u):
        theta = self.rv.from_standard_normal(u)
        comps = self.ev.components_at(np.asarray(theta, dtype=float))
        g = float(self.ev.problem.aggregate(comps))
        self.trace_u.append(np.asarray(u, dtype=float).copy())
        self.trace_g.append(g)
        self.trace_components.append(comps)
        return g

    def gradient(self, u, g_center=None, scheme="central"):
        u = np.asarray(u, dtype=float)
        grad = np.empty(u.size)
        for i in range(u.size):
            step = np.zeros(u.size)
            step[i] = _FD_STEP
            if scheme == "forward":
                grad[i] = (self(u + step) - g_center) / _FD_STEP
            else:
                grad[i] = (self(u + step) - self(u - step)) / (2 * _FD_STEP)
        return grad


def hlrf_search(evaluator: Evaluator, start_u, fd_scheme="central"):
    """HL-RF iteration from one start point.

    Divergence past ``_MAX_ITER`` iterations yields an unconverged result
    rather than an exception; a vanishing gradient away from the limit
    state raises.
    ``fd_scheme`` "forward" halves the gradient cost per iteration, which
    matters when the dimension is large.
    """
    gfun = _UspaceG(evaluator)
    u = np.asarray(start_u, dtype=float).copy()
    n0 = evaluator.ledger.count
    g0 = gfun(u)
    g_tol = _G_TOL_REL * (abs(g0) + 1.0)
    g = g0
    converged = False
    iterations = 0
    for k in range(_MAX_ITER):
        iterations = k + 1
        grad = gfun.gradient(u, g_center=g, scheme=fd_scheme)
        norm2 = float(grad @ grad)
        if norm2 < 1e-20:
            raise StationaryPointError(f"gradient vanished at u={u.tolist()}")
        u_next = ((grad @ u - g) / norm2) * grad
        step = float(np.linalg.norm(u_next - u))
        g_next = gfun(u_next)
        converged = step <= _STEP_TOL and abs(g_next) <= g_tol
        u, g = u_next, g_next
        if converged:
            break
    return MppResult(
        u_star=u, beta=float(np.linalg.norm(u)),
        n_eval=evaluator.ledger.count - n0, converged=converged,
        iterations=iterations,
        trace_u=np.array(gfun.trace_u), trace_g=np.array(gfun.trace_g),
        trace_components=np.array(gfun.trace_components),
    )


def form_pf(beta):
    """FORM failure probability Phi(-beta)."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return float(ndtr(-beta))


def multi_start_mpps(evaluator: Evaluator, n_starts, rng, fd_scheme="central"):
    """HL-RF from the origin plus ``n_starts - 1`` uniform starts on [-4, 4]^d.

    Returns the converged results sorted by beta, less those within
    ``_DEDUP_DISTANCE`` of a lower-beta one, together with every result,
    unconverged ones included (their traces are legitimate, paid-for
    evaluations and feed the second-stage surrogate seed).
    """
    d = evaluator.problem.dim
    starts = [np.zeros(d)]
    for _ in range(n_starts - 1):
        starts.append(rng.uniform(-4.0, 4.0, size=d))
    results = []
    for s in starts:
        try:
            results.append(hlrf_search(evaluator, s, fd_scheme=fd_scheme))
        except StationaryPointError:
            continue
    converged = sorted([r for r in results if r.converged], key=lambda r: r.beta)
    distinct = []
    for r in converged:
        if all(np.linalg.norm(r.u_star - q.u_star) >= _DEDUP_DISTANCE for q in distinct):
            distinct.append(r)
    if not distinct:
        raise StageFailureError(
            "no HL-RF start converged; try a larger number of starts")
    return distinct, results
