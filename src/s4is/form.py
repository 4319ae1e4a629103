"""First-order reliability method: HL-RF search with a merit line search
for the most probable point in u-space, with finite-difference gradients
central below ``_FORWARD_FD_DIM`` inputs (one-sided at a kink, where they
cancel) and forward from there on, plus a multi-start variant that
collects distinct MPPs. A search's trace holds the u and g of every
evaluation it made, finite-difference probes included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import StageFailureError, StationaryPointError
from .evaluation import Evaluator

_FD_STEP = 1e-4
_VANISHED = 1e-20  # squared gradient norm below which a gradient vanished
_STEP_TOL = 1e-6  # HL-RF has converged once a step is this short ...
_G_TOL_REL = 1e-6  # ... and |g| <= this times (|g at the start| + 1)
_MAX_ITER = 100  # HL-RF iterations before a search ends unconverged
_MIN_STEP_FRACTION = 2.0**-10  # the merit line search halves the step down to this
DEDUP_DISTANCE = 0.5  # u-space distance below which two MPPs are one
_N_STARTS = 10  # multi-start searches: the origin and uniform draws on [-4, 4]^d
# From this many inputs on, central-difference gradients dominate the
# evaluation budget, and forward differences, which reuse g at the
# iterate, halve their cost.
_FORWARD_FD_DIM = 20


@dataclass
class MppResult:
    u_star: np.ndarray
    beta: float
    n_eval: int
    converged: bool
    iterations: int
    trace_u: np.ndarray
    trace_g: np.ndarray


class _UspaceG:
    """g composed with the inverse transform, recording every evaluation."""

    def __init__(self, evaluator: Evaluator):
        self.ev = evaluator
        self.rv = evaluator.problem.marginals
        self.trace_u = []
        self.trace_g = []

    def __call__(self, u):
        g = self.ev.g(self.rv.from_standard_normal(u))
        self.trace_u.append(np.asarray(u, dtype=float).copy())
        self.trace_g.append(g)
        return g

    def gradient(self, u, g_center):
        """Finite-difference gradient at ``u``, where g is ``g_center``; a
        vanished central gradient gives way to the forward differences of
        its +h probes when their squared norm exceeds ``_FD_STEP``: a kink's
        slope of order one, not a smooth stationary point's O(h)."""
        u = np.asarray(u, dtype=float)
        plus = np.empty(u.size)
        grad = np.empty(u.size)
        for i in range(u.size):
            step = np.zeros(u.size)
            step[i] = _FD_STEP
            plus[i] = self(u + step)
            if u.size >= _FORWARD_FD_DIM:
                grad[i] = (plus[i] - g_center) / _FD_STEP
            else:
                grad[i] = (plus[i] - self(u - step)) / (2 * _FD_STEP)
        forward = (plus - g_center) / _FD_STEP
        if grad @ grad < _VANISHED and forward @ forward > _FD_STEP:
            return forward
        return grad


def hlrf_search(evaluator: Evaluator, start_u):
    """HL-RF iteration from one start point.

    Each iteration spends the gradient's probes (2d central differences
    below ``_FORWARD_FD_DIM`` inputs, d forward ones from there on) and one
    g call per trial step: the full HL-RF step, halved while the merit
    0.5 |u|^2 + c |g| rises, down to ``_MIN_STEP_FRACTION`` of it.
    Divergence past ``_MAX_ITER`` iterations yields an unconverged result
    rather than an exception; a gradient that vanishes on both sides (a
    smooth stationary point, not a kink) raises.
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
        grad = gfun.gradient(u, g)
        norm2 = float(grad @ grad)
        if norm2 < _VANISHED:
            raise StationaryPointError(f"gradient vanished at u={u.tolist()}")
        u_hl = ((grad @ u - g) / norm2) * grad
        # iHL-RF merit 0.5 |u|^2 + c |g|; this c lets the full step pass
        # wherever the linearisation is exact.
        c = max(2.0 * np.linalg.norm(u) / np.sqrt(norm2),
                (u_hl @ u_hl - u @ u) / abs(g) if g else 0.0, 1.0)
        merit = 0.5 * (u @ u) + c * abs(g)
        fraction, u_next = 1.0, u_hl
        g_next = gfun(u_next)
        while 0.5 * (u_next @ u_next) + c * abs(g_next) > merit \
                and fraction > _MIN_STEP_FRACTION:
            fraction /= 2
            u_next = u + fraction * (u_hl - u)
            g_next = gfun(u_next)
        step = float(np.linalg.norm(u_next - u))
        converged = step <= _STEP_TOL and abs(g_next) <= g_tol
        u, g = u_next, g_next
        if converged:
            break
    return MppResult(
        u_star=u, beta=float(np.linalg.norm(u)),
        n_eval=evaluator.ledger.count - n0, converged=converged,
        iterations=iterations,
        trace_u=np.array(gfun.trace_u), trace_g=np.array(gfun.trace_g),
    )


def form_pf(beta):
    """FORM failure probability Phi(-beta)."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return float(ndtr(-beta))


def start_points(d, rng):
    """The ``_N_STARTS`` starts of a multi-start MPP search: the origin,
    then uniform draws on [-4, 4]^d."""
    return [np.zeros(d)] + [rng.uniform(-4.0, 4.0, size=d) for _ in range(_N_STARTS - 1)]


def multi_start_mpps(evaluator: Evaluator, rng):
    """HL-RF from each of :func:`start_points`: the converged results sorted
    by beta, less those within ``DEDUP_DISTANCE`` of a lower-beta one."""
    results = []
    for s in start_points(evaluator.problem.dim, rng):
        try:
            results.append(hlrf_search(evaluator, s))
        except StationaryPointError:
            continue
    converged = sorted([r for r in results if r.converged], key=lambda r: r.beta)
    distinct = []
    for r in converged:
        if all(np.linalg.norm(r.u_star - q.u_star) >= DEDUP_DISTANCE for q in distinct):
            distinct.append(r)
    if not distinct:
        raise StageFailureError(f"none of {_N_STARTS} HL-RF starts converged")
    return distinct
