"""Two-stage orchestration: exploratory coarse surrogate, Gaussian-mixture
importance sampling with adaptive refinement, and the single-MPP
importance-sampling baseline. Both stages and the baseline share one
refinement loop, :func:`_refine`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .clustering import kmeans, mpp_per_cluster
from .errors import ConfigError, StageFailureError, StationaryPointError
from .estimators import ReliabilityEstimate, is_estimate_from_log, mcs_estimate
from .evaluation import Evaluator, ProblemSpec
from .form import form_pf, hlrf_search, multi_start_mpps
from .learning import CandidatePool, PoolExhausted, lf1_scores, lf2_scores, min_distances, select_next
from .probability import (HYPERCUBE_HALF_WIDTH, GaussianMixture, hypercube_density,
                          log_std_normal_pdf, sample_hypercube)
from .surrogate import SupportPointSet, fit_surrogate, update_surrogate

HIGHDIM_THRESHOLD = 10
_TRACE_MIN_SEP = 0.05  # u-space separation of the points kept from an HL-RF trace
_TRACE_MAX_POINTS = 300  # and their largest number
# Rows transformed and evaluated at a time by the sample-based references
# (crude MCS and the true-g oracle), so that their temporaries keep this
# size whatever the sample count.
REFERENCE_BLOCK_ROWS = 1 << 16

# S4isConfig fields that count something (int >= 1) or cap iterations (int >= 0).
_COUNTS = ("n_c1", "n_s1_0", "n_c2", "k_clusters", "a1", "a2", "pool_growth_limit")
_CAPS = ("max_iter1", "max_iter2")


@dataclass
class S4isConfig:
    """The run parameters of the two-stage method; defaults follow the
    reference settings (trailing window 5, tolerances 0.01 / 0.001).
    Everything else (FORM-seeded exploration, isotropic kernels, the
    composite surrogate) is decided by the problem."""

    n_c1: int | None = None        # None: min(1e4, max(1e3, 10^d))
    n_s1_0: int | None = None      # None: max(12, (d+1)(d+2)/2)
    n_c2: int = 10_000
    k_clusters: int = 4
    eps1: float = 0.01
    a1: int = 5
    eps2: float = 0.001
    a2: int = 5
    max_iter1: int = 300
    max_iter2: int = 300
    cov_target: float = 0.05
    pool_growth_limit: int = 10

    def __post_init__(self):
        # bool is an int subclass; a switch is never a valid count.
        for name in _COUNTS + _CAPS:
            value = getattr(self, name)
            if value is None and name in ("n_c1", "n_s1_0"):
                continue
            lowest = 1 if name in _COUNTS else 0
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < lowest:
                raise ValueError(f"{name} must be an integer >= {lowest}, got {value!r}")
        for name in ("eps1", "eps2", "cov_target"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not value > 0:
                raise ValueError(f"{name} must be a number > 0, got {value!r}")

    def candidates_stage1(self, d):
        if self.n_c1 is not None:
            return self.n_c1
        cap = 10_000
        raw = 10**d if d < 5 else cap
        return min(cap, max(1_000, raw))

    def initial_support(self, d):
        if self.n_s1_0 is not None:
            return self.n_s1_0
        return max(12, (d + 1) * (d + 2) // 2)

    def wants_form_seed(self, d):
        return d >= HIGHDIM_THRESHOLD

    def wants_isotropic_gp(self, d):
        # Per-input lengthscales stop being identifiable once their count
        # rivals the support size; fall back to one shared lengthscale.
        return d >= 20


@dataclass
class StageReport:
    pf_history: list
    cov_history: list
    n_eval_history: list
    final: ReliabilityEstimate
    support_size: int
    termination: str
    coarse: bool = False
    initial_pf: float | None = None
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "pf_history": list(self.pf_history),
            "cov_history": [None if (c is None or math.isnan(c)) else c for c in self.cov_history],
            "n_eval_history": list(self.n_eval_history),
            "final": self.final.to_dict(),
            "support_size": self.support_size,
            "termination": self.termination,
            "coarse": self.coarse,
            "initial_pf": self.initial_pf,
            "notes": self.notes,
        }


@dataclass
class S4isResult:
    estimate: ReliabilityEstimate
    stage1: StageReport
    stage2: StageReport


def _feature_map(rv, thetas):
    """GP training coordinates: original-space inputs standardized by the
    marginal moments. Affine in theta, so e.g. a limit state linear in the
    physical variables stays linear; identical to u-space for normal
    marginals."""
    means = np.array([m.mean for m in rv.marginals])
    sds = np.array([m.sd for m in rv.marginals])
    return (np.atleast_2d(np.asarray(thetas, dtype=float)) - means) / sds


def _scale(outputs):
    s = float(np.std(outputs))
    return s if s > 1e-12 else 1.0


def _system_rule(problem: ProblemSpec):
    """The rule a composite surrogate combines component means with, or None
    when g has a single component."""
    return None if problem.aggregation == "single" else problem.aggregate


def _maximin_indices(points, n_pick):
    """Greedy space-filling subset, seeded at the point nearest the origin."""
    n = points.shape[0]
    n_pick = min(n_pick, n)
    chosen = [int(np.argmin(np.linalg.norm(points, axis=1)))]
    dmin = np.linalg.norm(points - points[chosen[0]], axis=1)
    for _ in range(n_pick - 1):
        nxt = int(np.argmax(dmin))
        chosen.append(nxt)
        dmin = np.minimum(dmin, np.linalg.norm(points - points[nxt], axis=1))
    return chosen


def _evaluate_support(evaluator, us):
    rv = evaluator.problem.marginals
    thetas = np.atleast_2d(rv.from_standard_normal(us))
    comps = np.array([evaluator.components_at(t) for t in thetas])
    ys = evaluator.problem.aggregate(comps)
    return SupportPointSet(us, _feature_map(rv, thetas), np.atleast_1d(ys), comps)


def _append_support(evaluator, support, u):
    rv = evaluator.problem.marginals
    theta = rv.from_standard_normal(u)
    comps = evaluator.components_at(np.asarray(theta, dtype=float))
    y = float(evaluator.problem.aggregate(comps))
    support.append(u, _feature_map(rv, theta)[0], y, comps)


def _window_converged(history, window, tol):
    if len(history) <= window:
        return False
    mean = float(np.mean(history[-window:]))
    if mean <= 0:
        return False
    return abs(history[-1] - mean) / mean <= tol


def _refine(evaluator, model, support, pool, x_cands, log_pn, log_q, score,
            max_iter, window=None):
    """The adaptive loop shared by both stages and AK-IS.

    Each iteration scores the pool with ``score(model, means, dmin)`` (None
    stops the loop), evaluates the true g at the best unselected candidate,
    updates the surrogate, predicts the pool once and takes the IS estimate
    against ``log_q``; ``window`` = (length, tolerance) adds the trailing
    window stopping rule.

    Most updates append the new point at fixed hyperparameters. A stopping
    rule is only taken on a fully optimised model: when one fires on a
    model that carries appended points, the model is re-optimised, the
    last estimate replaced and the rule tested again. The model returned
    is fully optimised under every termination.

    Returns (model, pool means, initial pf, report): the report holds the
    last estimate, the per-iteration histories and the termination reason.
    """
    cands = pool.points

    def estimate(means):
        est = is_estimate_from_log(means <= 0, log_pn, log_q)
        est.n_eval = evaluator.ledger.count
        return est

    means = model.predict_mean(x_cands)
    est = estimate(means)
    initial_pf = est.pf
    dmin = min_distances(cands, support.inputs_u)
    pf_hist, cov_hist, ne_hist = [], [], []

    def reoptimise():
        # update_surrogate with no new point re-optimises; the last entry
        # of the history is then this model's estimate.
        nonlocal model, means, est
        model = update_surrogate(model, support)
        means = model.predict_mean(x_cands)
        est = estimate(means)
        pf_hist[-1], cov_hist[-1] = est.pf, est.cov

    termination = "max_iterations"
    for _ in range(max_iter):
        scores = score(model, means, dmin)
        if scores is None and model.n_appended:
            reoptimise()
            scores = score(model, means, dmin)
        if scores is None:
            termination = "converged"
            break
        try:
            idx = select_next(pool, scores)
        except PoolExhausted:
            termination = "pool_exhausted"
            break
        _append_support(evaluator, support, cands[idx])
        model = update_surrogate(model, support)
        dmin = np.minimum(dmin, np.linalg.norm(cands - cands[idx], axis=1))
        means = model.predict_mean(x_cands)
        est = estimate(means)
        pf_hist.append(est.pf)
        cov_hist.append(est.cov)
        ne_hist.append(est.n_eval)
        if window is not None and _window_converged(pf_hist, *window):
            if model.n_appended:
                reoptimise()
            if _window_converged(pf_hist, *window):
                termination = "converged"
                break
    if model.n_appended:
        reoptimise()
    report = StageReport(pf_hist, cov_hist, ne_hist, est, len(support), termination)
    return model, means, initial_pf, report


def stage1(problem: ProblemSpec, config: S4isConfig, rng, evaluator: Evaluator):
    """Exploration stage: uniform candidates on [-hw, hw]^d (hw =
    ``HYPERCUBE_HALF_WIDTH``), space-filling initial design, distance-aware
    refinement, coarse estimator.

    Returns (report, surrogate, support set, failure samples in u-space).
    """
    rv = problem.marginals
    d = problem.dim
    n_c1 = config.candidates_stage1(d)
    cands = sample_hypercube(d, n_c1, rng)
    pool = CandidatePool(cands)
    x_cands = _feature_map(rv, rv.from_standard_normal(cands))

    init_idx = _maximin_indices(cands, config.initial_support(d))
    pool.selected[init_idx] = True
    support = _evaluate_support(evaluator, cands[init_idx])
    model = fit_surrogate(support, _system_rule(problem), config.wants_isotropic_gp(d))

    def score(model, means, dmin):
        return lf1_scores(np.abs(means), dmin, _scale(support.outputs))

    model, means, _, report = _refine(
        evaluator, model, support, pool, x_cands, log_std_normal_pdf(cands),
        np.log(hypercube_density(cands)), score, config.max_iter1,
        (config.a1, config.eps1))
    report.coarse = True
    failure_u = cands[means <= 0]
    if failure_u.shape[0] == 0:
        hw = HYPERCUBE_HALF_WIDTH
        raise StageFailureError(
            f"stage 1 classified no candidate of [-{hw:g}, {hw:g}]^{d} as failed; enlarge "
            f"its candidate pool (n_c1, {n_c1} here); FORM-seeded exploration, "
            f"which needs no failed candidate, is used from d = {HIGHDIM_THRESHOLD} on")
    return report, model, support, failure_u


def stage2(problem: ProblemSpec, config: S4isConfig, rng, evaluator: Evaluator,
           model, support, failure_u=None, mpps=None):
    """Importance-sampling stage around the mixture of most probable points."""
    rv = problem.marginals
    notes = {}
    if mpps is None:
        assignment = kmeans(failure_u, config.k_clusters, rng)
        mpps = mpp_per_cluster(failure_u, assignment)
        if assignment.reduced:
            notes["k_reduced_to"] = int(assignment.k)
    gm = GaussianMixture(mpps)
    notes["n_mixture_components"] = int(gm.n_components)

    cands = gm.sample(config.n_c2, rng)
    pool = CandidatePool(cands)
    x_cands = _feature_map(rv, rv.from_standard_normal(cands))
    log_pn = log_std_normal_pdf(cands)
    log_q2 = gm.logpdf(cands)

    def score(model, means, dmin):
        return lf2_scores(np.abs(means), dmin, log_pn, log_q2, _scale(support.outputs))

    model, means, initial_pf, report = _refine(
        evaluator, model, support, pool, x_cands, log_pn, log_q2, score,
        config.max_iter2, (config.a2, config.eps2))
    report.initial_pf = initial_pf
    report.notes = notes

    # CoV control: enlarge the candidate pool at surrogate-only cost until
    # the estimator variance target is met or the growth cap is reached.
    est = report.final
    grown = 0
    while (not est.cov_defined or est.cov > config.cov_target) and \
            len(pool) < config.pool_growth_limit * config.n_c2:
        extra = gm.sample(config.n_c2, rng)
        pool.extend(extra)
        log_pn = np.concatenate([log_pn, log_std_normal_pdf(extra)])
        log_q2 = np.concatenate([log_q2, gm.logpdf(extra)])
        x_extra = _feature_map(rv, rv.from_standard_normal(extra))
        means = np.concatenate([means, model.predict_mean(x_extra)])
        est = is_estimate_from_log(means <= 0, log_pn, log_q2)
        est.n_eval = evaluator.ledger.count
        grown += 1
    if grown:
        notes["pool_enlargements"] = grown
        report.final = est
        report.pf_history.append(est.pf)
        report.cov_history.append(est.cov)
        report.n_eval_history.append(est.n_eval)
    return report, model


def _thin_trace(rv, trace_u, trace_g, trace_components):
    """Support set of at most ``_TRACE_MAX_POINTS`` trace points, pairwise
    at least ``_TRACE_MIN_SEP`` apart; finite-difference probe points sit
    within the step of their iterate and would otherwise ill-condition the
    kernel matrix. Points near the limit state first."""
    order = np.argsort(np.abs(trace_g), kind="stable")
    keep = []
    for i in order:
        if len(keep) >= _TRACE_MAX_POINTS:
            break
        if all(np.linalg.norm(trace_u[i] - trace_u[j]) >= _TRACE_MIN_SEP for j in keep):
            keep.append(int(i))
    keep.sort()
    return SupportPointSet(trace_u[keep], _feature_map(rv, rv.from_standard_normal(trace_u[keep])),
                           trace_g[keep], trace_components[keep])


def _form_seed(problem, config, rng, evaluator):
    """FORM-driven exploration for high dimension: multi-start HL-RF supplies
    both the mixture centers and the initial support set."""
    rv = problem.marginals
    # Past ~20 inputs, central-difference gradients dominate the evaluation
    # budget; forward differences halve the per-iteration cost.
    fd = "forward" if problem.dim >= 20 else "central"
    distinct, all_results = multi_start_mpps(evaluator, 1, rng, fd_scheme=fd)
    trace_u = np.vstack([r.trace_u for r in all_results])
    trace_g = np.concatenate([r.trace_g for r in all_results])
    trace_c = np.vstack([r.trace_components for r in all_results])
    # Keep every converged MPP in the training set.
    support = _thin_trace(rv, trace_u, trace_g, trace_c)
    model = fit_surrogate(support, _system_rule(problem),
                          config.wants_isotropic_gp(problem.dim))
    mpps = np.array([r.u_star for r in distinct])
    beta_min = distinct[0].beta
    pf_form = form_pf(beta_min)
    final = ReliabilityEstimate(pf=pf_form, variance=0.0, cov=math.nan,
                                n_eval=evaluator.ledger.count, n_samples=0)
    report = StageReport([], [], [], final, len(support), "form_seed", coarse=True,
                         notes={"beta": beta_min, "n_mpps": len(distinct)})
    return report, model, support, mpps


def run_s4is(problem: ProblemSpec, config: S4isConfig, rng):
    """Full run: exploration (sampling-based or FORM-seeded) then the
    mixture importance-sampling refinement."""
    evaluator = Evaluator(problem)
    if config.wants_form_seed(problem.dim):
        s1_report, model, support, mpps = _form_seed(problem, config, rng, evaluator)
        s2_report, model = stage2(problem, config, rng, evaluator, model, support,
                                  mpps=mpps)
    else:
        s1_report, model, support, failure_u = stage1(problem, config, rng, evaluator)
        s2_report, model = stage2(problem, config, rng, evaluator, model, support,
                                  failure_u=failure_u)
    return S4isResult(estimate=s2_report.final, stage1=s1_report, stage2=s2_report)


def _fallback_mpp(evaluator, rng):
    """The baselines' MPP when the search from the mean point fails: the
    lowest-beta result of a 10-start HL-RF search."""
    distinct, _ = multi_start_mpps(evaluator, 10, rng)
    return distinct[0]


def run_akis_baseline(problem: ProblemSpec, config: S4isConfig, rng):
    """Single-MPP importance-sampling baseline: HL-RF, a single shifted
    Gaussian instrumental density, and min-U refinement of an aggregated
    surrogate until the classification is certain (min U >= 2)."""
    rv = problem.marginals
    evaluator = Evaluator(problem)
    start = np.zeros(problem.dim)
    res = None
    for attempt in range(10):
        try:
            cand = hlrf_search(evaluator, start)
        except StationaryPointError:
            # Symmetric systems can have a vanishing finite-difference
            # gradient at the mean point; jitter the start and retry.
            cand = None
        if cand is not None and cand.converged:
            res = cand
            break
        start = rng.uniform(-2.0, 2.0, size=problem.dim)
    if res is None:
        res = _fallback_mpp(evaluator, rng)
    gm = GaussianMixture(res.u_star[None, :])
    cands = gm.sample(config.n_c2, rng)
    pool = CandidatePool(cands)
    x_cands = _feature_map(rv, rv.from_standard_normal(cands))

    support = _thin_trace(rv, res.trace_u, res.trace_g, res.trace_components)
    doe_idx = _maximin_indices(cands - res.u_star, 12)
    pool.selected[doe_idx] = True
    for i in doe_idx:
        _append_support(evaluator, support, cands[i])
    model = fit_surrogate(support)

    def score(model, means, dmin):
        sds = model.predict_sd(x_cands)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_scores = np.where(sds > 0, np.abs(means) / sds,
                                np.where(means == 0, 0.0, np.inf))
        unselected = u_scores[~pool.selected]
        if unselected.size and float(np.min(unselected)) >= 2.0:
            return None
        return u_scores

    # Fixed-size IS estimate: the single shifted Gaussian cannot reach other
    # failure branches anyway, so growing the pool only adds weight variance.
    *_, report = _refine(evaluator, model, support, pool, x_cands,
                         log_std_normal_pdf(cands), gm.logpdf(cands), score,
                         config.max_iter2)
    return report.final


def check_sample_count(n):
    """``n`` as a reference sample count: an integer >= 1, never a bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"sample count must be an integer >= 1, got {n!r}")
    return int(n)


def run_mcs_baseline(problem: ProblemSpec, n: int, rng):
    """Crude Monte Carlo with n samples of the true performance function.

    The samples are drawn ``REFERENCE_BLOCK_ROWS`` rows at a time; the
    generator's normal stream is the same as for one (n, d) draw.
    """
    n = check_sample_count(n)
    rv = problem.marginals
    evaluator = Evaluator(problem)
    failed = np.empty(n, dtype=bool)
    for start in range(0, n, REFERENCE_BLOCK_ROWS):
        rows = min(REFERENCE_BLOCK_ROWS, n - start)
        u = rng.standard_normal(size=(rows, problem.dim))
        failed[start:start + rows] = evaluator.g_batch(rv.from_standard_normal(u)) <= 0
    est = mcs_estimate(failed)
    est.n_eval = evaluator.ledger.count
    return est


def run_form_baseline(problem: ProblemSpec, rng):
    """Classical first-order estimate: a single HL-RF search from the mean
    point, reporting Phi(-beta) at the final iterate whether or not the
    search converged (oscillation on multimodal limit states is part of the
    method's documented behaviour).  A vanishing gradient at the mean point
    falls back to a multi-start search."""
    evaluator = Evaluator(problem)
    try:
        res = hlrf_search(evaluator, np.zeros(problem.dim))
    except StationaryPointError:
        res = _fallback_mpp(evaluator, rng)
    pf = form_pf(res.beta)
    return ReliabilityEstimate(pf, 0.0, float("nan"),
                               n_eval=evaluator.ledger.count, n_samples=0)
