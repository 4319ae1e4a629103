"""Two-stage orchestration: exploratory coarse surrogate, Gaussian-mixture
importance sampling with adaptive refinement, and the single-MPP
importance-sampling baseline. Both explorations hand stage 2 its mixture
centres; both stages and the baseline share one refinement loop,
:func:`_refine`, with one stop site.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .clustering import kmeans, mpp_per_cluster
from .errors import ConfigError, StageFailureError, StationaryPointError
from .estimators import (ReliabilityEstimate, is_estimate_from_log, mcs_estimate,
                         reference_blocks)
from .evaluation import Evaluator, ProblemSpec
from .form import form_pf, hlrf_search, multi_start_mpps, spread
from .learning import CandidatePool, lf1_scores, lf2_scores, min_distances, select_next
from .probability import (HYPERCUBE_HALF_WIDTH, GaussianMixture, hypercube_density,
                          log_std_normal_pdf, sample_hypercube)
from .surrogate import SupportPointSet, fit_surrogate, update_surrogate

HIGHDIM_THRESHOLD = 10  # stage 1 is FORM-seeded from this dimension on
_TRACE_MIN_SEP = 0.05  # u-space separation of the points kept from an HL-RF trace
_TRACE_MAX_POINTS = 300  # and their largest number

# S4isConfig's integer fields and their lowest values: stage 1's design must
# fit a GP, which takes two points; iteration caps may be 0.
_LOWEST = {"n_c1": 2, "n_s1_0": 2, "n_c2": 1, "k_clusters": 1, "a1": 1, "a2": 1,
           "pool_growth_limit": 1, "max_iter1": 0, "max_iter2": 0}


def check_count(name, value, lowest=1):
    """``value`` as the count ``name``: an integer >= ``lowest``, never a
    bool (a switch is never a valid count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lowest:
        raise ConfigError(f"{name} must be an integer >= {lowest}, got {value!r}")
    return int(value)


@dataclass
class S4isConfig:
    """The run parameters of the two-stage method; defaults follow the
    reference settings (trailing window 5, tolerances 0.01 / 0.001).
    Everything else (FORM-seeded exploration, isotropic kernels, forward
    differences, the composite surrogate) is decided by the problem."""

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
        for name, lowest in _LOWEST.items():
            value = getattr(self, name)
            if value is not None or name not in ("n_c1", "n_s1_0"):
                check_count(name, value, lowest)
        for name in ("eps1", "eps2", "cov_target"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not value > 0:
                raise ConfigError(f"{name} must be a number > 0, got {value!r}")

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
    """The support points at the u-space rows ``us``: true g per row."""
    rv = evaluator.problem.marginals
    thetas = np.atleast_2d(rv.from_standard_normal(us))
    comps = np.array([evaluator.components_at(t) for t in thetas])
    ys = evaluator.problem.aggregate(comps)
    return SupportPointSet(us, _feature_map(rv, thetas), np.atleast_1d(ys), comps)


def _candidate_pool(rv, points, log_density):
    """The pool of the u-space rows ``points`` drawn from ``log_density``."""
    x = _feature_map(rv, rv.from_standard_normal(points))
    return CandidatePool(points, x, log_std_normal_pdf(points) - log_density(points))


def _estimate(evaluator, means, log_w):
    """The IS estimate of the surrogate's failure set ``means <= 0`` with
    the log weights ``log_w``, with the true-g calls spent so far."""
    est = is_estimate_from_log(means <= 0, log_w)
    est.n_eval = evaluator.ledger.count
    return est


def _window_converged(history, window, tol):
    if len(history) <= window:
        return False
    mean = float(np.mean(history[-window:]))
    if mean <= 0:
        return False
    return abs(history[-1] - mean) / mean <= tol


def _refine(evaluator, model, support, pool, score, max_iter):
    """The adaptive loop shared by both stages and AK-IS.

    Each pass scores the pool with ``score(model, means, dmin, pf_hist)``,
    which returns None when the caller's stopping rule holds: the one stop
    site, also reached after the last of ``max_iter`` iterations. Otherwise
    it evaluates the true g at the best unselected candidate, updates the
    surrogate, predicts the pool once and appends the IS estimate against
    the pool's ``log_w``.

    Most updates append the new point at fixed hyperparameters. A stopping
    rule is only taken on a fully optimised model: when it fires on a
    model that carries appended points, the model is re-optimised, the
    last estimate replaced and the rule tested again. The model returned
    is fully optimised under every termination.

    Returns (model, pool means, initial pf, report): the report holds the
    last estimate, the per-iteration histories and the termination reason.
    """
    cands = pool.points
    means = model.predict_mean(pool.x)
    est = _estimate(evaluator, means, pool.log_w)
    initial_pf = est.pf
    dmin = min_distances(cands, support.inputs_u)
    pf_hist, cov_hist, ne_hist = [], [], []

    def reoptimise():
        # update_surrogate with no new point re-optimises; the last entry
        # of the history is then this model's estimate.
        nonlocal model, means, est
        model = update_surrogate(model, support)
        means = model.predict_mean(pool.x)
        est = _estimate(evaluator, means, pool.log_w)
        pf_hist[-1], cov_hist[-1] = est.pf, est.cov

    termination = "max_iterations"
    while True:
        scores = score(model, means, dmin, pf_hist)
        if scores is None and model.n_appended:
            reoptimise()  # the model now has no appended point
            continue
        if scores is None:
            termination = "converged"
            break
        if len(pf_hist) == max_iter:
            break
        idx = select_next(pool, scores)
        if idx is None:
            termination = "pool_exhausted"
            break
        support.extend(_evaluate_support(evaluator, cands[[idx]]))
        model = update_surrogate(model, support)
        dmin = np.minimum(dmin, np.linalg.norm(cands - cands[idx], axis=1))
        means = model.predict_mean(pool.x)
        est = _estimate(evaluator, means, pool.log_w)
        pf_hist.append(est.pf)
        cov_hist.append(est.cov)
        ne_hist.append(est.n_eval)
    if model.n_appended:
        reoptimise()
    report = StageReport(pf_hist, cov_hist, ne_hist, est, len(support), termination)
    return model, means, initial_pf, report


def stage1(problem: ProblemSpec, config: S4isConfig, rng, evaluator: Evaluator):
    """Exploration stage: uniform candidates on [-hw, hw]^d (hw =
    ``HYPERCUBE_HALF_WIDTH``), space-filling initial design, distance-aware
    refinement until the (a1, eps1) window holds, coarse estimator, then
    k-means on the candidates it classifies as failed.

    Returns (report, surrogate, support set, cluster MPPs), like _form_seed.
    """
    rv = problem.marginals
    d = problem.dim
    n_c1 = config.candidates_stage1(d)
    pool = _candidate_pool(rv, sample_hypercube(d, n_c1, rng),
                           lambda u: np.log(hypercube_density(u)))
    cands = pool.points
    init_idx = _maximin_indices(cands, config.initial_support(d))
    pool.selected[init_idx] = True
    support = _evaluate_support(evaluator, cands[init_idx])
    model = fit_surrogate(support, problem.aggregate)

    def score(model, means, dmin, pf_hist):
        if _window_converged(pf_hist, config.a1, config.eps1):
            return None
        return lf1_scores(np.abs(means), dmin, _scale(support.outputs))

    model, means, _, report = _refine(evaluator, model, support, pool, score,
                                      config.max_iter1)
    report.coarse = True
    failure_u = cands[means <= 0]
    if failure_u.shape[0] == 0:
        hw = HYPERCUBE_HALF_WIDTH
        raise StageFailureError(
            f"stage 1 classified no candidate of [-{hw:g}, {hw:g}]^{d} as failed; enlarge "
            f"its candidate pool (n_c1, {n_c1} here); FORM-seeded exploration, "
            f"which needs no failed candidate, is used from d = {HIGHDIM_THRESHOLD} on")
    assignment = kmeans(failure_u, config.k_clusters, rng)
    if assignment.reduced:
        report.notes["k_reduced_to"] = int(assignment.k)
    return report, model, support, mpp_per_cluster(failure_u, assignment)


def stage2(problem: ProblemSpec, config: S4isConfig, rng, evaluator: Evaluator,
           model, support, mpps):
    """Importance-sampling stage around the mixture centred on ``mpps``:
    refinement until the (a2, eps2) window holds, then pool growth."""
    rv = problem.marginals
    gm = GaussianMixture(mpps)
    notes = {"n_mixture_components": int(gm.n_components)}

    pool = _candidate_pool(rv, gm.sample(config.n_c2, rng), gm.logpdf)

    def score(model, means, dmin, pf_hist):
        if _window_converged(pf_hist, config.a2, config.eps2):
            return None
        return lf2_scores(np.abs(means), dmin, pool.log_w, _scale(support.outputs))

    model, means, initial_pf, report = _refine(evaluator, model, support, pool, score,
                                               config.max_iter2)
    report.initial_pf = initial_pf
    report.notes = notes

    # CoV control: add n_c2 samples at a time, at surrogate-only cost and never
    # selected from, until the CoV target or pool_growth_limit * n_c2 samples.
    est, log_w = report.final, pool.log_w
    grown = 0
    while not est.cov <= config.cov_target:  # an undefined (NaN) CoV misses it
        if grown + 1 >= config.pool_growth_limit:
            notes["cov_target_missed"] = True
            break
        extra = _candidate_pool(rv, gm.sample(config.n_c2, rng), gm.logpdf)
        log_w = np.concatenate([log_w, extra.log_w])
        means = np.concatenate([means, model.predict_mean(extra.x)])
        est = _estimate(evaluator, means, log_w)
        grown += 1
    if grown:
        notes["pool_enlargements"] = grown
        report.final = est
        report.pf_history.append(est.pf)
        report.cov_history.append(est.cov)
        report.n_eval_history.append(est.n_eval)
    return report, model


def _thin_trace(evaluator, results):
    """Support set of at most ``_TRACE_MAX_POINTS`` points of the HL-RF
    traces of ``results``, pairwise at least ``_TRACE_MIN_SEP`` apart
    (:func:`s4is.form.spread`); finite-difference probe points sit within
    the step of their iterate and would otherwise ill-condition the kernel
    matrix. Points near the limit state first."""
    trace_u = np.vstack([r.trace_u for r in results])
    order = np.argsort(np.abs(np.concatenate([r.trace_g for r in results])), kind="stable")
    keep = np.sort(order[spread(trace_u[order], _TRACE_MIN_SEP, _TRACE_MAX_POINTS)])
    # Every kept row was evaluated by the search: the ledger's cache answers.
    return _evaluate_support(evaluator, trace_u[keep])


def _form_seed(problem, rng, evaluator):
    """FORM-driven exploration for high dimension: the MPPs of :func:`_mpps`
    supply both the mixture centres and the initial support set."""
    results = _mpps(evaluator, rng)
    if not results[0].converged:
        raise StageFailureError(
            f"the HL-RF search from the mean point did not converge in "
            f"{results[0].iterations} iterations; FORM-seeded exploration needs its MPP")
    support = _thin_trace(evaluator, results)
    model = fit_surrogate(support, problem.aggregate)
    beta_min = results[0].beta
    final = ReliabilityEstimate(pf=form_pf(beta_min), variance=0.0, cov=math.nan,
                                n_eval=evaluator.ledger.count, n_samples=0)
    report = StageReport([], [], [], final, len(support), "form_seed", coarse=True,
                         notes={"beta": beta_min, "n_mpps": len(results)})
    return report, model, support, np.array([r.u_star for r in results])


def run_s4is(problem: ProblemSpec, config: S4isConfig, rng):
    """Full run: exploration (sampling-based or FORM-seeded), which yields
    the mixture centres, then the mixture importance-sampling refinement."""
    evaluator = Evaluator(problem)
    if problem.dim >= HIGHDIM_THRESHOLD:
        s1_report, model, support, mpps = _form_seed(problem, rng, evaluator)
    else:
        s1_report, model, support, mpps = stage1(problem, config, rng, evaluator)
    s2_report, model = stage2(problem, config, rng, evaluator, model, support, mpps)
    return S4isResult(estimate=s2_report.final, stage1=s1_report, stage2=s2_report)


def _mpps(evaluator, rng):
    """The MPPs of FORM, AK-IS and the FORM-seeded stage 1, lowest beta
    first: the one HL-RF search from the mean point, converged or not; when
    the mean point is a stationary point, the distinct MPPs of
    :func:`multi_start_mpps`."""
    try:
        return [hlrf_search(evaluator, np.zeros(evaluator.problem.dim))]
    except StationaryPointError:
        return multi_start_mpps(evaluator, rng)


def run_akis_baseline(problem: ProblemSpec, config: S4isConfig, rng):
    """Single-MPP importance-sampling baseline: FORM's MPP, a single shifted
    Gaussian instrumental density, and min-U refinement of an aggregated
    surrogate until the classification is certain (min U >= 2)."""
    rv = problem.marginals
    evaluator = Evaluator(problem)
    res = _mpps(evaluator, rng)[0]
    gm = GaussianMixture(res.u_star[None, :])
    pool = _candidate_pool(rv, gm.sample(config.n_c2, rng), gm.logpdf)
    support = _thin_trace(evaluator, [res])
    doe_idx = _maximin_indices(pool.points - res.u_star, 12)
    pool.selected[doe_idx] = True
    support.extend(_evaluate_support(evaluator, pool.points[doe_idx]))
    model = fit_surrogate(support)

    def score(model, means, dmin, pf_hist):
        sds = model.predict_sd(pool.x)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_scores = np.where(sds > 0, np.abs(means) / sds,
                                np.where(means == 0, 0.0, np.inf))
        unselected = u_scores[~pool.selected]
        if unselected.size and float(np.min(unselected)) >= 2.0:
            return None
        return u_scores

    # Fixed-size IS estimate: the single shifted Gaussian cannot reach other
    # failure branches anyway, so growing the pool only adds weight variance.
    *_, report = _refine(evaluator, model, support, pool, score, config.max_iter2)
    return report.final


def run_mcs_baseline(problem: ProblemSpec, n: int, rng):
    """Crude Monte Carlo with n samples of the true performance function.

    The samples are drawn, transformed and evaluated
    ``REFERENCE_BLOCK_ROWS`` rows at a time
    (:func:`s4is.estimators.reference_blocks`), and each block's failures
    are added to one count, so nothing held grows with n; the generator's
    normal stream is the same as for one (n, d) draw. After an error in a
    block, the generator has drawn up to the end of that block.
    """
    n = check_count("sample count", n)
    rv = problem.marginals
    d = problem.dim
    evaluator = Evaluator(problem)
    n_failed = 0
    for block in reference_blocks(n):
        u = rng.standard_normal(size=(block.stop - block.start, d))
        n_failed += np.count_nonzero(evaluator.g_batch(rv.from_standard_normal(u)) <= 0)
    est = mcs_estimate(n_failed, n)
    est.n_eval = evaluator.ledger.count
    return est


def run_form_baseline(problem: ProblemSpec, rng):
    """Classical first-order estimate Phi(-beta) at the first MPP of
    :func:`_mpps`, converged or not (oscillation on multimodal limit states
    is part of the method's documented behaviour)."""
    evaluator = Evaluator(problem)
    pf = form_pf(_mpps(evaluator, rng)[0].beta)
    return ReliabilityEstimate(pf, 0.0, float("nan"),
                               n_eval=evaluator.ledger.count, n_samples=0)
