"""The built-in benchmark problems and their reference experiments.

Each example has one row in ``_EXAMPLES``, keyed by its problem name: how
to build the problem, and the values reported for the methods compared in
the reference study (crude MCS, FORM, the single-MPP importance-sampling
baseline, and the two-stage mixture method), together with the tolerance
bands used by the reproduction suite. The reported MCS pf is the problem's
``reference_pf``. ``run_experiment`` executes the configured replicates
and emits a comparison report.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .errors import ConfigError, S4isError, StageFailureError
from .estimators import (failure_weights, is_estimate_from_weighted, reference_blocks,
                         relative_error)
# Unused here, but bench/tracing.py patches this name and log_std_normal_pdf
# in this module; both stay importable from it.
from .estimators import is_estimate_from_log  # noqa: F401
from .evaluation import Evaluator, ProblemSpec
from .form import DEDUP_DISTANCE, start_points
from .pipeline import (S4isConfig, check_count, run_akis_baseline,
                       run_form_baseline, run_mcs_baseline, run_s4is)
from .probability import (GaussianMixture, Marginal, RandomVector,
                          log_std_normal_pdf)

METHODS = ("mcs", "form", "akis", "s4is")  # also the CLI's method choices
BUILTIN_NAMES = ("example1", "example2", "example3", "example4", "example5")
EXAMPLE4_LEVELS = (3, 4, 5)  # the values of example4's constant c


@dataclass(frozen=True)
class Band:
    """A reported reference value with the tolerance band the reproduction
    suite checks, and where the value comes from ("reported" for values
    taken from the reference tables, "computed" for locally derived ones).
    """

    quantity: str  # "pf", "eps_r" or "n_eval"
    value: float
    low: float
    high: float
    provenance: str = "reported"

    def __post_init__(self):
        if not self.low <= self.high:
            raise ConfigError(f"empty tolerance band for {self.quantity}")
        if self.provenance not in ("reported", "computed"):
            raise ConfigError(f"unknown provenance {self.provenance!r}")

    def contains(self, x):
        return self.low <= x <= self.high


@dataclass(frozen=True)
class ExperimentDef:
    example_id: str
    problem: ProblemSpec
    methods: tuple
    mcs_n: int
    replicates: int
    # method name -> tuple of Bands
    expected: dict = field(default_factory=dict)

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
        object.__setattr__(self, "replicates", check_count("replicates", self.replicates))


def _std_normals(d):
    return RandomVector(tuple(Marginal("normal", 0.0, 1.0) for _ in range(d)))


def _example1_components():
    r2 = math.sqrt(2.0)

    def c1(t):
        return 3 + 0.1 * (t[:, 0] - t[:, 1]) ** 2 - r2 * (t[:, 0] + t[:, 1]) / 2

    def c2(t):
        return 3 + 0.1 * (t[:, 0] - t[:, 1]) ** 2 + r2 * (t[:, 0] + t[:, 1]) / 2

    def c3(t):
        return (t[:, 0] - t[:, 1]) + 3 * r2

    def c4(t):
        return -(t[:, 0] - t[:, 1]) + 3 * r2

    return (c1, c2, c3, c4)


def _example2_component(t):
    c1, c2, m, r, t1, f1 = (t[:, i] for i in range(6))
    w0 = np.sqrt((c1 + c2) / m)
    return 3 * r - np.abs(2 * f1 / (m * w0**2) * np.sin(w0 * t1 / 2))


def _example3_component(t):
    t1, t2 = t[:, 0], t[:, 1]
    return -((t1**2 + 4) * (t2 - 1)) / 20 + np.sin(2.5 * t1) + 2


def _example4_components(c):
    def c1(t):
        return c - 1 - t[:, 1] + np.exp(-t[:, 0] ** 2 / 10) + (t[:, 0] / 5) ** 4

    def c2(t):
        return c**2 / 2 - t[:, 0] * t[:, 1]

    return (c1, c2)


def _example5_component(d):
    # Threshold three sigma-of-the-sum above the mean of the sum; with the
    # benchmark's lognormal(mean 1, sd 0.2) marginals this reproduces the
    # reported reference probabilities at every dimension.
    threshold = d + 3 * 0.2 * math.sqrt(d)

    def comp(t):
        return threshold - np.sum(t, axis=-1)

    return comp


# One row per example, keyed by the problem's name: (``builtin_problem``
# arguments, {method: {quantity: reported value}}). A gated quantity is
# (value, low, high): the band is wider than the reported scatter to absorb
# implementation variance. eps_r entries are fractions, not percentages.
# The MCS pf is the large-sample reference, the problem's ``reference_pf``.
_EXAMPLES = {
    "example1": ({"name": "example1"}, {
        "mcs": {"pf": (4.460e-3, 4.2e-3, 4.7e-3), "n_eval": 1e6},
        "form": {"pf": 1.348e-3, "eps_r": 0.698, "n_eval": 12},
        "akis": {"pf": 1.179e-3, "eps_r": 0.736, "n_eval": 71.1},
        "s4is": {"pf": 4.483e-3, "eps_r": (0.005, 0.0, 0.10), "n_eval": (60.6, 0.0, 150.0)}}),
    "example2": ({"name": "example2"}, {
        "mcs": {"pf": 0.02857, "n_eval": 1e6},
        "form": {"pf": (0.03116, 0.03116 * 0.85, 0.03116 * 1.15), "eps_r": 0.091, "n_eval": 39},
        "akis": {"pf": 0.02863, "eps_r": 0.002, "n_eval": 91.4},
        "s4is": {"pf": 0.02830, "eps_r": (0.009, 0.0, 0.10), "n_eval": (53.3, 0.0, 150.0)}}),
    "example3": ({"name": "example3"}, {
        "mcs": {"pf": 0.03130, "n_eval": 1e6},
        "form": {"pf": 0.1182, "eps_r": (2.776, 1.0, math.inf), "n_eval": 695},
        "akis": {"pf": 0.03123, "eps_r": 0.002, "n_eval": 985.9},
        "s4is": {"pf": 0.03078, "eps_r": (0.017, 0.0, 0.10), "n_eval": (71.4, 0.0, 200.0)}}),
    "example4_c3": ({"name": "example4", "c": 3}, {
        "mcs": {"pf": 3.470e-3, "n_eval": 1e6},
        "form": {"pf": (1.350e-3, 1.350e-3 * 0.9, 1.350e-3 * 1.1), "eps_r": 0.611, "n_eval": 7},
        "akis": {"pf": 1.462e-3, "eps_r": 0.579, "n_eval": 97.6},
        "s4is": {"pf": 3.531e-3, "eps_r": (0.018, 0.0, 0.15), "n_eval": (72.8, 0.0, 200.0)}}),
    "example4_c4": ({"name": "example4", "c": 4}, {
        "mcs": {"pf": 9.172e-5, "n_eval": 4e6},
        "form": {"pf": 3.167e-5, "eps_r": 0.655, "n_eval": 7},
        "akis": {"pf": 4.509e-5, "eps_r": 0.508, "n_eval": 110.3},
        "s4is": {"pf": 9.120e-5, "eps_r": (0.006, 0.0, 0.20), "n_eval": (83.2, 0.0, 250.0)}}),
    "example4_c5": ({"name": "example4", "c": 5}, {
        "mcs": {"pf": 9.485e-7, "n_eval": 4e8},
        "form": {"pf": 2.867e-7, "eps_r": 0.698, "n_eval": 7},
        "akis": {"pf": 2.277e-7, "eps_r": 0.760, "n_eval": 92.4},
        "s4is": {"pf": 9.035e-7, "eps_r": (0.047, 0.0, 0.30), "n_eval": (118.6, 0.0, 300.0)}}),
    "example5_d2": ({"name": "example5", "d": 2}, {
        "mcs": {"pf": 4.926e-3, "n_eval": 1e6},
        "form": {"pf": 3.844e-3, "eps_r": 0.220, "n_eval": 20},
        "akis": {"pf": 4.928e-3, "eps_r": 0.0004, "n_eval": 59.0},
        "s4is": {"pf": 4.921e-3, "eps_r": (0.001, 0.0, 0.10), "n_eval": (23.9, 0.0, 80.0)}}),
    "example5_d10": ({"name": "example5", "d": 10}, {
        "mcs": {"pf": 2.744e-3, "n_eval": 1e6},
        "form": {"pf": 1.003e-3, "eps_r": 0.634, "n_eval": 35},
        "akis": {"pf": 2.711e-3, "eps_r": 0.012, "n_eval": 678.2},
        "s4is": {"pf": 2.739e-3, "eps_r": (0.002, 0.0, 0.15), "n_eval": (48.6, 0.0, 200.0)}}),
    "example5_d50": ({"name": "example5", "d": 50}, {
        "mcs": {"pf": 1.934e-3, "n_eval": 1e6},
        "form": {"pf": 1.541e-4, "eps_r": 0.920, "n_eval": 155},
        "akis": {"pf": 1.903e-3, "eps_r": 0.016, "n_eval": 1845.2},
        "s4is": {"pf": 1.915e-3, "eps_r": (0.010, 0.0, 0.20), "n_eval": (168.6, 0.0, 500.0)}}),
}

EXAMPLE_IDS = tuple(_EXAMPLES)


def _band(quantity, entry):
    """A table entry as a Band: an ungated value gets an unbounded band."""
    value, low, high = entry if isinstance(entry, tuple) else (entry, -math.inf, math.inf)
    return Band(quantity, value, low, high)


def builtin_problem(name, c=None, d=None):
    """Construct one of the built-in benchmark problems ``BUILTIN_NAMES``.

    example4 takes the reliability-level constant ``c`` in
    ``EXAMPLE4_LEVELS``; example5 takes the dimension ``d`` >= 1; no other
    problem takes either. The reference pf is the MCS pf of the problem's
    ``_EXAMPLES`` row; example5 at a dimension with no row has none.
    """
    if name not in BUILTIN_NAMES:
        raise ConfigError(f"unknown built-in problem {name!r}")
    for key, value, taker in (("c", c, "example4"), ("d", d, "example5")):
        if value is not None and name != taker:
            raise ConfigError(f"{name} takes no {key}; only {taker} does, got {key}={value!r}")
    aggregation = "single"
    if name == "example1":
        marginals, components, aggregation = _std_normals(2), _example1_components(), "series_min"
    elif name == "example2":
        # (mean, sd) of c1, c2, m, r, t1 and f1
        marginals = RandomVector(tuple(Marginal("normal", mean, sd) for mean, sd in (
            (1.0, 0.1), (0.1, 0.01), (1.0, 0.05), (0.5, 0.05), (1.0, 0.2), (1.0, 0.2))))
        components = (_example2_component,)
    elif name == "example3":
        marginals = RandomVector((Marginal("normal", 1.5, 1.0), Marginal("normal", 2.5, 1.0)))
        components = (_example3_component,)
    elif name == "example4":
        if not isinstance(c, numbers.Integral) or c not in EXAMPLE4_LEVELS:
            levels = ", ".join(map(str, EXAMPLE4_LEVELS))
            raise ConfigError(f"example4 requires c in {{{levels}}}, got {c!r}")
        name = f"example4_c{c}"
        marginals, components, aggregation = _std_normals(2), _example4_components(c), "series_min"
    else:
        d = check_count("d", d)
        name = f"example5_d{d}"
        marginals = RandomVector(tuple(Marginal("lognormal", 1.0, 0.2) for _ in range(d)))
        components = (_example5_component(d),)
    ref = _band("pf", _EXAMPLES[name][1]["mcs"]["pf"]).value if name in _EXAMPLES else None
    return ProblemSpec(name, marginals, components, aggregation, ref,
                       None if ref is None else "reported")


def reference_table(example_id, replicates=10):
    """The comparison experiment for one example: its row of ``_EXAMPLES``
    as one Band per reported value, in table order; an ungated value has
    the band (-inf, inf)."""
    if example_id not in _EXAMPLES:
        raise ConfigError(f"unknown example id {example_id!r}")
    problem_args, reported = _EXAMPLES[example_id]
    expected = {method: tuple(_band(q, entry) for q, entry in values.items())
                for method, values in reported.items()}
    # Ground truth at desk scale: example4 c=5 replaces the 4e8-sample MCS
    # with a true-g importance-sampling oracle, so no mcs method there.
    methods = METHODS[1:] if example_id == "example4_c5" else METHODS
    mcs_n = int(reported["mcs"]["n_eval"]) if "mcs" in methods else 0
    return ExperimentDef(example_id, builtin_problem(**problem_args), methods,
                         mcs_n, replicates, expected)


def oracle_is_reference(problem: ProblemSpec, rng, n=1_000_000):
    """High-precision reference for very small failure probabilities: an
    importance-sampling estimate with the true performance function and a
    Gaussian mixture centred on the distinct MPPs (identity covariance).

    MPPs are searched per component with constrained optimisation
    (min ||u||^2 s.t. g <= 0) from the starts of
    :func:`s4is.form.start_points`; MPPs within ``DEDUP_DISTANCE`` of an
    earlier one are dropped. HL-RF is avoided here because it oscillates on
    some component geometries and a missed branch would bias the reference
    low.

    The n component indices are drawn at once, then the samples are drawn,
    evaluated and weighted ``REFERENCE_BLOCK_ROWS`` rows at a time
    (:func:`s4is.estimators.reference_blocks`), the stream of one
    :meth:`GaussianMixture.sample` (:meth:`GaussianMixture.block_sampler`).
    Both densities are taken at a block's failure samples only, and their
    weights go straight into the estimate's n weighted indicators. So the
    oracle holds 9 bytes per sample, those weights and a one-byte
    component index (up to 256 centres), and gives the estimate of
    :func:`s4is.estimators.is_estimate_from_log` on all n log weights, bit
    for bit. After an error in a block, ``EvaluationError`` or
    ``DensitySupportError``, the generator has drawn up to the end of that
    block.
    """
    n = check_count("sample count", n)
    d = problem.dim
    rv = problem.marginals
    centers = []
    for comp in problem.components:
        def g_u(u, comp=comp):
            return float(comp(np.atleast_2d(rv.from_standard_normal(u)))[0])

        for s in start_points(d, rng):
            res = optimize.minimize(
                lambda u: float(u @ u), s, jac=lambda u: 2.0 * u,
                method="SLSQP",
                constraints=[{"type": "ineq", "fun": lambda u: -g_u(u)}],
                options={"maxiter": 200, "ftol": 1e-10})
            u_star = res.x
            if not res.success or g_u(u_star) > 1e-6:
                continue
            if all(np.linalg.norm(u_star - c) >= DEDUP_DISTANCE for c in centers):
                centers.append(u_star)
    if not centers:
        raise StageFailureError("no MPP found on any component")
    evaluator = Evaluator(problem)
    gm = GaussianMixture(np.array(centers))
    draw = gm.block_sampler(n, rng)
    # Made after the int64 indices are freed, so that it takes fresh pages.
    weighted = np.zeros(n)
    for block in reference_blocks(n):
        u = draw(block)
        failed = evaluator.g_batch(rv.from_standard_normal(u)) <= 0
        u = u[failed]
        weighted[block][failed] = failure_weights(log_std_normal_pdf(u) - gm.logpdf(u))
    return is_estimate_from_weighted(weighted)


@dataclass
class MethodRow:
    method: str
    mean_pf: float
    eps_r: float  # vs the report's reference pf; NaN when no reference
    mean_cov: float
    mean_n_eval: float
    passed: bool | None  # None when the method has no gating bands
    error: str | None = None


@dataclass
class ExperimentReport:
    example_id: str
    reference_pf: float
    reference_source: str  # "mcs" / "oracle" / "reported"
    rows: list

    @property
    def all_passed(self):
        return all(r.passed for r in self.rows if r.passed is not None)

    def format_table(self):
        lines = [f"{self.example_id}  (reference pf {self.reference_pf:.4e},"
                 f" {self.reference_source})",
                 f"{'method':<8}{'mean pf':>12}{'eps_r':>10}{'CoV':>8}"
                 f"{'N_eval':>10}  verdict"]
        for r in self.rows:
            if r.error is not None:
                lines.append(f"{r.method:<8}  FAILED: {r.error}")
                continue
            eps = "--" if math.isnan(r.eps_r) else f"{100 * r.eps_r:.1f}%"
            cov = "--" if math.isnan(r.mean_cov) else f"{100 * r.mean_cov:.1f}%"
            verdict = "-" if r.passed is None else ("pass" if r.passed else "FAIL")
            lines.append(f"{r.method:<8}{r.mean_pf:>12.4e}{eps:>10}{cov:>8}"
                         f"{r.mean_n_eval:>10.1f}  {verdict}")
        return "\n".join(lines)


def run_method(method, problem, config, rng, mcs_n=None):
    """One run of ``method`` on ``problem``: (estimate, the two-stage result
    for s4is or None)."""
    if method == "mcs":
        return run_mcs_baseline(problem, mcs_n, rng), None
    if method == "form":
        return run_form_baseline(problem, rng), None
    if method == "akis":
        return run_akis_baseline(problem, config, rng), None
    if method == "s4is":
        result = run_s4is(problem, config, rng)
        return result.estimate, result
    raise ConfigError(f"unknown method {method!r}")


def summarize(estimates, reference_pf):
    """(mean pf, its relative error against ``reference_pf``, the mean CoV
    over the defined ones, mean n_eval) of one method's replicate
    estimates; the error is NaN without a positive reference, and the CoV
    NaN when none is defined."""
    mean_pf = float(np.mean([e.pf for e in estimates]))
    eps_r = relative_error(reference_pf, mean_pf) if reference_pf else math.nan
    covs = [e.cov for e in estimates if e.cov_defined]
    mean_cov = float(np.mean(covs)) if covs else math.nan
    return mean_pf, eps_r, mean_cov, float(np.mean([e.n_eval for e in estimates]))


def run_experiment(exp: ExperimentDef, rng):
    """Run every configured method, with the default ``S4isConfig``, for the
    configured replicate count and compare against the tolerance bands.

    The relative-error reference is, in order of preference: this run's own
    MCS mean, the true-g oracle when the experiment has no mcs method
    (example4 c=5), or the reported value.  A method's ``S4isError`` becomes
    a failed row, not an aborted report; any other exception propagates.
    """
    config = S4isConfig()
    estimates = {}
    errors = {}
    for method in exp.methods:
        reps = exp.replicates if method in ("akis", "s4is") else 1
        try:
            estimates[method] = [run_method(method, exp.problem, config, rng, exp.mcs_n)[0]
                                 for _ in range(reps)]
        except S4isError as e:  # an analysis error fails the row, a bug propagates
            errors[method] = f"{type(e).__name__}: {e}"

    if "mcs" in estimates:
        ref = float(np.mean([e.pf for e in estimates["mcs"]]))
        source = "mcs"
    elif "mcs" not in exp.methods:
        ref, source = oracle_is_reference(exp.problem, rng).pf, "oracle"
    else:
        ref, source = exp.problem.reference_pf, "reported"

    rows = []
    for method in exp.methods:
        if method in errors:
            rows.append(MethodRow(method, math.nan, math.nan, math.nan,
                                  math.nan, False, errors[method]))
            continue
        mean_pf, eps_r, mean_cov, mean_n_eval = summarize(estimates[method], ref)
        measured = {"pf": mean_pf, "eps_r": eps_r, "n_eval": mean_n_eval}
        verdicts = [band.contains(measured[band.quantity])
                    for band in exp.expected.get(method, ())
                    if (band.low, band.high) != (-math.inf, math.inf)]
        passed = None if not verdicts else all(verdicts)
        rows.append(MethodRow(method, mean_pf, eps_r, mean_cov, mean_n_eval, passed))
    return ExperimentReport(exp.example_id, ref, source, rows)
