"""The benchmark's workloads: which method runs on which built-in problem,
how each solve is checked, and what one solve reports.

A workload is a list of cases; one *unit* runs every case once, each with
its own generator derived from (seed, unit, case index). The program only
sees the built problem, the default ``S4isConfig`` and that generator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from s4is import (S4isConfig, S4isError, oracle_is_reference, run_form_baseline,
                  run_mcs_baseline, run_s4is)
from s4is.benchmarks import reference_table

MCS_SAMPLES = 1_000_000
# |pf - reference| / reference allowed for a method that has no band of its
# own in s4is.benchmarks: MCS at 1e6 samples (CoV <= 2 %) and the true-g
# oracle.
FALLBACK_REL_TOL = 0.10


@dataclass(frozen=True)
class Case:
    method: str       # "s4is", "mcs", "oracle" or "form"
    example_id: str   # key of s4is.benchmarks.reference_table

    @property
    def label(self):
        return f"{self.method}/{self.example_id}"


@dataclass(frozen=True)
class Workload:
    """A named list of cases; why each exists is in bench/README.md."""

    name: str
    cases: tuple
    # A run of S seconds measures round(S / seconds_per_unit) units, at
    # least one. At 50 s on a 2-core x86 box that is 4 units of ~12.4 s and
    # 12 of ~2.1 s. The s4is workload fills the run, long enough to average
    # over the swings in machine speed of a shared host; reference_sampling
    # is steady and needs less, which keeps the runs of both within the
    # total time a benchmark of two workloads may take.
    seconds_per_unit: float


WORKLOADS = {w.name: w for w in (
    Workload("s4is_solve",
             (Case("s4is", "example1"), Case("s4is", "example4_c5")), 12.0),
    Workload("reference_sampling",
             (Case("mcs", "example2"), Case("mcs", "example5_d10"),
              Case("oracle", "example1"), Case("form", "example2")), 4.1),
)}


@dataclass
class Outcome:
    """What one solve reports, in the form compared across runs."""

    pf: float
    n_eval: int
    cov: float
    history: tuple  # per-stage pf histories; empty for one-shot methods


def build(workload: Workload):
    """The set-up step: the reference experiment, with its problem and
    bands, for every case."""
    return [(case, reference_table(case.example_id)) for case in workload.cases]


def solve(case: Case, problem, rng) -> Outcome:
    if case.method == "s4is":
        res = run_s4is(problem, S4isConfig(), rng)
        history = (tuple(res.stage1.pf_history), tuple(res.stage2.pf_history))
        est = res.estimate
    elif case.method == "mcs":
        est, history = run_mcs_baseline(problem, MCS_SAMPLES, rng), ()
    elif case.method == "form":
        est, history = run_form_baseline(problem, rng), ()
    else:
        est, history = oracle_is_reference(problem, rng, n=MCS_SAMPLES), ()
        # Every oracle sample is one true-g call.
        est.n_eval = est.n_samples
    return Outcome(est.pf, int(est.n_eval), est.cov, history)


def relative_error(outcome: Outcome, exp):
    ref = exp.problem.reference_pf
    return abs(outcome.pf - ref) / ref


def flagged(case: Case, outcome: Outcome):
    """The reason the method itself marks this answer unreliable, or None:
    an undefined CoV from a sampling method, or a two-stage run that
    stopped growing its pool before reaching its own CoV target. FORM
    samples nothing and has no CoV."""
    if case.method != "form" and not math.isfinite(outcome.cov):
        return f"pf={outcome.pf!r} has no defined CoV"
    target = S4isConfig().cov_target
    if case.method == "s4is" and outcome.cov > target:
        return f"CoV {outcome.cov:.4f} above the target {target} (pf={outcome.pf!r})"
    return None


def check(case: Case, exp, outcome: Outcome):
    """None when the answer is acceptable, else the reason it is not.

    The method's gating bands from ``reference_table`` apply where it has
    any; otherwise the relative error to the recorded reference must stay
    within ``FALLBACK_REL_TOL``.
    """
    rel = relative_error(outcome, exp)
    measured = {"pf": outcome.pf, "eps_r": rel, "n_eval": outcome.n_eval}
    bands = [b for b in exp.expected.get(case.method, ())
             if (b.low, b.high) != (-math.inf, math.inf)]
    for band in bands:
        if not band.contains(measured[band.quantity]):
            return (f"{band.quantity}={measured[band.quantity]!r} outside "
                    f"[{band.low}, {band.high}]")
    if not any(b.quantity in ("pf", "eps_r") for b in bands) and rel > FALLBACK_REL_TOL:
        return f"relative error {rel:.4f} > {FALLBACK_REL_TOL}"
    return None


@dataclass
class Solve:
    """One solve and its verdict. ``failure`` is None for an accepted
    answer; otherwise the solve raised an S4isError, gave an answer outside
    its band, or was flagged by the method itself. Only an answer outside
    its band sets ``incorrect``, flagged or not."""

    case: Case
    outcome: Outcome | None
    seconds: float
    failure: str | None
    incorrect: bool = False


def case_rng(seed, unit, index):
    return np.random.default_rng([seed, unit, index])


def run_unit(built, seed, unit, call=None):
    """Solve every case of one unit in order. ``call(fn)`` runs one solve;
    the default calls it directly, a tracer wraps it in a root span."""
    call = call or (lambda fn: fn())
    solves = []
    for index, (case, exp) in enumerate(built):
        rng = case_rng(seed, unit, index)
        t0 = time.perf_counter()
        try:
            outcome = call(lambda: solve(case, exp.problem, rng))
        except S4isError as exc:
            solves.append(Solve(case, None, time.perf_counter() - t0,
                                f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - t0
        # Every answer is checked against its band, also one the method
        # flagged itself: a flag does not excuse a wrong answer.
        wrong = check(case, exp, outcome)
        failure = wrong or flagged(case, outcome)
        solves.append(Solve(case, outcome, seconds, failure, wrong is not None))
    return solves
