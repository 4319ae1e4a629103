"""Run ``run_s4is`` over many generators and count the solves outside
their bands, or too far from an exact answer.

    python3 scripts/sweep.py s4is_solve
    python3 scripts/sweep.py example5_d10 --seeds 41-80
    python3 scripts/sweep.py exact --seeds 0-39
    python3 scripts/sweep.py all

``s4is_solve`` solves the benchmark's two s4is cases, example1 and
example4_c5, with its generators ``default_rng([seed, unit, case])``:
units 0-3, case 0 for example1 and 1 for example4_c5, so 320 solves for
seeds 1-40. ``example5_d10`` solves example5 (d = 10) with
``default_rng([s, u, 0])``, u = 0-4: 200 solves for seeds 1-40.
``example2``, ``example3``, ``example4_c3`` and ``example4_c4`` solve
their example with ``default_rng([s, 0, case])``, case 7, 3, 4 and 5:
40 solves each. ``exact`` solves seven problems on standard normal inputs
whose pf is known exactly, one row each, with ``default_rng([s, 99])``:
linear g = beta - sum_i u_i / sqrt(d) at d = 5 (beta = 3.5), 8 and 10
(beta = 3); outside a sphere, g = r^2 - |u|^2, at d = 2 (r = 3.5) and
d = 4 (r = 4); curved, g = beta - u_1 + (kappa / 2) sum_{i >= 2} u_i^2,
at d = 10 (beta = 3, kappa = 0.2); and two linear branches in series at
d = 10 (beta = 3).
``exact_d50`` solves linear (beta = 3) and curved (beta = 3, kappa = 0.05)
at d = 50, at tens of seconds a solve. ``all`` runs every target in turn
but ``exact_d50``. ``--seeds A-B`` takes seeds A to B, both included, in
place of 1-40.

Every solve uses the default ``S4isConfig``. A built-in example is checked
against the s4is bands of ``reference_table`` (eps_r and n_eval), an exact
problem against |pf / exact - 1| <= 0.10; a solve that raises an
``S4isError`` is out too. A solve whose CoV stays above ``cov_target`` is
counted apart as flagged. The script prints each solve that is out, then a
table with one row per target, or per exact problem: the solve, out and
flagged counts, the signed mean error pf / reference - 1 and its sd over
the solves, the mean and max n_eval and the total solve time. The solves
run one after another in this process, with BLAS pinned to one thread, and
the package is imported from this checkout's ``src/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
from scipy import integrate, stats  # noqa: E402

from s4is import (Marginal, ProblemSpec, RandomVector, S4isConfig, S4isError,  # noqa: E402
                  run_s4is)
from s4is.benchmarks import reference_table  # noqa: E402
from s4is.estimators import relative_error  # noqa: E402

SWEEPS = {
    # name -> ((example id, case index), ...), units per seed
    "s4is_solve": ((("example1", 0), ("example4_c5", 1)), 4),
    "example5_d10": ((("example5_d10", 0),), 5),
    "example2": ((("example2", 7),), 1),
    "example3": ((("example3", 3),), 1),
    "example4_c3": ((("example4_c3", 4),), 1),
    "example4_c4": ((("example4_c4", 5),), 1),
}
# |pf / exact - 1| beyond which an exact problem's solve is out.
EXACT_TOL = 0.10
EXACT_STREAM = 99  # an exact problem's generators are default_rng([seed, 99])


def _exact_problem(name, d, components, pf):
    marginals = RandomVector((Marginal("normal", 0.0, 1.0),) * d)
    aggregation = "series_min" if len(components) > 1 else "single"
    return ProblemSpec(name, marginals, components, aggregation, pf, "computed")


def _linear(d, beta):
    """A limit state at distance beta along the diagonal: pf = Phi(-beta)."""
    return _exact_problem(f"linear_d{d}", d,
                          (lambda u: beta - np.sum(u, axis=-1) / math.sqrt(d),),
                          stats.norm.sf(beta))


def _sphere(d, r):
    """Failure outside the sphere of radius r: pf = P(chi2(d) > r^2)."""
    return _exact_problem(f"sphere_d{d}", d, (lambda u: r * r - np.sum(u * u, axis=-1),),
                          stats.chi2.sf(r * r, d))


def _curved(d, beta, kappa):
    """pf = E[Phi(-beta - kappa X / 2)] with X ~ chi2(d - 1)."""
    pf, _ = integrate.quad(lambda x: stats.norm.sf(beta + kappa * x / 2)
                           * stats.chi2.pdf(x, d - 1), 0, np.inf, epsrel=1e-12, limit=200)
    return _exact_problem(f"curved_d{d}", d, (
        lambda u: beta - u[:, 0] + kappa / 2 * np.sum(u[:, 1:] ** 2, axis=-1),), pf)


def _branches(d, beta):
    """Two linear branches in series along orthogonal normals:
    pf = 1 - (1 - Phi(-beta))^2."""
    r2 = math.sqrt(2.0)
    return _exact_problem(f"branches_d{d}", d, (
        lambda u: beta - (u[:, 0] + u[:, 1]) / r2,
        lambda u: beta + (u[:, 0] - u[:, 1]) / r2), 1 - stats.norm.cdf(beta) ** 2)


EXACT = {
    # name -> a function of no arguments that builds its problems
    "exact": lambda: (_linear(5, 3.5), _linear(8, 3.0), _linear(10, 3.0),
                      _sphere(2, 3.5), _sphere(4, 4.0), _curved(10, 3.0, 0.2),
                      _branches(10, 3.0)),
    "exact_d50": lambda: (_linear(50, 3.0), _curved(50, 3.0, 0.05)),
}


def _seed_range(text):
    """``A-B`` as range(A, B + 1), for 0 <= A <= B."""
    try:
        low, high = (int(part) for part in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 0 <= low <= high:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(low, high + 1)


def _band_check(exp):
    """Why a solve of ``exp`` lies outside its s4is bands, or None."""
    def check(est):
        measured = {"pf": est.pf, "n_eval": est.n_eval,
                    "eps_r": relative_error(exp.problem.reference_pf, est.pf)}
        for band in exp.expected["s4is"]:
            if band.quantity in measured and not band.contains(measured[band.quantity]):
                return f"{band.quantity}={measured[band.quantity]:.4g} " \
                       f"outside [{band.low}, {band.high}]"
        return None
    return check


def _exact_check(problem):
    def check(est):
        error = est.pf / problem.reference_pf - 1
        return None if abs(error) <= EXACT_TOL else f"pf / exact - 1 = {error:+.3f}"
    return check


def _rows(name, seeds):
    """The table rows of one target: (row name, jobs), a job being
    (problem, generator, check)."""
    if name in EXACT:
        return [(problem.name, [(problem, [seed, EXACT_STREAM], _exact_check(problem))
                                for seed in seeds])
                for problem in EXACT[name]()]
    cases, units = SWEEPS[name]
    exps = {example_id: reference_table(example_id) for example_id, _ in cases}
    checks = {example_id: _band_check(exp) for example_id, exp in exps.items()}
    return [(name, [(exps[example_id].problem, [seed, unit, index], checks[example_id])
                    for seed in seeds for unit in range(units)
                    for example_id, index in cases])]


def _sweep(jobs):
    """Run one row's jobs, printing each solve that is out; returns
    (solves, out, flagged, signed errors, n_evals, seconds)."""
    target = S4isConfig().cov_target
    errors, n_evals, seconds, out, flagged = [], [], 0.0, 0, 0
    for problem, generator, check in jobs:
        t0 = time.perf_counter()
        try:
            est = run_s4is(problem, S4isConfig(), np.random.default_rng(generator)).estimate
        except S4isError as exc:
            est, failure = None, f"{type(exc).__name__}: {exc}"
        seconds += time.perf_counter() - t0
        if est is not None:
            failure = check(est)
            errors.append(est.pf / problem.reference_pf - 1)
            n_evals.append(est.n_eval)
            flagged += int(not est.cov <= target)
        if failure is not None:
            out += 1
            pf = "-" if est is None else f"{est.pf:.4g}"
            print(f"out: {problem.name} {generator} pf={pf}: {failure}", flush=True)
    return len(jobs), out, flagged, errors, n_evals, seconds


def _mean(values, stat=np.mean):
    return float(stat(values)) if values else math.nan


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", choices=sorted(SWEEPS) + sorted(EXACT) + ["all"])
    parser.add_argument("--seeds", type=_seed_range, default=range(1, 41),
                        metavar="A-B", help="seeds A to B, both included (default 1-40)")
    args = parser.parse_args(argv)

    names = [*SWEEPS, "exact"] if args.sweep == "all" else [args.sweep]
    rows = [(row, _sweep(jobs)) for name in names for row, jobs in _rows(name, args.seeds)]
    print(f"{args.sweep}, seeds {args.seeds.start}-{args.seeds.stop - 1}; out: outside the "
          f"bands, or beyond {EXACT_TOL} from an exact pf; flagged: CoV above "
          f"{S4isConfig().cov_target}")
    print(f"{'sweep':<13} {'solves':>6} {'out':>4} {'flagged':>7} {'signed err':>10} "
          f"{'err sd':>7} {'mean n_eval':>11} {'max n_eval':>10} {'time s':>7}")
    for name, (solves, out, flagged, errors, n_evals, seconds) in rows:
        print(f"{name:<13} {solves:>6} {out:>4} {flagged:>7} {_mean(errors):>+10.2%} "
              f"{_mean(errors, np.std):>7.2%} {_mean(n_evals):>11.2f} "
              f"{max(n_evals, default=0):>10} {seconds:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
