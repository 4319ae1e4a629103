"""Run ``run_s4is`` over many generators and count the solves outside
their bands.

    python3 scripts/sweep.py s4is_solve
    python3 scripts/sweep.py example5_d10 --seeds 41-80
    python3 scripts/sweep.py all

``s4is_solve`` solves the benchmark's two s4is cases, example1 and
example4_c5, with its generators ``default_rng([seed, unit, case])``:
units 0-3, case 0 for example1 and 1 for example4_c5, so 320 solves for
seeds 1-40. ``example5_d10`` solves example5 (d = 10) with
``default_rng([s, u, 0])``, u = 0-4: 200 solves for seeds 1-40.
``example2``, ``example3``, ``example4_c3`` and ``example4_c4`` solve
their example with ``default_rng([s, 0, case])``, case 7, 3, 4 and 5:
40 solves each. ``all`` runs every target in turn. ``--seeds A-B`` takes
seeds A to B, both included, in place of 1-40.

Every solve uses the default ``S4isConfig`` and is checked against the
s4is bands of ``reference_table`` (eps_r and n_eval); one that raises an
``S4isError`` is out of band too. A solve whose CoV stays above
``cov_target`` is counted apart as flagged. The script prints each
out-of-band solve, then a table with one row per target: the solve,
out-of-band and flagged counts, the signed mean error pf / reference - 1,
the mean and max n_eval and the total solve time. The solves run one after
another in this process, with BLAS pinned to one thread, and the package
is imported from this checkout's ``src/``.
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

from s4is import S4isConfig, S4isError, run_s4is  # noqa: E402
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


def _seed_range(text):
    """``A-B`` as range(A, B + 1), for 0 <= A <= B."""
    try:
        low, high = (int(part) for part in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 0 <= low <= high:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(low, high + 1)


def _solve(exp, generator):
    t0 = time.perf_counter()
    try:
        res = run_s4is(exp.problem, S4isConfig(), np.random.default_rng(generator))
    except S4isError as exc:
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    est = res.estimate
    measured = {"pf": est.pf, "n_eval": est.n_eval,
                "eps_r": relative_error(exp.problem.reference_pf, est.pf)}
    for band in exp.expected["s4is"]:
        if band.quantity in measured and not band.contains(measured[band.quantity]):
            return est, seconds, f"{band.quantity}={measured[band.quantity]:.4g} " \
                                 f"outside [{band.low}, {band.high}]"
    return est, seconds, None


def _sweep(name, seeds):
    """Run one target over ``seeds``, printing each out-of-band solve;
    returns (solves, out of band, flagged, signed errors, n_evals, seconds)."""
    cases, units = SWEEPS[name]
    exps = {example_id: reference_table(example_id) for example_id, _ in cases}
    jobs = [(example_id, [seed, unit, index]) for seed in seeds
            for unit in range(units) for example_id, index in cases]
    target = S4isConfig().cov_target
    errors, n_evals, seconds, out, flagged = [], [], 0.0, 0, 0
    for example_id, generator in jobs:
        exp = exps[example_id]
        est, took, failure = _solve(exp, generator)
        seconds += took
        if est is not None:
            errors.append(est.pf / exp.problem.reference_pf - 1)
            n_evals.append(est.n_eval)
            flagged += int(not est.cov <= target)
        if failure is not None:
            out += 1
            pf = "-" if est is None else f"{est.pf:.4g}"
            print(f"out of band: {example_id} {generator} pf={pf}: {failure}",
                  flush=True)
    return len(jobs), out, flagged, errors, n_evals, seconds


def _mean(values):
    return float(np.mean(values)) if values else math.nan


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", choices=sorted(SWEEPS) + ["all"])
    parser.add_argument("--seeds", type=_seed_range, default=range(1, 41),
                        metavar="A-B", help="seeds A to B, both included (default 1-40)")
    args = parser.parse_args(argv)

    names = list(SWEEPS) if args.sweep == "all" else [args.sweep]
    rows = [(name, _sweep(name, args.seeds)) for name in names]
    print(f"{args.sweep}, seeds {args.seeds.start}-{args.seeds.stop - 1}; "
          f"flagged: CoV above {S4isConfig().cov_target}")
    print(f"{'sweep':<13} {'solves':>6} {'out':>4} {'flagged':>7} {'signed err':>10} "
          f"{'mean n_eval':>11} {'max n_eval':>10} {'time s':>7}")
    for name, (solves, out, flagged, errors, n_evals, seconds) in rows:
        print(f"{name:<13} {solves:>6} {out:>4} {flagged:>7} {_mean(errors):>+10.2%} "
              f"{_mean(n_evals):>11.2f} {max(n_evals, default=0):>10} {seconds:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
