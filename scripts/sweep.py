"""Run ``run_s4is`` over many generators and count the solves outside
their bands.

    python3 scripts/sweep.py s4is_solve
    python3 scripts/sweep.py example5_d10
    python3 scripts/sweep.py example2

``s4is_solve`` solves the benchmark's two s4is cases, example1 and
example4_c5, with its generators ``default_rng([seed, unit, case])``:
units 0-3, case 0 for example1 and 1 for example4_c5, so 320 solves for
seeds 1-40. ``example5_d10`` solves example5 (d = 10) with
``default_rng([s, u, 0])``, u = 0-4: 200 solves for seeds 1-40.
``example2`` solves example2 with ``default_rng([s, 0, 7])``: 40 solves.

Every solve uses the default ``S4isConfig`` and is checked against the
s4is bands of ``reference_table`` (eps_r and n_eval); one that raises an
``S4isError`` is out of band too. A solve whose CoV stays above
``cov_target`` is counted apart as flagged. The script prints each
out-of-band solve, then the out-of-band count, the mean and max n_eval
and the total solve time. The solves run one after another in this
process, with BLAS pinned to one thread, and the package is imported
from this checkout's ``src/``.
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
}
SEEDS = range(1, 41)


def _solve(example_id, generator):
    exp = reference_table(example_id)
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


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", choices=sorted(SWEEPS))
    args = parser.parse_args(argv)

    cases, units = SWEEPS[args.sweep]
    jobs = [(example_id, [seed, unit, index]) for seed in SEEDS
            for unit in range(units) for example_id, index in cases]
    target = S4isConfig().cov_target
    n_evals, seconds, out, flagged = [], 0.0, 0, 0
    for example_id, generator in jobs:
        est, took, failure = _solve(example_id, generator)
        seconds += took
        if est is not None:
            n_evals.append(est.n_eval)
            flagged += int(not est.cov <= target)
        if failure is not None:
            out += 1
            pf = "-" if est is None else f"{est.pf:.4g}"
            print(f"out of band: {example_id} {generator} pf={pf}: {failure}",
                  flush=True)
    print(f"{args.sweep}: {len(jobs)} solves, {out} out of band, {flagged} with CoV "
          f"above {target}")
    print(f"n_eval mean {np.mean(n_evals) if n_evals else math.nan:.2f}, "
          f"max {max(n_evals, default=0)}; "
          f"solve time {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
