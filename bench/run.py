"""Run one s4is benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the
run reports the end-to-end metrics, with ``--trace 1`` the per-layer
breakdown of BENCHMARK.json. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import os

# Kernel matrices stay below ~200x200, too small for BLAS threads to pay
# off; one thread makes runs on hosts with different core counts comparable.
# Pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The keys of workloads.WORKLOADS, which can only be imported once set-up
# is being timed.
WORKLOAD_NAMES = ("s4is_solve", "reference_sampling")
# Set-up is timed in this process and in this many fresh interpreters, and
# setup_s is the median. Over ten runs of five set-ups each, one set-up
# spread 0.29 (interquartile distance over median), the median of five 0.16.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("n_eval", "count"),
    ("peak_rss_mb", "MB"),
)
# Accuracy of the accepted answers. It varies from seed to seed far more
# than any regression bound, so it is reported with the traced breakdown;
# the per-solve band check gates it.
ACCURACY = (
    ("estimators.rel_err", "ratio"),
    ("estimators.cov", "ratio"),
)


def _use_checkout_source():
    """Put the checkout's src/ first on sys.path; False when it has none."""
    if not (SRC / "s4is" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def timed_setup(workload_name):
    """Import s4is and build the workload's problems; (built, seconds)."""
    t0 = time.perf_counter()
    import workloads
    built = workloads.build(workloads.WORKLOADS[workload_name])
    return built, time.perf_counter() - t0


def probe_setup(workload_name):
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def unit_count(workload, seconds, trace):
    # A traced unit solves every case twice (untraced, then traced).
    per_unit = workload.seconds_per_unit * (2 if trace else 1)
    return max(1, round(seconds / per_unit))


def _finite_or_none(x):
    return x if isinstance(x, int) or math.isfinite(x) else None


def end_to_end(units, setup_samples):
    """End-to-end metrics from untraced units (lists of Solve)."""
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(sum(s.seconds for s in unit) for unit in units),
        "n_eval": statistics.fmean(sum(s.outcome.n_eval for s in unit if s.outcome)
                                   for unit in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def accuracy(solves, built):
    """Mean relative error and mean CoV over the accepted answers; FORM
    answers have no CoV and count towards the error only."""
    import workloads
    exps = {case: exp for case, exp in built}
    accepted = [s for s in solves if s.failure is None]
    covs = [s.outcome.cov for s in accepted if math.isfinite(s.outcome.cov)]
    nan = float("nan")
    return {
        "estimators.rel_err": statistics.fmean(
            workloads.relative_error(s.outcome, exps[s.case]) for s in accepted)
        if accepted else nan,
        "estimators.cov": statistics.fmean(covs) if covs else nan,
    }


def _same(a, b):
    """Two solves with bit-identical outcomes (NaN equal to NaN), or that
    raised the same error."""
    if a.outcome is None or b.outcome is None:
        return a.outcome is b.outcome and a.failure == b.failure
    x, y = a.outcome, b.outcome
    return (x.pf == y.pf and x.n_eval == y.n_eval and x.history == y.history
            and (x.cov == y.cov or (math.isnan(x.cov) and math.isnan(y.cov))))


def traced_units(built, seed, n_units):
    """Solve each unit untraced and traced, the traced solve first in odd
    units; it must repeat the untraced one bit for bit. Returns (solves,
    mismatches, per-layer)."""
    import tracing
    import workloads
    solves, mismatches = [], []
    untraced_s = traced_s = 0.0
    tracer = tracing.Tracer()
    for unit in range(n_units):
        if unit % 2:
            with tracer:
                traced = workloads.run_unit(built, seed, unit, call=tracer.run)
            plain = workloads.run_unit(built, seed, unit)
        else:
            plain = workloads.run_unit(built, seed, unit)
            with tracer:
                traced = workloads.run_unit(built, seed, unit, call=tracer.run)
        solves += plain + traced
        untraced_s += sum(s.seconds for s in plain)
        traced_s += sum(s.seconds for s in traced)
        mismatches += [a.case.label for a, b in zip(plain, traced)
                       if not _same(a, b)]
    layers = tracing.breakdown(tracer.spans, tracer.counts, n_units)
    layers.update(accuracy(solves, built))
    # Bounded by the host's noise: it can read below zero.
    layers["trace.overhead_s"] = (traced_s - untraced_s) / n_units
    return solves, mismatches, layers


def env_block():
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not _use_checkout_source():
        print(f"error: no package source at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    built, setup_here = timed_setup(args.workload)
    if args.setup_probe:
        print(repr(setup_here))
        return 0

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    n_units = unit_count(workload, args.seconds, args.trace)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "units": n_units,
                      "trace": args.trace, "env": env_block()}), flush=True)
    if args.trace:
        import tracing
        solves, mismatches, metrics = traced_units(built, args.seed, n_units)
        names = tracing.LAYER_METRICS + ACCURACY + (("trace.overhead_s", "s"),)
    else:
        setup_samples = [setup_here] + [probe_setup(args.workload)
                                        for _ in range(SETUP_PROBES)]
        units = [workloads.run_unit(built, args.seed, u) for u in range(n_units)]
        solves, mismatches = [s for unit in units for s in unit], []
        metrics = end_to_end(units, setup_samples)
        names = END_TO_END
        for name, value in accuracy(solves, built).items():
            print(f"{name:<30} {value:>16.6g} (reported with --trace 1)")

    failures = [s for s in solves if s.failure is not None]
    for s in failures:
        print(f"FAILED {s.case.label}: {s.failure}", file=sys.stderr)
    for label in mismatches:
        print(f"WRONG {label}: traced solve differs from untraced", file=sys.stderr)
    for name, unit in names:
        print(f"{name:<30} {metrics[name]:>16.6g} {unit}")
    failed = len(failures) + len(mismatches)
    # A solve that raised or that its own method flagged counts as failed;
    # an answer outside its band, flagged or not, or a trace that changed a
    # result, makes the run incorrect as well.
    result = {
        "correct": not mismatches and not any(s.incorrect for s in solves),
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": _finite_or_none(metrics[name]), "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
