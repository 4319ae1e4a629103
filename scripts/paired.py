"""Time this checkout's ``run_s4is`` against another checkout's, in pairs.

    python3 scripts/paired.py OTHER_CHECKOUT [--seed S] [--units N]

Each checkout runs in its own worker process, ``paired.py --worker
CHECKOUT``, which puts that checkout's ``src/`` first on ``sys.path``,
imports ``s4is`` from there and solves the units it is sent; so the two
sides share no interpreter and no malloc state. Each of N units solves the
two cases of the benchmark's ``s4is_solve`` workload, example1 and
example4_c5, with the default ``S4isConfig`` and the generators
``default_rng([S, unit, case])`` (case 0 for example1, 1 for example4_c5),
once per side; one side solves while the other waits, and the side that
solves first alternates from unit to unit. A unit's time is the wall time
of its two solves, and its minor page faults are the worker's
``ru_minflt`` over the same span; each answer also carries the worker's
peak RSS so far (``ru_maxrss``). Both sides must give the same pf, n_eval
and stage histories in every unit, or the script stops with an error.

It prints each unit's time and minor faults per side, then each side's
median and quartiles of the unit time and of the minor faults, each
side's peak RSS over all its units, the median over units of the ratio
this / other, and the number of units in which this checkout was faster.
BLAS is pinned to one thread before numpy loads, in every process, as in
``scripts/reports.py``, so both sides compute the same bits.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

THIS = Path(__file__).resolve().parents[1]
CASES = ("example1", "example4_c5")


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def solve_unit(s4is, seed, unit):
    """(seconds, minor faults, outcomes) of solving every case of one unit."""
    problems = [s4is.reference_table(example_id).problem for example_id in CASES]
    gc.collect()
    outcomes = []
    faults = minor_faults()
    start = time.perf_counter()
    for case, problem in enumerate(problems):
        res = s4is.run_s4is(problem, s4is.S4isConfig(),
                            np.random.default_rng([seed, unit, case]))
        outcomes.append((res.estimate.pf, res.estimate.n_eval,
                         res.stage1.pf_history, res.stage2.pf_history))
    return time.perf_counter() - start, minor_faults() - faults, outcomes


def serve(checkout):
    """Worker: solve the unit of each "SEED UNIT" line on stdin with the
    ``s4is`` of ``checkout``, and answer each with one JSON line."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    import s4is
    for line in sys.stdin:
        seconds, faults, outcomes = solve_unit(s4is, *map(int, line.split()))
        print(json.dumps({"seconds": seconds, "faults": faults, "peak_rss_mb": peak_rss_mb(),
                          "outcomes": repr(outcomes)}), flush=True)
    return 0


def quartiles(values, unit, digits):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return (f"median {median:.{digits}f}{unit} "
            f"(quartiles {q1:.{digits}f} / {q3:.{digits}f})")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"] and len(argv) == 2:
        return serve(argv[1])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="the checkout to compare with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--units", type=int, default=10)
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("--units must be at least 1")
    checkouts = {"this": THIS, "other": Path(args.other).resolve()}
    if not (checkouts["other"] / "src" / "s4is" / "__init__.py").is_file():
        parser.error(f"no package at {checkouts['other'] / 'src' / 's4is'}")
    times = {name: [] for name in checkouts}
    faults = {name: [] for name in checkouts}
    peak = {}
    with contextlib.ExitStack() as stack:
        workers = {name: stack.enter_context(subprocess.Popen(
            [sys.executable, __file__, "--worker", str(checkout)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            for name, checkout in checkouts.items()}
        for unit in range(args.units):
            order = list(workers) if unit % 2 == 0 else list(workers)[::-1]
            outcomes = {}
            for name in order:
                workers[name].stdin.write(f"{args.seed} {unit}\n")
                workers[name].stdin.flush()
                answer = workers[name].stdout.readline()
                if not answer:
                    raise SystemExit(f"the worker for {checkouts[name]} stopped")
                answer = json.loads(answer)
                times[name].append(answer["seconds"])
                faults[name].append(answer["faults"])
                peak[name] = answer["peak_rss_mb"]
                outcomes[name] = answer["outcomes"]
            if outcomes["this"] != outcomes["other"]:
                raise SystemExit(f"unit {unit}: the two checkouts give different results")
            print(f"unit {unit}: this {times['this'][-1]:.4f} s "
                  f"{faults['this'][-1]} faults, other {times['other'][-1]:.4f} s "
                  f"{faults['other'][-1]} faults", flush=True)
    ratios = [a / b for a, b in zip(times["this"], times["other"])]
    wins = sum(a < b for a, b in zip(times["this"], times["other"]))
    for name in checkouts:
        print(f"{name}: {quartiles(times[name], ' s', 4)}")
    for name in checkouts:
        print(f"{name} minor faults: {quartiles(faults[name], ' per unit', 0)}")
    for name in checkouts:
        print(f"{name} peak RSS: {peak[name]:.1f} MB")
    print(f"this / other: median ratio {np.median(ratios):.4f}; "
          f"this faster in {wins} of {args.units} units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
