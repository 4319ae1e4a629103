"""Time this checkout's ``run_s4is`` against another checkout's, in pairs.

    python3 scripts/paired.py OTHER_CHECKOUT [--seed S] [--units N]

Loads ``src/s4is`` of this checkout and of OTHER_CHECKOUT into one
interpreter, as the packages ``s4is_this`` and ``s4is_other``. Each of N
units solves the two cases of the benchmark's ``s4is_solve`` workload,
example1 and example4_c5, with the default ``S4isConfig`` and the
generators ``default_rng([S, unit, case])`` (case 0 for example1, 1 for
example4_c5), once per side; the side that runs first alternates from unit
to unit. A unit's time is the wall time of its two solves. Both sides must
give the same pf, n_eval and stage histories in every unit, or the script
stops with an error.

It prints each side's median and quartiles of the unit time, the median
over units of the ratio this / other, and the number of units in which
this checkout was faster. BLAS is pinned to one thread, as in
``scripts/reports.py``, so both sides compute the same bits.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

THIS = Path(__file__).resolve().parents[1]
CASES = ("example1", "example4_c5")


def load(checkout, name):
    """The package ``src/s4is`` of ``checkout``, imported as ``name``."""
    package = Path(checkout).resolve() / "src" / "s4is"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"no package at {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def solve_unit(s4is, seed, unit):
    """(seconds, outcomes) of solving every case of one unit."""
    problems = [s4is.reference_table(example_id).problem for example_id in CASES]
    gc.collect()
    outcomes = []
    start = time.perf_counter()
    for case, problem in enumerate(problems):
        res = s4is.run_s4is(problem, s4is.S4isConfig(),
                            np.random.default_rng([seed, unit, case]))
        outcomes.append((res.estimate.pf, res.estimate.n_eval,
                         res.stage1.pf_history, res.stage2.pf_history))
    return time.perf_counter() - start, outcomes


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"median {median:.4f} s (quartiles {q1:.4f} / {q3:.4f})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="the checkout to compare with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--units", type=int, default=10)
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("--units must be at least 1")
    sides = {"this": load(THIS, "s4is_this"), "other": load(args.other, "s4is_other")}
    times = {name: [] for name in sides}
    for unit in range(args.units):
        order = list(sides) if unit % 2 == 0 else list(sides)[::-1]
        outcomes = {}
        for name in order:
            seconds, outcomes[name] = solve_unit(sides[name], args.seed, unit)
            times[name].append(seconds)
        if outcomes["this"] != outcomes["other"]:
            raise SystemExit(f"unit {unit}: the two checkouts give different results")
        print(f"unit {unit}: this {times['this'][-1]:.4f} s, "
              f"other {times['other'][-1]:.4f} s", flush=True)
    ratios = [a / b for a, b in zip(times["this"], times["other"])]
    wins = sum(a < b for a, b in zip(times["this"], times["other"]))
    for name in sides:
        print(f"{name}: {quartiles(times[name])}")
    print(f"this / other: median ratio {np.median(ratios):.4f}; "
          f"this faster in {wins} of {args.units} units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
