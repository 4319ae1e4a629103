"""Write the 24 fixed-seed CLI reports, the dump of the reference tables,
the true-g oracle's estimates and two ``s4is reproduce`` tables that a
behaviour-preserving change must leave byte-identical.

    python3 scripts/reports.py OUTDIR

Runs ``s4is run --seed 7`` for each of mcs (n = 1e6), form, akis and s4is
on example1, example2, example3, example4 (c = 5) and example5 (d = 10),
and for form and akis on example5 (d = 50), where the d >= 20 rules of the
GP and of HL-RF apply, and for form and s4is on an external problem:
``scripts/example3_g.py``, example3's g in a child process that speaks
the JSON-lines protocol, with example3's marginals. One fresh interpreter
per report, with the package imported from this checkout's ``src/`` and
BLAS pinned to one thread, so the files do not depend on the host's thread
count. Each report lands in ``OUTDIR/<method>_<problem>.json``.
``OUTDIR/reference_tables.txt`` records, for every example id, what
``reference_table`` returns: methods, mcs_n, replicates, the problem's
reference pf and each method's bands (quantity, value, low, high,
provenance), in order. ``OUTDIR/oracle.txt`` records ``oracle_is_reference``
with n = 1e6 and ``default_rng(7)`` on example1 and example4 (c = 5): pf,
variance and cov as repr. ``OUTDIR/reproduce.txt`` records the output and
exit status of ``s4is reproduce EXAMPLE --replicates 2 --seed 7`` for
example1 (reference from the run's own MCS) and example4_c5 (reference from
the oracle). To check a change, run the script from both checkouts and
compare the two directories with ``diff -r``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
EXAMPLE3_G = Path(__file__).resolve().with_name("example3_g.py")
SEED = 7
MCS_N = 1_000_000
METHODS = ("mcs", "form", "akis", "s4is")
PROBLEMS = (
    ("example1", {"name": "example1"}),
    ("example2", {"name": "example2"}),
    ("example3", {"name": "example3"}),
    ("example4_c5", {"name": "example4", "c": 5}),
    ("example5_d10", {"name": "example5", "d": 10}),
)
RUNS = [(method, label, {"builtin": builtin}) for label, builtin in PROBLEMS
        for method in METHODS]
RUNS += [(method, "example5_d50", {"builtin": {"name": "example5", "d": 50}})
         for method in ("form", "akis")]
EXTERNAL = {"command": [sys.executable, str(EXAMPLE3_G)],
            "marginals": [{"kind": "normal", "mean": 1.5, "sd": 1.0},
                          {"kind": "normal", "mean": 2.5, "sd": 1.0}]}
RUNS += [(method, "external", {"external": EXTERNAL}) for method in ("form", "s4is")]
# Prints every reference table; floats as repr, so any change shows.
DUMP_TABLES = """
from s4is.benchmarks import EXAMPLE_IDS, reference_table
for example_id in EXAMPLE_IDS:
    exp = reference_table(example_id)
    print(example_id, "methods", *exp.methods)
    print(example_id, "mcs_n", exp.mcs_n, "replicates", exp.replicates)
    print(example_id, "reference_pf", repr(exp.problem.reference_pf))
    for method, bands in exp.expected.items():
        for b in bands:
            print(example_id, method, b.quantity, repr(b.value), repr(b.low),
                  repr(b.high), b.provenance)
"""

# Pinned to one thread in every child: LAPACK solves with many right-hand
# sides give different bits under different thread counts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORACLE_PROBLEMS = ("example1", "example4_c5")
# The oracle's estimate on each of ORACLE_PROBLEMS; floats as repr.
DUMP_ORACLE = """
import numpy as np
from s4is import builtin_problem, oracle_is_reference
for label, builtin in {problems!r}:
    est = oracle_is_reference(builtin_problem(**builtin),
                              np.random.default_rng({seed}), n={n})
    print(label, repr(est.pf), repr(est.variance), repr(est.cov))
"""
# Each reproduce table's two reference sources: its own MCS, and the oracle.
REPRODUCE_EXAMPLES = ("example1", "example4_c5")


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    with tempfile.TemporaryDirectory() as tmp:
        for method, label, problem in RUNS:
            cfg = {"problem": problem, "method": method}
            if method == "mcs":
                cfg["mcs"] = {"n": MCS_N}
            cfg_path = Path(tmp) / f"{method}_{label}.json"
            cfg_path.write_text(json.dumps(cfg))
            report = out / f"{method}_{label}.json"
            subprocess.run([sys.executable, "-m", "s4is.cli", "run",
                            "--config", str(cfg_path), "--seed", str(SEED),
                            "--output", str(report)], env=env, check=True)
            print(report, flush=True)
    tables = out / "reference_tables.txt"
    with open(tables, "w", encoding="utf-8") as fh:
        subprocess.run([sys.executable, "-c", DUMP_TABLES], env=env,
                       stdout=fh, check=True)
    print(tables, flush=True)
    oracle = out / "oracle.txt"
    dump = DUMP_ORACLE.format(
        problems=[p for p in PROBLEMS if p[0] in ORACLE_PROBLEMS], seed=SEED, n=MCS_N)
    with open(oracle, "w", encoding="utf-8") as fh:
        subprocess.run([sys.executable, "-c", dump], env=env, stdout=fh, check=True)
    print(oracle, flush=True)
    reproduce = out / "reproduce.txt"
    with open(reproduce, "w", encoding="utf-8") as fh:
        for example_id in REPRODUCE_EXAMPLES:
            fh.flush()
            # Exit 1 is a failed verdict, part of the record; 2 and 3 are errors.
            code = subprocess.run([sys.executable, "-m", "s4is.cli", "reproduce", example_id,
                                   "--replicates", "2", "--seed", str(SEED)],
                                  env=env, stdout=fh).returncode
            if code not in (0, 1):
                raise SystemExit(f"s4is reproduce {example_id} exited {code}")
            fh.write(f"exit {code}\n")
    print(reproduce, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
