"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The tracer must not perturb a solve: traced and untraced runs of the same
seed give bit-identical pf, n_eval and pf histories, and every patched name
is restored afterwards.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS before numpy loads

if not run._use_checkout_source():
    raise ImportError(f"no package source at {run.SRC}")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.optimize  # noqa: E402

import s4is.surrogate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Case, Outcome  # noqa: E402

SEED = 3
# One case per stage-1 path, plus one per baseline method.
CASES = (Case("s4is", "example1"), Case("s4is", "example5_d10"),
         Case("mcs", "example2"), Case("oracle", "example1"), Case("form", "example2"))


def patched_names():
    """The current value of every name the tracer patches."""
    names = [(owner, attr) for owner, attr, *_ in tracing._TARGETS]
    names.append((s4is.surrogate, "optimize"))
    return {(getattr(owner, "__name__", owner), attr): getattr(owner, attr)
            for owner, attr in names}


def _built():
    return [(case, workloads.reference_table(case.example_id)) for case in CASES]


def test_traced_solves_repeat_untraced_bit_for_bit():
    built = _built()
    plain = workloads.run_unit(built, SEED, 0)
    before = patched_names()
    tracer = tracing.Tracer()
    with tracer:
        traced = workloads.run_unit(built, SEED, 0, call=tracer.run)
    after = patched_names()

    for a, b in zip(plain, traced):
        assert a.failure is None and b.failure is None, (a.failure, b.failure)
        assert a.outcome.pf == b.outcome.pf
        assert a.outcome.n_eval == b.outcome.n_eval
        assert a.outcome.history == b.outcome.history
    assert len(plain[0].outcome.history[0]) > 0  # stage 1 sampled

    assert all(after[key] is before[key] for key in before)
    assert s4is.surrogate.optimize is scipy.optimize

    # Every solve is one root span; self times add up to the traced wall.
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["pipeline.run"] * len(CASES)
    assert len({s.run_id for s in roots}) == len(CASES)
    wall = sum(s.end - s.start for s in roots)
    layers = tracing.breakdown(tracer.spans, tracer.counts, 1)
    self_sum = sum(layers[name] for name in (
        "surrogate.fit_s", "surrogate.predict_s", "learning.score_s",
        "learning.select_s", "clustering.s", "form.s", "evaluation.g_s",
        "estimators.s", "probability.s", "pipeline.self_s"))
    assert math.isclose(self_sum, wall, rel_tol=1e-9)
    assert layers["surrogate.nll_evals"] > 0 and layers["form.searches"] >= 1
    assert layers["clustering.k_found"] >= 1
    assert layers["evaluation.g_requests"] >= sum(s.outcome.n_eval for s in plain)


def test_tracer_restores_after_an_exception():
    before = patched_names()
    try:
        with tracing.Tracer():
            assert patched_names() != before
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    after = patched_names()
    assert all(after[key] is before[key] for key in before)


def test_check_separates_flagged_from_wrong_answers():
    exp = workloads.reference_table("example1")
    ref = exp.problem.reference_pf
    case = Case("s4is", "example1")
    assert workloads.check(case, exp, Outcome(ref * 1.01, 40, 0.02, ())) is None
    assert "eps_r" in workloads.check(case, exp, Outcome(ref * 1.5, 40, 0.02, ()))
    assert "n_eval" in workloads.check(case, exp, Outcome(ref, 500, 0.02, ()))
    # The method's own verdict: no CoV, or a CoV above the two-stage target.
    assert workloads.flagged(case, Outcome(ref, 40, 0.02, ())) is None
    assert "no defined CoV" in workloads.flagged(case, Outcome(0.0, 40, math.nan, ()))
    assert "target" in workloads.flagged(case, Outcome(ref, 40, 0.2, ()))
    assert workloads.flagged(Case("mcs", "example2"), Outcome(ref, 40, 0.2, ())) is None
    # FORM samples nothing: no CoV is its normal answer, not a flag.
    assert workloads.flagged(Case("form", "example2"), Outcome(ref, 40, math.nan, ())) is None
    # No band of its own: the fixed fallback tolerance applies.
    mcs = Case("mcs", "example2")
    exp2 = workloads.reference_table("example2")
    ref2 = exp2.problem.reference_pf
    assert workloads.check(mcs, exp2, Outcome(ref2 * 1.05, 10**6, 0.01, ())) is None
    assert "relative error" in workloads.check(mcs, exp2,
                                               Outcome(ref2 * 1.2, 10**6, 0.01, ()))


def test_a_flagged_answer_outside_its_band_is_incorrect(monkeypatch):
    exp = workloads.reference_table("example5_d10")
    ref = exp.problem.reference_pf
    answers = iter([Outcome(ref * 40, 95, 0.18, ()), Outcome(ref, 95, 0.18, ())])
    monkeypatch.setattr(workloads, "solve", lambda case, problem, rng: next(answers))
    built = [(Case("s4is", "example5_d10"), exp)] * 2
    wrong, flagged_only = workloads.run_unit(built, SEED, 0)
    assert wrong.incorrect and "eps_r" in wrong.failure
    assert not flagged_only.incorrect and "target" in flagged_only.failure


def test_run_refuses_a_directory_without_the_package(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reference_sampling",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            continue
        assert "correct" not in parsed


# Known defects of the package that keep these cases out of the workloads.
# Each reproduces one wrong answer; once the package is fixed the test
# passes, strict xfail turns that into a failure, and the case can return to
# its workload in workloads.py.


@pytest.mark.xfail(strict=True, reason="oracle_is_reference misses one of "
                   "three MPPs on example4_c5 in about 1 solve in 60")
def test_oracle_finds_every_branch_of_example4_c5():
    case = Case("oracle", "example4_c5")
    exp = workloads.reference_table(case.example_id)
    outcome = workloads.solve(case, exp.problem, np.random.default_rng([7, 8, 2]))
    assert workloads.check(case, exp, outcome) is None


@pytest.mark.xfail(strict=True, reason="run_s4is on example5_d10 returns pf "
                   "20-40 times the reference in about 1 solve in 150")
def test_s4is_on_example5_d10_stays_in_its_band():
    case = Case("s4is", "example5_d10")
    exp = workloads.reference_table(case.example_id)
    outcome = workloads.solve(case, exp.problem, np.random.default_rng([1, 3, 0]))
    assert workloads.check(case, exp, outcome) is None
