"""Acceptance suite: one test per criterion.

Criteria 1-11 reproduce the reference comparison tables (stochastic ones
use the mean over 10 replicates with fixed seeds); criteria 12-18 are the
always-gating property suites.  The three d=50 stretch cases are
non-gating and run only when RUN_STRETCH is set.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, stats

import s4is
from s4is import (S4isConfig, builtin_problem, hlrf_search, is_estimate_from_log,
                  mcs_estimate, oracle_is_reference, run_akis_baseline,
                  run_form_baseline, run_mcs_baseline, run_s4is)
from s4is.estimators import is_variance_deviation, is_variance_moment
from s4is.evaluation import Evaluator, ProblemSpec
from s4is.probability import (GaussianMixture, Marginal, RandomVector,
                              log_std_normal_pdf)
from s4is.surrogate import GpSurrogate

CFG = S4isConfig()
REPLICATES = 10


def _s4is_replicates(problem, seed, n=REPLICATES):
    rng = np.random.default_rng(seed)
    return [run_s4is(problem, CFG, rng).estimate for _ in range(n)]


def _mean(values):
    return float(np.mean(values))


@pytest.fixture(scope="module")
def mcs_ex1():
    return run_mcs_baseline(builtin_problem("example1"), 10**6,
                            np.random.default_rng(101))


@pytest.fixture(scope="module")
def mcs_ex2():
    return run_mcs_baseline(builtin_problem("example2"), 10**6,
                            np.random.default_rng(201))


@pytest.fixture(scope="module")
def mcs_ex3():
    return run_mcs_baseline(builtin_problem("example3"), 10**6,
                            np.random.default_rng(301))


def test_criterion_01_example1_mcs(mcs_ex1):
    """Own 10^6-sample MCS lands inside the reported bracket in < 5 s."""
    start = time.perf_counter()
    est = run_mcs_baseline(builtin_problem("example1"), 10**6,
                           np.random.default_rng(101))
    elapsed = time.perf_counter() - start
    assert 4.2e-3 <= est.pf <= 4.7e-3
    assert elapsed < 5.0
    assert est.pf == mcs_ex1.pf  # fixture reuses the same seed


def test_criterion_02_example1_s4is(mcs_ex1):
    ests = _s4is_replicates(builtin_problem("example1"), 102)
    mean_pf = _mean([e.pf for e in ests])
    eps_r = abs(mcs_ex1.pf - mean_pf) / mcs_ex1.pf
    assert eps_r <= 0.10
    for e in ests:
        assert e.cov_defined and e.cov <= 0.05
    assert _mean([e.n_eval for e in ests]) <= 150


def test_criterion_03_example1_akis_underestimates(mcs_ex1):
    """The single-MPP baseline sees one of four failure branches."""
    rng = np.random.default_rng(2026)
    pfs = [run_akis_baseline(builtin_problem("example1"), CFG, rng).pf
           for _ in range(REPLICATES)]
    assert _mean(pfs) <= 0.5 * mcs_ex1.pf


def test_criterion_04_example2_s4is(mcs_ex2):
    ests = _s4is_replicates(builtin_problem("example2"), 202)
    eps_r = abs(mcs_ex2.pf - _mean([e.pf for e in ests])) / mcs_ex2.pf
    assert eps_r <= 0.10
    assert _mean([e.n_eval for e in ests]) <= 150


def test_criterion_05_example2_form():
    est = run_form_baseline(builtin_problem("example2"),
                            np.random.default_rng(0))
    assert abs(est.pf - 0.03116) / 0.03116 <= 0.15


def test_criterion_06_example3_s4is_and_form_failure(mcs_ex3):
    ests = _s4is_replicates(builtin_problem("example3"), 302)
    eps_r = abs(mcs_ex3.pf - _mean([e.pf for e in ests])) / mcs_ex3.pf
    assert eps_r <= 0.10
    assert _mean([e.n_eval for e in ests]) <= 200
    # FORM oscillates on the multimodal limit state and is grossly wrong
    form = run_form_baseline(builtin_problem("example3"),
                             np.random.default_rng(0))
    assert abs(mcs_ex3.pf - form.pf) / mcs_ex3.pf >= 1.0


def test_criterion_07_example4_c3():
    problem = builtin_problem("example4", c=3)
    mcs = run_mcs_baseline(problem, 10**6, np.random.default_rng(401))
    ests = _s4is_replicates(problem, 402)
    eps_r = abs(mcs.pf - _mean([e.pf for e in ests])) / mcs.pf
    assert eps_r <= 0.15
    assert _mean([e.n_eval for e in ests]) <= 200
    form = run_form_baseline(problem, np.random.default_rng(0))
    assert abs(form.pf - 1.350e-3) / 1.350e-3 <= 0.10


def test_criterion_08_example4_c4():
    problem = builtin_problem("example4", c=4)
    mcs = run_mcs_baseline(problem, 4 * 10**6, np.random.default_rng(411))
    ests = _s4is_replicates(problem, 412)
    eps_r = abs(mcs.pf - _mean([e.pf for e in ests])) / mcs.pf
    assert eps_r <= 0.20
    assert _mean([e.n_eval for e in ests]) <= 250


def test_criterion_09_example4_c5():
    problem = builtin_problem("example4", c=5)
    oracle = oracle_is_reference(problem, np.random.default_rng(421))
    # the recorded reference came from a 4e8-sample MCS with ~4.9% CoV;
    # cross-check within 3 combined standard deviations
    reported = 9.485e-7
    combined = math.sqrt(oracle.cov**2 + 0.049**2)
    assert abs(oracle.pf - reported) / reported <= 3 * combined
    ests = _s4is_replicates(problem, 422)
    eps_r = abs(oracle.pf - _mean([e.pf for e in ests])) / oracle.pf
    assert eps_r <= 0.30
    assert _mean([e.n_eval for e in ests]) <= 300


def test_criterion_10_example5_d2():
    problem = builtin_problem("example5", d=2)
    mcs = run_mcs_baseline(problem, 10**6, np.random.default_rng(501))
    ests = _s4is_replicates(problem, 502)
    eps_r = abs(mcs.pf - _mean([e.pf for e in ests])) / mcs.pf
    assert eps_r <= 0.10
    assert _mean([e.n_eval for e in ests]) <= 80


def test_criterion_11_example5_d10():
    problem = builtin_problem("example5", d=10)
    mcs = run_mcs_baseline(problem, 10**6, np.random.default_rng(511))
    ests = _s4is_replicates(problem, 512)
    eps_r = abs(mcs.pf - _mean([e.pf for e in ests])) / mcs.pf
    assert eps_r <= 0.15
    assert _mean([e.n_eval for e in ests]) <= 200


def _on_one_blas_thread(code):
    """The standard output of ``code``, run in a fresh interpreter that
    imports this checkout's s4is and pins BLAS to one thread, since the GP
    factor's bits depend on the thread count (ROADMAP item 12)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(s4is.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           + code, src], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 4: stage 2 stops on a spread "
                                       "pf window at pf 0.05822, 21 times the reference")
def test_criterion_11_example5_d10_generator_16_0_0():
    # One solve of the criterion's problem, against its reported reference
    # and criterion 11's eps_r bound.
    out = _on_one_blas_thread(
        "import numpy as np; from s4is import S4isConfig, builtin_problem, run_s4is; "
        "res = run_s4is(builtin_problem('example5', d=10), S4isConfig(), "
        "np.random.default_rng([16, 0, 0])); print(repr(res.estimate.pf))")
    reference = builtin_problem("example5", d=10).reference_pf
    assert abs(float(out) - reference) / reference <= 0.15


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: stage 2 stops as converged at "
                                       "pf 4.59e-4 (+286 %), CoV 0.043, unflagged")
def test_curved_d10_is_within_10_percent_of_its_exact_pf_or_flagged():
    # g = 3 - u1 + 0.1 (u2^2 + ... + u10^2) on 10 standard normals, the
    # curved d = 10 row of ``scripts/sweep.py exact``: pf = E[Phi(-3 - 0.1 X)]
    # with X ~ chi2(9). A wrong pf must at least be flagged.
    out = _on_one_blas_thread(
        "import numpy as np; from s4is import S4isConfig, run_s4is; "
        "from s4is.evaluation import ProblemSpec; "
        "from s4is.probability import Marginal, RandomVector; "
        "rv = RandomVector((Marginal('normal', 0.0, 1.0),) * 10); "
        "g = lambda u: 3.0 - u[:, 0] + 0.1 * np.sum(u[:, 1:] ** 2, axis=-1); "
        "res = run_s4is(ProblemSpec('curved_d10', rv, (g,), 'single'), S4isConfig(), "
        "np.random.default_rng([9, 99])); "
        "print(repr(res.estimate.pf), res.stage2.notes.get('cov_target_missed', False))")
    pf, flagged = out.split()
    exact, _ = integrate.quad(lambda x: stats.norm.sf(3.0 + 0.1 * x) * stats.chi2.pdf(x, 9),
                              0, np.inf, epsrel=1e-12, limit=200)
    assert abs(float(pf) / exact - 1.0) <= 0.10 or flagged == "True"


STRETCH = pytest.mark.skipif(not os.environ.get("RUN_STRETCH"),
                             reason="d=50 stretch target is non-gating; "
                                    "set RUN_STRETCH=1 to run it")


@STRETCH
def test_criterion_11_stretch_example5_d50():
    problem = builtin_problem("example5", d=50)
    start = time.perf_counter()
    mcs = run_mcs_baseline(problem, 10**6, np.random.default_rng(521))
    res = run_s4is(problem, CFG, np.random.default_rng(522))
    elapsed = time.perf_counter() - start
    assert abs(mcs.pf - res.estimate.pf) / mcs.pf <= 0.20
    assert res.estimate.n_eval <= 500
    assert elapsed < 600


@STRETCH
@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: this generator ends at pf 0.0 "
                                       "after 505 calls, on max_iterations")
def test_criterion_11_stretch_example5_d50_generator_1():
    # Against the paper's 10^6-sample MCS reference for d = 50.
    res = run_s4is(builtin_problem("example5", d=50), CFG, np.random.default_rng(1))
    assert abs(res.estimate.pf - 1.934e-3) / 1.934e-3 <= 0.20
    assert res.estimate.n_eval <= 500


@STRETCH
@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: ends at pf 0.0 after 403 calls, "
                                       "on max_iterations")
def test_stretch_linear_d50_against_its_exact_pf():
    # g = 3 - u1 on 50 standard normals: exact pf Phi(-3). The stage-1 GP
    # keeps two support points and predicts a constant over the mixture.
    def comp(t):
        return 3.0 - np.atleast_2d(t)[:, 0]

    rv = RandomVector(tuple(Marginal("normal", 0.0, 1.0) for _ in range(50)))
    res = run_s4is(ProblemSpec("linear_d50", rv, (comp,), "single"), CFG,
                   np.random.default_rng([0, 99]))
    exact = stats.norm.cdf(-3.0)
    assert abs(res.estimate.pf / exact - 1.0) <= 0.10


def test_criterion_12_transform_roundtrips():
    rng = np.random.default_rng(0)
    for marginal in (Marginal("normal", 1.0, 2.0),
                     Marginal("lognormal", 1.0, 0.2),
                     Marginal("uniform", 3.0, 0.7)):
        u = rng.standard_normal(1000)
        np.testing.assert_allclose(marginal.to_u(marginal.from_u(u)), u,
                                   atol=1e-9)


def test_criterion_13_is_unbiasedness_oracle():
    truth = stats.norm.cdf(-3.0)
    rng = np.random.default_rng(13)
    pfs = []
    for _ in range(200):
        u = rng.standard_normal((400, 1)) + 3.0
        log_q = -0.5 * (u[:, 0] - 3.0) ** 2 - 0.5 * math.log(2 * math.pi)
        pfs.append(is_estimate_from_log(u[:, 0] >= 3.0,
                                        log_std_normal_pdf(u) - log_q).pf)
    se = np.std(pfs, ddof=1) / math.sqrt(len(pfs))
    assert abs(np.mean(pfs) - truth) <= 3 * se
    # identity proposal: exact reduction to the MCS estimate
    u = rng.standard_normal((5000, 1))
    log_p = log_std_normal_pdf(u)
    assert is_estimate_from_log(u[:, 0] >= 3.0, log_p - log_p).pf \
        == mcs_estimate(np.count_nonzero(u[:, 0] >= 3.0), len(u)).pf


def test_criterion_14_variance_forms_agree():
    rng = np.random.default_rng(14)
    for _ in range(100):
        w = rng.uniform(0, 10, size=rng.integers(2, 50))
        pf = float(w.mean())
        a = is_variance_deviation(w, pf)
        b = is_variance_moment(w, pf)
        assert abs(a - b) <= 1e-12 * max(a, b, 1.0)


def test_criterion_15_gp_invariants():
    rng = np.random.default_rng(15)
    x = rng.uniform(-3, 3, size=(20, 2))
    y = x[:, 0] ** 2 - x[:, 1]
    model = GpSurrogate(x, y)
    mean, sd = model.predict_mean(x), model.predict_sd(x)
    # Interpolation is exact up to the stabilizing jitter on the kernel
    # diagonal; 1e-3 in output units is the documented guarantee.
    np.testing.assert_allclose(mean, y, atol=1e-3)
    assert np.all(sd < 1e-3)
    # Shift equivariance is exact in real arithmetic (the standardized
    # targets are unchanged); float rounding of y+50 perturbs the refit, so
    # the comparison is relative to the shifted output scale.
    shifted = GpSurrogate(x, y + 50.0)
    grid = rng.uniform(-3, 3, size=(25, 2))
    np.testing.assert_allclose(shifted.predict_mean(grid),
                               model.predict_mean(grid) + 50.0,
                               rtol=2e-3, atol=1e-3)


def test_criterion_16_hlrf_linear_two_iterations():
    a = np.array([1.0, 2.0, -2.0])
    b = 6.0

    def comp(t):
        return b - np.atleast_2d(t) @ a

    rv = RandomVector(tuple(Marginal("normal", 0, 1) for _ in a))
    res = hlrf_search(Evaluator(ProblemSpec("lin", rv, (comp,), "single")),
                      np.zeros(3))
    assert res.converged and res.iterations <= 2
    assert res.beta == pytest.approx(b / np.linalg.norm(a), abs=1e-6)


def test_criterion_17_clustering_and_mixture_properties():
    from s4is.clustering import kmeans, mpp_per_cluster

    rng = np.random.default_rng(17)
    pts = np.vstack([rng.normal([0, 4], 0.4, size=(30, 2)),
                     rng.normal([4, 0], 0.4, size=(30, 2))])
    inertias = [kmeans(pts, k, rng).inertia for k in (1, 2, 3)]
    assert inertias[1] <= inertias[0] and inertias[2] <= inertias[1]
    a = kmeans(pts, 2, rng)
    for j, mpp in enumerate(mpp_per_cluster(pts, a)):
        members = pts[a.labels == j]
        assert any(np.array_equal(mpp, m) for m in members)
    # E_phi[q/phi] = 1 for any normalized q; this direction has bounded
    # weights (the reverse ratio phi/q is heavy-tailed and converges far
    # too slowly for a 1% Monte Carlo check).
    gm = GaussianMixture(np.array([[0.0, 2.0], [2.0, 0.0]]))
    u = np.random.default_rng(18).standard_normal((1_000_000, 2))
    ratio = np.exp(gm.logpdf(u) - log_std_normal_pdf(u))
    assert abs(ratio.mean() - 1.0) <= 0.01


def test_criterion_18_deterministic_reports(tmp_path):
    """Every method's CLI report is byte-identical for a fixed seed."""
    import json

    base = {"problem": {"builtin": {"name": "example1"}}, "seed": 3,
            "replicates": 1, "mcs": {"n": 50_000}}
    src = os.path.dirname(os.path.dirname(os.path.abspath(s4is.__file__)))
    for method in ("mcs", "form", "akis", "s4is"):
        cfg_path = tmp_path / f"{method}.json"
        cfg_path.write_text(json.dumps(dict(base, method=method)))
        outputs = []
        for run in range(2):
            out = tmp_path / f"{method}_{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "s4is.cli", "run", "--config",
                 str(cfg_path), "--output", str(out)],
                cwd=src, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{method} report not reproducible"
