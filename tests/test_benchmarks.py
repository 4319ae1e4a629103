"""Reference experiment tables and the comparison runner."""

import math

import numpy as np
import pytest

from s4is.benchmarks import (EXAMPLE_IDS, Band, oracle_is_reference,
                             reference_table, run_experiment)
from s4is.errors import ConfigError
from s4is.estimators import is_estimate_from_log, mcs_estimate
from s4is.evaluation import Evaluator, ProblemSpec, builtin_problem
from s4is.pipeline import REFERENCE_BLOCK_ROWS, S4isConfig, run_mcs_baseline
from s4is.probability import (GaussianMixture, Marginal, RandomVector,
                              log_std_normal_pdf)


def test_all_tables_populated():
    assert len(EXAMPLE_IDS) == 9
    for example_id in EXAMPLE_IDS:
        exp = reference_table(example_id)
        assert exp.problem.dim >= 2
        assert "s4is" in exp.methods
        for method, bands in exp.expected.items():
            assert bands, method
            for band in bands:
                assert band.low <= band.high
                assert band.provenance in ("reported", "computed")
                # A gated value outside its own band is a transcription slip.
                if (band.low, band.high) != (-math.inf, math.inf):
                    assert band.contains(band.value), (example_id, method, band)


def test_reported_values_spot_checks():
    exp = reference_table("example1")
    by_q = {b.quantity: b for b in exp.expected["s4is"]}
    assert by_q["pf"].value == pytest.approx(4.483e-3)
    assert by_q["n_eval"].value == pytest.approx(60.6)
    assert exp.mcs_n == 10**6

    exp = reference_table("example3")
    form = {b.quantity: b for b in exp.expected["form"]}
    assert form["eps_r"].value == pytest.approx(2.776)

    exp = reference_table("example4_c4")
    assert exp.mcs_n == 4 * 10**6

    exp = reference_table("example5_d2")
    assert {b.quantity: b for b in exp.expected["s4is"]}["n_eval"].value \
        == pytest.approx(23.9)


def test_example4_c5_has_no_mcs_method():
    exp = reference_table("example4_c5")
    assert "mcs" not in exp.methods
    # the reported ground truth stays on record
    assert {b.quantity: b for b in exp.expected["s4is"]}["pf"].value \
        == pytest.approx(9.035e-7)


def test_unknown_example_id():
    with pytest.raises(ConfigError):
        reference_table("example7")


def test_empty_band_rejected():
    with pytest.raises(ConfigError):
        Band("pf", 1.0, 2.0, 1.0)
    with pytest.raises(ConfigError):
        Band("pf", 1.0, 0.5, 1.5, provenance="guessed")


def _small_experiment(methods=("mcs",)):
    exp = reference_table("example1", replicates=2)
    return type(exp)(exp.example_id, exp.problem, tuple(methods), 50_000,
                     2, exp.expected)


def test_mcs_only_single_row():
    report = run_experiment(_small_experiment(), np.random.default_rng(0))
    assert len(report.rows) == 1
    assert report.rows[0].method == "mcs"
    assert report.reference_source == "mcs"
    assert report.rows[0].eps_r == 0.0  # reference is its own mean


def test_eps_r_internally_consistent():
    report = run_experiment(_small_experiment(("mcs", "form")),
                            np.random.default_rng(1))
    for row in report.rows:
        recomputed = abs(report.reference_pf - row.mean_pf) / report.reference_pf
        assert abs(recomputed - row.eps_r) <= 1e-12


def test_mcs_cov_binomial_relation():
    report = run_experiment(_small_experiment(), np.random.default_rng(2))
    row = report.rows[0]
    expected_cov = math.sqrt((1 - row.mean_pf) / (row.mean_pf * 50_000))
    assert row.mean_cov == pytest.approx(expected_cov, rel=0.20)


def test_deterministic_report():
    exp = _small_experiment(("mcs", "s4is"))
    cfg = S4isConfig()
    a = run_experiment(exp, np.random.default_rng(3), config=cfg)
    b = run_experiment(exp, np.random.default_rng(3), config=cfg)
    assert repr(a) == repr(b)


def test_method_error_becomes_failed_row():
    exp = _small_experiment(("mcs", "s4is"))
    bad = S4isConfig(n_c1=50, n_s1_0=12, max_iter1=1)  # starved exploration
    report = run_experiment(exp, np.random.default_rng(4), config=bad)
    by_method = {r.method: r for r in report.rows}
    assert by_method["mcs"].error is None
    s4 = by_method["s4is"]
    if s4.error is not None:  # starved run may still squeak through
        assert s4.passed is False
        assert math.isnan(s4.mean_pf)


def test_format_table_mentions_every_method():
    report = run_experiment(_small_experiment(("mcs", "form")),
                            np.random.default_rng(5))
    text = report.format_table()
    assert "mcs" in text and "form" in text
    assert "reference pf" in text


def _one_shot_failed(problem, u):
    """g <= 0 for every row of u in one call, as the references did before
    they went blockwise."""
    return Evaluator(problem).g_batch(problem.marginals.from_standard_normal(u)) <= 0


def _fields(est):
    # repr, so that a NaN CoV compares equal to itself
    return repr((est.pf, est.variance, est.cov, est.n_eval, est.n_samples))


@pytest.mark.parametrize("n", [REFERENCE_BLOCK_ROWS + 17, 5000])
@pytest.mark.parametrize("problem_args", [{"name": "example1"},
                                          {"name": "example5", "d": 10}])
def test_blockwise_mcs_equals_one_shot(problem_args, n):
    problem = builtin_problem(**problem_args)
    got = run_mcs_baseline(problem, n, np.random.default_rng(5))
    u = np.random.default_rng(5).standard_normal((n, problem.dim))
    want = mcs_estimate(_one_shot_failed(problem, u))
    want.n_eval = n
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("n", [REFERENCE_BLOCK_ROWS + 17, 5000])
def test_blockwise_oracle_equals_one_shot(n, monkeypatch):
    problem = builtin_problem("example1")
    drawn = []
    sample = GaussianMixture.sample

    def recording_sample(self, count, rng):
        u = sample(self, count, rng)
        drawn.append((self, u))
        return u

    monkeypatch.setattr(GaussianMixture, "sample", recording_sample)
    got = oracle_is_reference(problem, np.random.default_rng(6), n=n)
    [(gm, u)] = drawn
    want = is_estimate_from_log(_one_shot_failed(problem, u),
                                log_std_normal_pdf(u), gm.logpdf(u))
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("n", [0, -5, True, 2.5, "10", None])
@pytest.mark.parametrize("method", ["mcs", "oracle"])
def test_bad_sample_count_rejected_before_any_g_call(method, n):
    calls = []

    def g(theta):
        calls.append(len(theta))
        return 3.0 - theta[:, 0]

    problem = ProblemSpec("counting", RandomVector((Marginal("normal", 0.0, 1.0),) * 2),
                          (g,))
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="sample count"):
        if method == "mcs":
            run_mcs_baseline(problem, n, rng)
        else:
            oracle_is_reference(problem, rng, n=n)
    assert calls == []
