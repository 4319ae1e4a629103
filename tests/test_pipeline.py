"""Two-stage pipeline orchestration and the method baselines."""

import dataclasses
import inspect
import re

import numpy as np
import pytest
from scipy.stats import norm

from s4is import pipeline
from s4is.benchmarks import (builtin_problem, oracle_is_reference,
                             reference_table, run_experiment)
from s4is.clustering import kmeans
from s4is.errors import StageFailureError
from s4is.evaluation import (Evaluator, ExternalEvaluator, ProblemSpec,
                             external_problem)
from s4is.form import hlrf_search, multi_start_mpps, spread
from s4is.pipeline import (S4isConfig, run_akis_baseline, run_form_baseline,
                           run_mcs_baseline, run_s4is)
from s4is.probability import (Marginal, RandomVector, hypercube_density,
                              sample_hypercube)
from s4is.surrogate import GpSurrogate, fit_surrogate


def test_library_functions_take_exactly_the_parameters_callers_set():
    # Tolerances, restart counts and widths no caller varies are module
    # constants; a new parameter is a new knob: add it here on purpose.
    expected = {
        hlrf_search: ["evaluator", "start_u"],
        multi_start_mpps: ["evaluator", "rng"],
        spread: ["points", "min_distance", "limit"],
        GpSurrogate: ["x", "y", "seed", "init_lengthscales"],
        fit_surrogate: ["points", "aggregate"],
        kmeans: ["points", "k", "rng"],
        hypercube_density: ["u"],
        sample_hypercube: ["d", "n", "rng"],
        oracle_is_reference: ["problem", "rng", "n"],
        run_experiment: ["exp", "rng"],
        Evaluator: ["problem"],
        ExternalEvaluator: ["command", "timeout_s"],
        external_problem: ["command", "marginals", "timeout_s"],
    }
    for fn, params in expected.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


def test_config_defaults_scale_with_dimension():
    cfg = S4isConfig()
    assert cfg.candidates_stage1(2) == 1000
    assert cfg.candidates_stage1(4) == 10_000
    assert cfg.candidates_stage1(10) == 10_000
    assert cfg.initial_support(2) == 12
    assert cfg.initial_support(6) == 28


@pytest.mark.parametrize("d, exploration", [(9, "stage1"), (10, "_form_seed")])
def test_form_seeded_exploration_starts_at_d_10(monkeypatch, d, exploration):
    class Explored(Exception):
        pass

    for name in ("stage1", "_form_seed"):
        def explore(*args, name=name):
            raise Explored(name)
        monkeypatch.setattr(pipeline, name, explore)
    with pytest.raises(Explored) as info:
        run_s4is(builtin_problem("example5", d=d), S4isConfig(), np.random.default_rng(0))
    assert str(info.value) == exploration


def test_config_validation():
    with pytest.raises(ValueError):
        S4isConfig(eps1=-1.0)
    with pytest.raises(ValueError):
        S4isConfig(a2=0)


def test_run_s4is_deterministic():
    problem = builtin_problem("example1")
    a = run_s4is(problem, S4isConfig(), np.random.default_rng(5))
    b = run_s4is(problem, S4isConfig(), np.random.default_rng(5))
    assert a.estimate.pf == b.estimate.pf
    assert a.estimate.n_eval == b.estimate.n_eval
    assert a.stage1.pf_history == b.stage1.pf_history


def test_run_s4is_report_shape():
    res = run_s4is(builtin_problem("example1"), S4isConfig(),
                   np.random.default_rng(5))
    assert res.stage1.coarse and not res.stage2.coarse
    assert res.stage1.termination in ("converged", "max_iterations", "pool_exhausted")
    assert len(res.stage1.pf_history) == len(res.stage1.cov_history)
    assert res.estimate.pf == res.stage2.final.pf
    assert res.estimate.n_eval >= res.stage2.support_size
    assert 0 < res.estimate.pf < 1


def test_stage2_estimate_improves_on_stage1():
    # stage 1 is a coarse hypercube-weighted estimate; stage 2 must carry a
    # defined CoV at or under the configured target
    res = run_s4is(builtin_problem("example3"), S4isConfig(),
                   np.random.default_rng(11))
    assert res.estimate.cov_defined
    assert res.estimate.cov <= 0.05 + 1e-9


@pytest.mark.parametrize("limit, enlargements, cov, n_entries", [(1, 0, 0.1738, 4),
                                                                 (2, 1, 0.1295, 5)])
def test_pool_growth_stops_at_its_limit_with_the_target_missed(limit, enlargements, cov,
                                                               n_entries):
    # At limit 1 the growth loop stops on its first pass, before any
    # enlargement; each enlargement appends one stage-2 entry.
    res = run_s4is(builtin_problem("example4", c=5),
                   S4isConfig(n_c2=200, max_iter2=4, pool_growth_limit=limit),
                   np.random.default_rng(7))
    notes = res.stage2.notes
    assert notes["cov_target_missed"] is True
    assert notes.get("pool_enlargements", 0) == enlargements
    assert res.estimate.cov == pytest.approx(cov, abs=1e-4)
    assert len(res.stage2.pf_history) == n_entries
    assert res.stage2.final is res.estimate


def test_highdim_uses_form_seeding():
    res = run_s4is(builtin_problem("example5", d=10), S4isConfig(),
                   np.random.default_rng(3))
    assert res.stage1.termination == "form_seed"
    assert res.estimate.cov_defined


def test_form_seed_takes_every_mpp_of_a_stationary_mean_point(monkeypatch):
    # g = 9 - u1^2 at d = 10: the gradient vanishes at the mean point, and
    # the two MPPs u1 = +-3 (beta 3, pf 2 Phi(-3)) both become centres.
    def comp(t):
        return 9.0 - np.atleast_2d(t)[:, 0] ** 2

    rv = RandomVector(tuple(Marginal("normal", 0.0, 1.0) for _ in range(10)))
    problem = ProblemSpec("two_sided", rv, (comp,), "single")
    centres, stage2 = [], pipeline.stage2

    def recorded_stage2(*args):
        centres.append(args[-1])
        return stage2(*args)

    monkeypatch.setattr(pipeline, "stage2", recorded_stage2)
    res = run_s4is(problem, S4isConfig(), np.random.default_rng(0))
    assert res.stage1.notes["n_mpps"] == 2
    assert res.stage1.notes["beta"] == pytest.approx(3.0, abs=1e-6)
    np.testing.assert_allclose(np.sort(centres[0][:, 0]), [-3.0, 3.0], atol=1e-6)
    np.testing.assert_array_equal(centres[0][:, 1:], 0.0)


def test_reduced_k_is_a_stage1_note():
    # 40 candidates leave fewer failed ones than the 40 clusters asked for:
    # stage 1 caps k and hands on one mixture centre per cluster.
    res = run_s4is(builtin_problem("example1"), S4isConfig(n_c1=40, k_clusters=40),
                   np.random.default_rng(7))
    k = res.stage1.notes["k_reduced_to"]
    assert 1 <= k < 40
    assert res.stage2.notes["n_mixture_components"] == k
    assert "k_reduced_to" not in res.stage2.notes


@pytest.mark.parametrize("max_iter1, termination", [(6, "converged"),
                                                    (5, "max_iterations")])
def test_window_is_tested_after_the_last_allowed_iteration(max_iter1, termination):
    # With this generator the stage-1 window first holds after 6 iterations.
    res = run_s4is(builtin_problem("example1"), S4isConfig(max_iter1=max_iter1),
                   np.random.default_rng(7))
    assert res.stage1.termination == termination
    assert len(res.stage1.pf_history) == max_iter1


def test_safe_problem_raises_stage_failure():
    def comp(t):
        return np.full(np.atleast_2d(t).shape[0], 5.0)

    rv = RandomVector((Marginal("normal", 0, 1), Marginal("normal", 0, 1)))
    problem = ProblemSpec("always_safe", rv, (comp,), "single")
    with pytest.raises(StageFailureError) as info:
        run_s4is(problem, S4isConfig(max_iter1=20), np.random.default_rng(0))
    # The advice names only knobs that exist: every snake_case word in it
    # is an S4isConfig field, and n_c1 is one of them.
    message = str(info.value)
    fields = {f.name for f in dataclasses.fields(S4isConfig)}
    named = set(re.findall(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b", message))
    assert "n_c1" in named and named <= fields, message
    for stale in ("highdim_form_seed", "gp_isotropic", "composite", "lf_scale_mode",
                  "form_starts", "gp_restarts", "gp_warm_updates", "enable"):
        assert stale not in message


# Stage 2's first six pf values on example5_d10 with default_rng([16, 0, 0]),
# a run that stops as converged with pf 0.058 against the reference 2.7e-3.
_SPREAD_WINDOW = [0.004930740354837708, 0.00493250795616438, 0.07014503397105418,
                  0.055013023121410765, 0.052179903408913285, 0.045616417862450555]


@pytest.mark.xfail(strict=True, reason="the trailing-window rule compares the last "
                   "value with the window mean only: 0.045616 is 0.086 % from the mean "
                   "of a window that spans 4.9e-3 to 7.0e-2")
def test_window_rule_does_not_stop_on_a_spread_window():
    assert not pipeline._window_converged(_SPREAD_WINDOW, 5, 0.001)


def test_window_rule_stops_on_a_flat_window():
    assert pipeline._window_converged([0.03, 0.01, 0.01, 0.01, 0.01, 0.01], 5, 0.001)


def test_thinned_trace_is_answered_by_the_ledger_cache():
    evaluator = Evaluator(builtin_problem("example1"))
    results = multi_start_mpps(evaluator, np.random.default_rng(2))
    spent = evaluator.ledger.count
    support = pipeline._thin_trace(evaluator, results)
    assert evaluator.ledger.count == spent
    trace_u = np.vstack([r.trace_u for r in results])
    trace_g = np.concatenate([r.trace_g for r in results])
    rows = [int(np.flatnonzero((trace_u == u).all(axis=1))[0]) for u in support.inputs_u]
    assert np.array_equal(support.outputs, trace_g[rows])


@pytest.mark.parametrize("method, config, stops", [
    ("s4is", S4isConfig(), ["converged", "converged"]),
    ("s4is", S4isConfig(max_iter1=4, max_iter2=4), ["max_iterations"] * 2),
    ("akis", S4isConfig(), ["converged"]),
])
def test_every_stop_is_taken_on_a_fully_optimised_model(monkeypatch, method, config,
                                                        stops):
    # events: ("update", support size, appended points after the update),
    # ("stop", fired) for each test of a stopping rule.
    events, terminations, appended, reoptimised = [], [], [], []
    update, refine, window = (pipeline.update_surrogate, pipeline._refine,
                              pipeline._window_converged)

    def logged_update(model, support):
        model = update(model, support)
        events.append(("update", len(support), model.n_appended))
        return model

    def logged_window(*args):
        fired = window(*args)
        events.append(("stop", fired))
        return fired

    def checked_refine(*args, **kwargs):
        # Bound by name: a changed signature fails here, not on the wrong argument.
        bound = inspect.signature(refine).bind(*args, **kwargs)
        score = bound.arguments["score"]

        def logged_score(*score_args):
            scores = score(*score_args)
            events.append(("stop", scores is None))
            return scores

        bound.arguments["score"] = logged_score
        del events[:]
        model, means, initial_pf, report = refine(*bound.args, **bound.kwargs)
        # A stop is accepted only after a test on the final, fully
        # optimised model: no update follows the test that fired.
        if report.termination == "converged":
            assert events[-1] == ("stop", True)
            updates = [e for e in events if e[0] == "update"]
            assert not updates or updates[-1][2] == 0
        assert model.n_appended == 0
        assert np.array_equal(means, model.predict_mean(bound.arguments["pool"].x))
        if report.pf_history:
            assert report.pf_history[-1] == report.final.pf
        terminations.append(report.termination)
        sizes = [e[1] for e in events if e[0] == "update"]
        appended.append(any(e[0] == "update" and e[2] > 0 for e in events))
        reoptimised.append(any(a == b for a, b in zip(sizes, sizes[1:])))
        return model, means, initial_pf, report

    monkeypatch.setattr(pipeline, "update_surrogate", logged_update)
    monkeypatch.setattr(pipeline, "_window_converged", logged_window)
    monkeypatch.setattr(pipeline, "_refine", checked_refine)
    problem = builtin_problem("example2")
    if method == "s4is":
        run_s4is(problem, config, np.random.default_rng(5))
    else:
        run_akis_baseline(problem, config, np.random.default_rng(7))
    assert terminations == stops
    # Points were appended, and a stop re-optimised them: an update without
    # a new support point.
    assert any(appended) and any(reoptimised)


def test_surprising_output_does_not_leave_stale_lengthscales():
    # The first stage-1 output of this generator lies 81 predictive
    # standard deviations from the initial fit's mean. Appended at that
    # fit's lengthscales, with the next point too, it led to a stage 1
    # that stopped early and a stage 2 of 52 iterations, n_eval 71. With a
    # full refit on every point, the largest n_eval over the 320 solves of
    # `scripts/sweep.py s4is_solve` is 34.
    problem = reference_table("example4_c5").problem
    res = run_s4is(problem, S4isConfig(), np.random.default_rng([17, 1, 1]))
    assert res.estimate.n_eval <= 34


def test_parallel_system_combines_components_by_max():
    # Failure needs both components <= 0, so pf = Phi(-2)^2 = 5.18e-4; the
    # minimum of the component surrogates would instead give about Phi(-2) * 2.
    rv = RandomVector((Marginal("normal", 0, 1), Marginal("normal", 0, 1)))
    problem = ProblemSpec("parallel", rv, (lambda t: 2.0 - t[:, 0],
                                           lambda t: 2.0 - t[:, 1]), "parallel_max")
    res = run_s4is(problem, S4isConfig(), np.random.default_rng(1))
    assert res.estimate.pf == pytest.approx(norm.cdf(-2.0) ** 2, rel=0.10)
    assert res.estimate.n_eval <= 40


def test_mcs_baseline():
    est = run_mcs_baseline(builtin_problem("example1"), 200_000,
                           np.random.default_rng(8))
    assert est.pf == pytest.approx(4.46e-3, rel=0.15)
    assert est.n_eval == 200_000
    assert est.n_samples == 200_000


def test_form_baseline_example2():
    est = run_form_baseline(builtin_problem("example2"),
                            np.random.default_rng(0))
    assert est.pf == pytest.approx(0.0311, rel=0.02)
    assert not est.cov_defined
    assert est.n_eval > 0


def test_form_baseline_survives_stationary_origin():
    # example1's symmetric system has a vanishing central gradient at the
    # mean point; one search from there takes the kink's one-sided slope.
    est = run_form_baseline(builtin_problem("example1"),
                            np.random.default_rng(0))
    assert est.pf == pytest.approx(1.3499e-3, rel=0.01)
    assert est.n_eval <= 20


def test_akis_baseline_on_example3_centres_on_one_search():
    # The one search from the mean point (205 calls with the merit line
    # search) centres the density, without restarts.
    problem = builtin_problem("example3")
    est = run_akis_baseline(problem, S4isConfig(), np.random.default_rng(7))
    assert est.n_eval <= 250
    assert abs(est.pf / problem.reference_pf - 1) <= 0.10


def test_akis_baseline_runs_and_counts():
    est = run_akis_baseline(builtin_problem("example2"), S4isConfig(),
                            np.random.default_rng(7))
    assert est.pf == pytest.approx(0.0286, rel=0.10)
    assert est.n_eval > 0
    assert est.cov_defined
