"""Built-in benchmark problems, the evaluation ledger and aggregation."""

import numpy as np
import pytest

from s4is.benchmarks import builtin_problem
from s4is.errors import ConfigError, EvaluationError
from s4is.evaluation import Evaluator, ProblemSpec
from s4is.probability import Marginal, RandomVector


def test_example1_at_origin():
    ev = Evaluator(builtin_problem("example1"))
    comps = ev.components_at(np.zeros(2))
    np.testing.assert_allclose(
        np.sort(comps), [3.0, 3.0, 4.2426407, 4.2426407], atol=1e-6)
    assert ev.g(np.zeros(2)) == pytest.approx(3.0)


def test_example1_far_corner():
    ev = Evaluator(builtin_problem("example1"))
    assert ev.g(np.array([5.0, 5.0])) == pytest.approx(-4.0710678, abs=1e-6)


def test_example1_symmetries():
    ev = Evaluator(builtin_problem("example1"))
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(-4, 4, 2)
        g = ev.g(t)
        assert ev.g(t[::-1].copy()) == pytest.approx(g, rel=1e-12)
        assert ev.g(-t) == pytest.approx(g, rel=1e-12)


def test_example2_at_mean_point():
    p = builtin_problem("example2")
    mean = np.array([m.mean for m in p.marginals.marginals])
    assert Evaluator(p).g(mean) == pytest.approx(0.5896408, abs=1e-6)
    assert p.dim == 6


def test_example3_values():
    ev = Evaluator(builtin_problem("example3"))
    assert ev.g(np.array([1.5, 2.5])) == pytest.approx(0.9596887, abs=1e-6)
    assert ev.g(np.array([0.0, 0.0])) == pytest.approx(2.2, abs=1e-12)


def test_example4_c3_at_origin():
    ev = Evaluator(builtin_problem("example4", c=3))
    assert ev.g(np.zeros(2)) == pytest.approx(3.0)
    comps = ev.components_at(np.zeros(2))
    np.testing.assert_allclose(np.sort(comps), [3.0, 4.5])


def test_example5_monotone_decreasing():
    ev = Evaluator(builtin_problem("example5", d=4))
    t = np.ones(4)
    g0 = ev.g(t)
    for i in range(4):
        bumped = t.copy()
        bumped[i] += 0.1
        assert ev.g(bumped) < g0


def test_example5_marginals():
    p = builtin_problem("example5", d=3)
    assert p.dim == 3
    for m in p.marginals.marginals:
        assert m.kind == "lognormal"
        assert m.mean == pytest.approx(1.0)


def test_ledger_counts_distinct_points():
    ev = Evaluator(builtin_problem("example1"))
    pts = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 0.0])]
    for t in pts:
        ev.g(t)
    assert ev.ledger.count == 2  # cached repeat does not count
    ev.g(np.array([2.0, 2.0]))
    assert ev.ledger.count == 3


def test_g_batch_counts_evaluations():
    ev = Evaluator(builtin_problem("example1"))
    thetas = np.random.default_rng(1).uniform(-3, 3, size=(100, 2))
    g = ev.g_batch(thetas)
    assert g.shape == (100,)
    assert ev.ledger.count == 100


def _system(aggregation, last=lambda t: t[:, 0] * t[:, 1]):
    """Four components with ties, signed zeros and a sign change per row."""
    components = (lambda t: t[:, 0] - t[:, 1], lambda t: np.round(t[:, 0]),
                  lambda t: -np.round(t[:, 1]), last)
    rv = RandomVector((Marginal("normal", 0.0, 1.0), Marginal("normal", 0.0, 1.0)))
    return ProblemSpec(aggregation, rv, components, aggregation)


@pytest.mark.parametrize("aggregation", ["series_min", "parallel_max"])
def test_g_batch_equals_aggregate_of_the_component_stack(aggregation):
    problem = _system(aggregation)
    thetas = np.random.default_rng(3).uniform(-2, 2, size=(20_001, 2))
    comps = [np.asarray(c(thetas), dtype=float) for c in problem.components]
    want = problem.aggregate(np.stack(comps, axis=-1))
    assert np.array_equal(Evaluator(problem).g_batch(thetas), want)
    assert np.array_equal(Evaluator(problem).g_batch(thetas[5]), want[5:6])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_g_batch_non_finite_component_raises_before_counting(bad):
    problem = _system("series_min", last=lambda t: np.where(t[:, 0] > 1.5, bad, t[:, 1]))
    ev = Evaluator(problem)
    ev.g_batch(np.zeros((4, 2)))
    with pytest.raises(EvaluationError, match="non-finite"):
        ev.g_batch(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert ev.ledger.count == 4


def test_series_min_aggregation():
    p = builtin_problem("example1")
    assert p.aggregation == "series_min"
    assert p.aggregate(np.array([2.0, -1.0, 5.0, 0.5])) == -1.0


def test_reference_pf_populated():
    assert builtin_problem("example4", c=3).reference_pf == pytest.approx(3.470e-3)
    assert builtin_problem("example5", d=2).reference_pf == pytest.approx(4.926e-3)
    assert builtin_problem("example5", d=7).reference_pf is None


def test_unknown_problem_rejected():
    with pytest.raises(ConfigError):
        builtin_problem("example9")
    with pytest.raises(ConfigError):
        builtin_problem("example4", c=7)
