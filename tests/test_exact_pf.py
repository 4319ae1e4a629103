"""Exact failure probabilities of the six 2-d built-in problems.

Given one input, each problem is linear in the other input or a product
of the two, so its pf is a 1-D integral of a standard normal density times
a normal tail, taken here with ``scipy.integrate.quad``. Each integral is
pinned to the digits of ROADMAP item 6's table and checked against a
fixed-seed estimate with the true g: crude MCS where pf >= 1e-3, and
importance sampling on a mixture at the known MPPs below that.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from s4is.benchmarks import builtin_problem
from s4is.estimators import is_estimate_from_log
from s4is.evaluation import Evaluator
from s4is.pipeline import run_mcs_baseline
from s4is.probability import GaussianMixture, log_std_normal_pdf

_QUAD = {"epsabs": 0.0, "epsrel": 1e-12, "limit": 200}


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def _tail(x):
    """P(Z >= x) for a standard normal Z."""
    return float(ndtr(-x))


def _quad(f, a, b):
    return integrate.quad(f, a, b, **_QUAD)[0]


def _example1():
    # With a = (u1 - u2)/sqrt(2) and b = (u1 + u2)/sqrt(2), the system is
    # safe where |a| < 3 and |b| < 3 + 0.2 a^2.
    return 2 * _tail(3.0) + _quad(lambda a: _phi(a) * 2 * _tail(3 + 0.2 * a * a), -3.0, 3.0)


def _example3():
    # theta ~ N((1.5, 2.5), I); failure where theta2 >= 1 + 20 (sin(2.5 theta1) + 2)
    # / (theta1^2 + 4).
    def f(t1):
        return _phi(t1 - 1.5) * _tail(1 + 20 * (math.sin(2.5 * t1) + 2) / (t1 * t1 + 4) - 2.5)
    return _quad(f, -math.inf, math.inf)


def _example4(c):
    # c1 fails where u2 >= h(u1); c2 where u1 u2 >= c^2 / 2, that is above
    # c^2 / (2 u1) for u1 > 0 and below it, disjoint from c1, for u1 < 0.
    def h(x):
        return c - 1 + math.exp(-x * x / 10) + (x / 5) ** 4

    def below(x):
        return _phi(x) * (_tail(h(x)) + _tail(c * c / (-2 * x)))

    def above(x):
        return _phi(x) * _tail(min(h(x), c * c / (2 * x)))
    return _quad(below, -math.inf, 0.0) + _quad(above, 0.0, math.inf)


def _example5_d2():
    # Two lognormals of mean 1 and sd 0.2: failure where
    # x1 + x2 >= 2 + 0.6 sqrt(2); x1 alone exceeds it beyond z0.
    sigma = math.sqrt(math.log1p(0.04))
    mu = -0.5 * sigma * sigma
    threshold = 2 + 0.6 * math.sqrt(2)
    z0 = (math.log(threshold) - mu) / sigma

    def f(z):
        rest = threshold - math.exp(mu + sigma * z)
        return _phi(z) * _tail((math.log(rest) - mu) / sigma)
    return _tail(z0) + _quad(f, -math.inf, z0)


# (builtin_problem arguments, the integral, ROADMAP item 6's exact pf)
_EXACT = {
    "example1": ({"name": "example1"}, _example1, 4.4573e-3),
    "example3": ({"name": "example3"}, _example3, 3.1320e-2),
    "example4_c3": ({"name": "example4", "c": 3}, lambda: _example4(3), 3.4789e-3),
    "example4_c4": ({"name": "example4", "c": 4}, lambda: _example4(4), 9.0081e-5),
    "example4_c5": ({"name": "example4", "c": 5}, lambda: _example4(5), 8.9766e-7),
    "example5_d2": ({"name": "example5", "d": 2}, _example5_d2, 4.9226e-3),
}
_MCS_N = 1_000_000
_IS_N = 100_000
_SEED = 7


@pytest.mark.parametrize("example_id", _EXACT)
def test_exact_pf_matches_the_roadmap_table(example_id):
    _, integral, printed = _EXACT[example_id]
    assert f"{integral():.4e}" == f"{printed:.4e}"


def _example4_mpps(c):
    """The three MPPs of example4, all at distance c: (0, c) on c1, and
    +-(c, c) / sqrt(2) on c2."""
    r = c / math.sqrt(2)
    return np.array([[0.0, c], [r, r], [-r, -r]])


# Importance sampling where pf < 1e-3; crude MCS on the other problems.
_IS_CENTERS = {"example4_c4": _example4_mpps(4), "example4_c5": _example4_mpps(5)}


def _true_g_estimate(example_id, rng):
    problem = builtin_problem(**_EXACT[example_id][0])
    if example_id not in _IS_CENTERS:
        return run_mcs_baseline(problem, _MCS_N, rng)
    gm = GaussianMixture(_IS_CENTERS[example_id])
    u = gm.sample(_IS_N, rng)
    # Standard normal inputs: u-space is the original space.
    failed = Evaluator(problem).g_batch(u) <= 0
    return is_estimate_from_log(failed, log_std_normal_pdf(u) - gm.logpdf(u))


@pytest.mark.parametrize("example_id", _EXACT)
def test_exact_pf_agrees_with_a_true_g_estimate(example_id):
    est = _true_g_estimate(example_id, np.random.default_rng(_SEED))
    exact = _EXACT[example_id][1]()
    assert abs(est.pf - exact) <= 4 * est.cov * est.pf, (est.pf, est.cov, exact)
