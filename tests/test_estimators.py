"""Monte Carlo and importance-sampling estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from s4is.errors import DensitySupportError
from s4is.estimators import (is_estimate_from_log, is_variance_deviation,
                             is_variance_moment, mcs_estimate, relative_error)
from s4is.probability import log_std_normal_pdf


def test_mcs_estimate_binomial():
    ind = np.zeros(1000)
    ind[:37] = 1
    est = mcs_estimate(ind)
    assert est.pf == pytest.approx(0.037)
    assert est.variance == pytest.approx(0.037 * 0.963 / 1000)
    assert est.cov == pytest.approx(math.sqrt(est.variance) / est.pf)
    assert est.n_samples == 1000


def test_mcs_zero_failures_flags_undefined_cov():
    est = mcs_estimate(np.zeros(100))
    assert est.pf == 0.0
    assert not est.cov_defined
    assert math.isnan(est.cov)


def test_is_unbiased_for_linear_limit_state():
    """g(u) = 3 - u1 under a q shifted to the failure region: 200 small
    estimates must land within 3 standard errors of Phi(-3)."""
    truth = stats.norm.cdf(-3.0)
    rng = np.random.default_rng(42)
    estimates = []
    for _ in range(200):
        u = rng.standard_normal((500, 1)) + 3.0  # q = N(3, 1)
        log_q = -0.5 * (u[:, 0] - 3.0) ** 2 - 0.5 * math.log(2 * math.pi)
        est = is_estimate_from_log(u[:, 0] >= 3.0,
                                   log_std_normal_pdf(u), log_q)
        estimates.append(est.pf)
    mean = np.mean(estimates)
    se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
    assert abs(mean - truth) <= 3 * se


def test_is_with_identity_proposal_reduces_to_mcs():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((2000, 1))
    ind = u[:, 0] >= 1.0
    log_p = log_std_normal_pdf(u)
    est_is = is_estimate_from_log(ind, log_p, log_p)
    est_mc = mcs_estimate(ind)
    assert est_is.pf == est_mc.pf  # weights are exactly one


@given(hnp.arrays(np.float64, st.integers(2, 60),
                  elements=st.floats(0, 50, allow_nan=False)))
@settings(max_examples=200, deadline=None)
def test_variance_forms_agree(weighted):
    pf = float(weighted.mean())
    a = is_variance_deviation(weighted, pf)
    b = is_variance_moment(weighted, pf)
    scale = max(abs(a), abs(b), 1.0)
    assert abs(a - b) <= 1e-12 * scale


def test_zero_proposal_density_at_failure_raises():
    ind = np.array([True, False])
    log_p = np.array([-1.0, -1.0])
    log_q = np.array([-np.inf, -1.0])
    with pytest.raises(DensitySupportError):
        is_estimate_from_log(ind, log_p, log_q)


def test_zero_proposal_density_at_safe_sample_is_fine():
    ind = np.array([False, True])
    log_p = np.array([-1.0, -1.0])
    log_q = np.array([-np.inf, -1.0])
    est = is_estimate_from_log(ind, log_p, log_q)
    assert est.pf == pytest.approx(0.5)


def test_relative_error():
    assert relative_error(0.02, 0.019) == pytest.approx(0.05)
    assert relative_error(4.0e-3, 4.0e-3) == 0.0
