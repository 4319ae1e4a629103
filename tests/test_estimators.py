"""Monte Carlo and importance-sampling estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import s4is.estimators
from s4is.errors import DensitySupportError
from s4is.estimators import (is_estimate_from_log, is_variance_deviation,
                             is_variance_moment, mcs_estimate, relative_error)
from s4is.probability import log_std_normal_pdf


def test_mcs_estimate_binomial():
    est = mcs_estimate(37, 1000)
    assert est.pf == pytest.approx(0.037)
    assert est.variance == pytest.approx(0.037 * 0.963 / 1000)
    assert est.cov == pytest.approx(math.sqrt(est.variance) / est.pf)
    assert est.n_samples == 1000


def test_mcs_zero_failures_flags_undefined_cov():
    est = mcs_estimate(0, 100)
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
                                   log_std_normal_pdf(u) - log_q)
        estimates.append(est.pf)
    mean = np.mean(estimates)
    se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
    assert abs(mean - truth) <= 3 * se


def test_is_with_identity_proposal_reduces_to_mcs():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((2000, 1))
    ind = u[:, 0] >= 1.0
    log_p = log_std_normal_pdf(u)
    est_is = is_estimate_from_log(ind, log_p - log_p)
    est_mc = mcs_estimate(np.count_nonzero(ind), ind.size)
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
    for bad in (np.inf, np.nan):  # q = 0, or 0 / 0
        with pytest.raises(DensitySupportError):
            is_estimate_from_log(ind, np.array([bad, 0.0]))


def test_zero_proposal_density_at_safe_sample_is_fine():
    ind = np.array([False, True])
    for bad in (np.inf, np.nan):
        est = is_estimate_from_log(ind, np.array([bad, 0.0]))
        assert est.pf == pytest.approx(0.5)


def _two_density_estimate(ind, log_p, log_q):
    """pf, variance and cov as computed from the two log densities, the
    subtraction taken only at the failures."""
    n = ind.size
    weighted = np.zeros(n)
    weighted[ind] = np.exp(log_p[ind] - log_q[ind])
    pf = float(weighted.mean())
    variance = float(np.sum((weighted - pf) ** 2) / (n * (n - 1)))
    return pf, variance, math.sqrt(variance) / pf if pf > 0 else math.nan


@pytest.mark.parametrize("seed", range(5))
def test_log_weight_estimate_equals_the_two_density_formula_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    log_p = rng.normal(-3.0, 2.0, n)
    log_p[rng.random(n) < 0.1] = -np.inf  # weights that are exactly zero
    log_q = rng.normal(-3.0, 2.0, n)
    ind = rng.random(n) < 0.4
    ind[:2] = True, False
    est = is_estimate_from_log(ind, log_p - log_q)
    assert tuple(map(repr, (est.pf, est.variance, est.cov))) \
        == tuple(map(repr, _two_density_estimate(ind, log_p, log_q)))


@pytest.mark.parametrize("n", [1, 999, 10_001])
def test_mcs_estimate_is_the_mean_of_a_float_copy_bit_for_bit(n):
    ind = np.random.default_rng(n).random(n) < 0.3
    pf = ind.astype(float).mean()
    est = mcs_estimate(np.count_nonzero(ind), n)
    assert repr(est.pf) == repr(float(pf))
    assert repr(est.variance) == repr(float(pf * (1.0 - pf) / n))


def test_mcs_estimate_of_no_samples_is_nan():
    with pytest.warns(RuntimeWarning):
        est = mcs_estimate(0, 0)
    assert math.isnan(est.pf) and math.isnan(est.variance)
    assert est.n_samples == 0


def test_deviation_variance_equals_the_squared_copy_bit_for_bit():
    w = np.random.default_rng(3).exponential(size=1001)
    pf = float(w.mean())
    kept = w.copy()
    want = float(np.sum((w - pf) ** 2) / (w.size * (w.size - 1)))
    assert repr(is_variance_deviation(w, pf)) == repr(want)
    np.testing.assert_array_equal(w, kept)  # the caller's weights are untouched


_SLICE = s4is.estimators.REFERENCE_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, 2, _SLICE - 1, _SLICE, _SLICE + 1, 10**6 + 3])
def test_sliced_estimate_is_the_deviation_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)
    log_w = rng.normal(0.0, 3.0, n)
    ind = rng.random(n) < 0.3
    ind[-1] = True
    kept = log_w.copy()
    weighted = np.zeros(n)
    weighted[ind] = np.exp(log_w[ind])
    pf = float(weighted.mean())
    est = is_estimate_from_log(ind, log_w)
    assert repr(est.pf) == repr(pf)
    assert repr(est.variance) == repr(is_variance_deviation(weighted, pf))
    np.testing.assert_array_equal(log_w, kept)  # the caller's log weights are untouched


@pytest.mark.parametrize("at", [_SLICE - 1, _SLICE, 2 * _SLICE + 2])
def test_zero_proposal_density_at_a_failure_in_any_slice_raises(at):
    n = 2 * _SLICE + 3
    ind = np.zeros(n, dtype=bool)
    log_w = np.zeros(n)
    log_w[at] = np.inf
    assert is_estimate_from_log(ind, log_w).pf == 0.0  # a safe sample's weight is unused
    ind[at] = True
    with pytest.raises(DensitySupportError):
        is_estimate_from_log(ind, log_w)


def test_estimate_holds_one_sample_length_array(peak_bytes):
    # The weighted indicators are the estimate's one (n,) array; the
    # weights of one slice at a time and the squared deviations, taken in
    # place, add no second one.
    n = 10**6
    rng = np.random.default_rng(5)
    ind = rng.random(n) < 0.3
    log_w = rng.normal(size=n)
    assert peak_bytes(lambda: is_estimate_from_log(ind, log_w)) < 1.25 * 8 * n


def test_relative_error():
    assert relative_error(0.02, 0.019) == pytest.approx(0.05)
    assert relative_error(4.0e-3, 4.0e-3) == 0.0
