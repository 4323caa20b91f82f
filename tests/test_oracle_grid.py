"""Array kernels against mpmath oracles across the whole parameter range.

The oracles evaluate the defining sums in 50-digit arithmetic, so each
check bounds the kernel's own rounding.  Tolerances for the Skellam tails
scale with ``1 + |mu| + delta + |ln F|``: a tail ``F`` is a sum of
exponentials of log-domain terms of that size, and a one-ulp change of the
rates already moves it by about ``(|mu| + delta) * 1e-16`` relative.  The
censored moments keep closed forms whose cancellation at ``mu << 0`` costs
about four digits, hence their flat 1e-10.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from tobitcount.skellam import (
    SkellamStar,
    _cdf0_arr,
    _censored_moments_arr,
    _log_pmf_arr,
    _survival_arr,
    censored_moments,
)
from tobitcount.specialfn import _log_bessel_i_arr, noncentral_chisq_cdf

DIGITS = 50
EPS = 2.0**-52

MUS = [-60.0, -40.0, -12.5, -3.0, -0.4, 0.0, 0.3, 1.7, 6.0, 40.0, 150.0, 800.0]
DELTAS = [0.01, 0.25, 2.0, 4.0]


def mp_mixture(a0, g, m):
    """``sum_j Pois(j; m) P(a0 + j, g)``; the terms are log-concave in ``j``."""
    a0, g, m = mp.mpf(a0), mp.mpf(g), mp.mpf(m)
    total = previous = mp.mpf(0)
    j = 0
    while True:
        weight = mp.exp(j * mp.log(m) - m - mp.loggamma(j + 1)) if m else mp.mpf(j == 0)
        lower = mp.gammainc(a0 + j, 0, g, regularized=True) if a0 + j else mp.mpf(1)
        term = weight * lower
        total += term
        if term < previous and term < mp.mpf(10) ** -45 * total:
            return total
        previous = term
        j += 1


def mp_lambdas(mu, delta):
    mu, delta = mp.mpf(mu), mp.mpf(delta)
    return (abs(mu) + mu + delta) / 2, (abs(mu) - mu + delta) / 2


def mp_pmf(k, lam1, lam2):
    bessel = mp.besseli(abs(k), 2 * mp.sqrt(lam1 * lam2))
    return mp.exp(-lam1 - lam2) * (lam1 / lam2) ** (mp.mpf(k) / 2) * bessel


def mp_censored_moments(mu, delta):
    """Mean and second moment of ``max(0, X*)`` from the closed forms."""
    lam1, lam2 = mp_lambdas(mu, delta)
    mu = lam1 - lam2
    p0, p1 = mp_pmf(0, lam1, lam2), mp_pmf(1, lam1, lam2)
    surv1 = mp_mixture(1, lam1, lam2)
    mean = mu * (surv1 + p0) + lam2 * (p0 + p1)
    second = (lam1 + lam2 + mu * mu) * surv1 + lam2 * mu * p1 + lam1 * (1 + mu) * p0
    return mean, second


def rel_err(got, ref):
    return float(abs(mp.mpf(float(got)) - ref) / abs(ref))


def tail_tol(mu, delta, ref):
    return 8.0 * EPS * (1.0 + abs(mu) + delta + abs(float(mp.log(ref))))


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(DIGITS):
        yield


class TestBessel:
    ORDERS = np.array([0, 1, 2, 5, 17, 60, 123, 200])

    # both sides of the kernel's switch from the linear-domain recurrence
    # (z <= 600) to the log-domain term grid
    @pytest.mark.parametrize(
        "z", [1e-5, 0.3, 1.0, 7.5, 40.0, 150.0, 599.0, 601.0, 1200.0, 5000.0]
    )
    def test_orders_0_to_200(self, z):
        got = _log_bessel_i_arr(self.ORDERS, np.full(self.ORDERS.shape, z))
        for n, value in zip(self.ORDERS, got):
            ref = mp.log(mp.besseli(int(n), z))
            assert abs(value - ref) <= 1e-14 * max(1.0, abs(float(ref)))


class TestSkellamTails:
    @pytest.mark.parametrize("delta", DELTAS)
    def test_zero_mass(self, delta):
        got = _cdf0_arr(np.array(MUS), delta)
        for mu, value in zip(MUS, got):
            lam1, lam2 = mp_lambdas(mu, delta)
            ref = mp_mixture(0, lam2, lam1)
            if ref < mp.mpf("1e-300"):
                assert value < 1e-290
                continue
            assert rel_err(value, ref) <= tail_tol(mu, delta, ref), mu

    @pytest.mark.parametrize("level", [1, 5])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_survival(self, level, delta):
        got = _survival_arr(level, np.array(MUS), delta)
        for mu, value in zip(MUS, got):
            ref = mp_mixture(level, *mp_lambdas(mu, delta))
            assert rel_err(value, ref) <= tail_tol(mu, delta, ref), mu

    def test_far_left_survival(self):
        # P(X* >= 5) at mu = -60: the terms peak near j = 1, far below the
        # Poisson mode at 60, and exp(-60) alone is 1e-26
        value = float(_survival_arr(5, np.array([-60.0]), 0.25)[0])
        ref = mp_mixture(5, *mp_lambdas(-60.0, 0.25))
        assert float(ref) == pytest.approx(5.63e-33, rel=1e-3)
        assert rel_err(value, ref) < 1e-14

    def test_zero_mass_at_large_mean(self):
        lam1, lam2 = mp_lambdas(40.0, 0.25)
        value = float(_cdf0_arr(np.array([40.0]), 0.25)[0])
        assert rel_err(value, mp_mixture(0, lam2, lam1)) < 1e-14

    @pytest.mark.parametrize("mu", [-3.0, 0.3, 6.0])
    def test_log_pmf(self, mu):
        xs = np.array([-30, -4, -1, 0, 1, 2, 9, 40])
        got = _log_pmf_arr(xs, np.full(xs.shape, mu), 0.25)
        lam1, lam2 = mp_lambdas(mu, 0.25)
        for x, value in zip(xs, got):
            ref = mp.log(mp_pmf(int(x), lam1, lam2))
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(float(ref)))


class TestNoncentralChisq:
    @pytest.mark.parametrize("nu", [1.0, 3.0, 7.0])
    @pytest.mark.parametrize("x, tau", [(0.5, 0.2), (4.0, 2.0), (30.0, 12.0), (60.0, 90.0), (1800.0, 1800.0)])
    def test_odd_degrees_of_freedom(self, nu, x, tau):
        ref = mp_mixture(nu / 2, x / 2, tau / 2)
        assert rel_err(noncentral_chisq_cdf(x, nu, tau), ref) <= 1e-15 * (1.0 + x + tau)


class TestCensoredMoments:
    @pytest.mark.parametrize("delta", DELTAS)
    def test_grid(self, delta):
        mean, second, variance, _ = _censored_moments_arr(np.array(MUS), delta)
        for i, mu in enumerate(MUS):
            ref_mean, ref_second = mp_censored_moments(mu, delta)
            ref_var = ref_second - ref_mean**2
            assert rel_err(mean[i], ref_mean) <= 1e-10, mu
            assert rel_err(second[i], ref_second) <= 1e-10, mu
            assert rel_err(variance[i], ref_var) <= 1e-10, mu

    def test_scalar_wrapper(self):
        cm = censored_moments(SkellamStar(-40.0, 0.25))
        ref_mean, ref_second = mp_censored_moments(-40.0, 0.25)
        assert rel_err(cm.mean, ref_mean) <= 1e-10
        assert rel_err(cm.variance, ref_second - ref_mean**2) <= 1e-10

    def test_poisson_boundary_array(self):
        mean, second, variance, zero = _censored_moments_arr(np.array([-2.0, 0.0, 3.0]), 0.0)
        assert mean.tolist() == [0.0, 0.0, 3.0]
        assert variance.tolist() == [0.0, 0.0, 3.0]
        assert second.tolist() == [0.0, 0.0, 12.0]
        assert zero.tolist() == [1.0, 1.0, math.exp(-3.0)]
