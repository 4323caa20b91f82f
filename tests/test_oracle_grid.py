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

from tobitcount.estimation import _per_term_derivs
from tobitcount.skellam import (
    SkellamStar,
    _cdf0_arr,
    _censored_moments_arr,
    _log_pmf_arr,
    _survival_arr,
    cdf,
    censored_moments,
)
from tobitcount.specialfn import _log_bessel_i_arr, _poisson_mixture, noncentral_chisq_cdf

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


def mp_log_term(x, mu, delta, bound=None):
    """``ln Q``: ``Q = p(x)`` for a positive count, ``Q = P(X* <= 0)`` for a
    zero and ``Q = P(X* >= N)`` for a count at the bound ``N``."""
    lam1, lam2 = mp_lambdas(mu, delta)
    if x == bound:
        return mp.log(mp_mixture(x, lam1, lam2))
    return mp.log(mp_pmf(x, lam1, lam2) if x > 0 else mp_mixture(0, lam2, lam1))


def mp_term_derivs(x, mu, delta, bound=None):
    """``(g_m, g_d, h_mm, h_dd, h_md)`` of ``ln Q`` from the Skellam difference
    identities ``dp(x)/dlambda1 = p(x-1) - p(x)``, ``dp(x)/dlambda2 = p(x+1) - p(x)``,
    summed over ``Q``'s interval: ``[x, x]``, ``(-inf, 0]`` or ``[N, inf)``."""
    lam1, lam2 = mp_lambdas(mu, delta)
    p = {k: mp_pmf(x + k, lam1, lam2) for k in range(-2, 3)}
    if x == bound:
        q = mp_mixture(x, lam1, lam2)
        q1, q2 = p[-1], -p[0]
        q11, q12, q22 = p[-2] - p[-1], p[0] - p[-1], p[0] - p[1]
    elif x > 0:
        q = p[0]
        q1, q2 = p[-1] - p[0], p[1] - p[0]
        q11 = p[-2] - 2 * p[-1] + p[0]
        q12 = 2 * p[0] - p[-1] - p[1]
        q22 = p[0] - 2 * p[1] + p[2]
    else:
        q = mp_mixture(0, lam2, lam1)
        q1, q2 = -p[0], p[1]
        q11, q12, q22 = p[0] - p[-1], p[0] - p[1], p[2] - p[1]
    g1, g2 = q1 / q, q2 / q
    h11, h12, h22 = q11 / q - g1 * g1, q12 / q - g1 * g2, q22 / q - g2 * g2
    g_d, h_dd = (g1 + g2) / 2, (h11 + 2 * h12 + h22) / 4
    if mu >= 0:
        return g1, g_d, h11, h_dd, (h11 + h12) / 2
    return -g2, g_d, h22, h_dd, -(h12 + h22) / 2


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

    # both sides of z = 830 ln 2 (about 575), past which the recurrence
    # rescales its running total
    @pytest.mark.parametrize(
        "z", [1e-5, 0.3, 1.0, 7.5, 40.0, 150.0, 599.0, 601.0, 1200.0, 5000.0]
    )
    def test_orders_0_to_200(self, z):
        got = _log_bessel_i_arr(self.ORDERS, np.full(self.ORDERS.shape, z))
        for n, value in zip(self.ORDERS, got):
            ref = mp.log(mp.besseli(int(n), z))
            assert abs(value - ref) <= 1e-14 * max(1.0, abs(float(ref)))

    # up to the kernel's term bound near z = 1.25e5, rescaled about 200 times
    @pytest.mark.parametrize("z", [5e4, 1.2e5])
    def test_rescaled_orders_0_to_3000(self, z):
        orders = np.array([0, 1, 2, 60, 200, 1000, 3000])
        got = _log_bessel_i_arr(orders, np.full(orders.shape, z))
        # mpmath's besseli takes minutes at order 3000 here, so the orders
        # come from I_{k+1} = I_{k-1} - (2k / z) I_k upward from I_0 and I_1:
        # the recurrence loses about 33 digits by order 3000 of the 120 kept
        refs = {}
        with mp.workdps(120):
            below, here = mp.besseli(0, z), mp.besseli(1, z)
            refs[0] = mp.log(below)
            for k in range(1, int(orders.max()) + 1):
                refs[k] = mp.log(here)
                below, here = here, below - (2 * k / mp.mpf(z)) * here
        for n, value in zip(orders, got):
            ref = refs[int(n)]
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

    @pytest.mark.parametrize("delta", [0.01, 0.25, 1.0, 2.0])
    def test_zero_mass_is_a_probability(self, delta):
        # the mixture sum rounds up to 1 + 6.7e-16 for means near -31 .. -78
        got = _cdf0_arr(np.linspace(-80.0, 5.0, 8501), delta)
        assert np.all(got >= 0.0) and np.all(got <= 1.0)

    def test_public_cdf_is_a_probability(self):
        # the mixture sum rounds up to 1 + 4.4e-16 at some means
        for mu in np.linspace(-100.0, 0.0, 2001):
            assert 0.0 <= cdf(0, SkellamStar(mu, 0.25).to_params()) <= 1.0, mu

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

    # ln x! past the Bessel kernel's running-sum table comes from gammaln; the
    # table's drift alone would reach 4x this tolerance at 1e5 and 310x at
    # 1e6.  From about 3e6 on, rounding x/2 ln(lambda1/lambda2) - lambda1
    # costs about 2e-9 by itself, so the grid stops at 1e6
    @pytest.mark.parametrize("x", [10_000, 65_536, 100_000, 1_000_000])
    def test_log_pmf_at_large_counts(self, x):
        got = _log_pmf_arr(np.array([x]), np.array([float(x)]), 2.0)[0]
        ref = mp.log(mp_pmf(x, *mp_lambdas(x, 2.0)))
        assert abs(got - ref) <= 1e-10 * (1.0 + abs(float(ref)))


class TestNoncentralChisq:
    @pytest.mark.parametrize("nu", [1.0, 3.0, 7.0])
    @pytest.mark.parametrize("x, tau", [(0.5, 0.2), (4.0, 2.0), (30.0, 12.0), (60.0, 90.0), (1800.0, 1800.0)])
    def test_odd_degrees_of_freedom(self, nu, x, tau):
        ref = mp_mixture(nu / 2, x / 2, tau / 2)
        assert rel_err(noncentral_chisq_cdf(x, nu, tau), ref) <= 1e-15 * (1.0 + x + tau)

    # one chunk holds windows starting at j = 0 and at j = 22, which share a
    # ln k! table indexed from the chunk's lowest window index
    @pytest.mark.parametrize("nu", [1.0, 3.0, 7.0])
    def test_odd_degrees_of_freedom_in_one_chunk(self, nu):
        x = np.array([0.5, 60.0, 300.0])
        tau = np.array([0.2, 90.0, 300.0])
        got = _poisson_mixture(nu / 2, x / 2, tau / 2)
        for value, xi, ti in zip(got, x, tau):
            ref = mp_mixture(nu / 2, xi / 2, ti / 2)
            assert rel_err(value, ref) <= 1e-15 * (1.0 + xi + ti)


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


class TestTermDerivatives:
    """Derivatives of each log-likelihood term in ``(m, delta)``.

    The tolerance is ``1e-10 (1 + |v|)``: small dispersions make the
    derivatives large, and a Bessel-ratio form of them loses digits there
    (2e-10 at ``x = 7, m = 7.3, delta = 0.01`` and 9e-8 in ``h_dd`` at
    ``x = 60, m = 20``).
    """

    XS = [0, 1, 2, 5, 7, 20, 60]
    MUS = [-30.0, -3.0, -0.2, 0.2, 3.0, 7.3, 20.0, 40.0]

    def assert_close(self, got, ref, where):
        for name, value, exact in zip(("g_m", "g_d", "h_mm", "h_dd", "h_md"), got, ref):
            err = float(abs(mp.mpf(float(value)) - exact))
            assert err <= 1e-10 * (1.0 + abs(float(exact))), (where, name)

    @pytest.mark.parametrize("delta", [0.01, 0.25, 2.0])
    def test_grid(self, delta):
        xs = np.repeat(self.XS, len(self.MUS))
        mus = np.tile(self.MUS, len(self.XS))
        got = _per_term_derivs(xs, mus, delta)
        for i, (x, mu) in enumerate(zip(xs, mus)):
            ref = mp_term_derivs(int(x), float(mu), delta)
            self.assert_close([g[i] for g in got], ref, (int(x), float(mu)))

    @pytest.mark.parametrize("bound", [1, 2, 5])
    @pytest.mark.parametrize("delta", [0.01, 0.25, 2.0])
    def test_bound_grid(self, delta, bound):
        # every count 0..N under the bound: only the count at N changes cell
        xs = np.repeat(np.arange(bound + 1), len(self.MUS))
        mus = np.tile(self.MUS, bound + 1)
        got = _per_term_derivs(xs, mus, delta, bound)
        for i, (x, mu) in enumerate(zip(xs, mus)):
            ref = mp_term_derivs(int(x), float(mu), delta, bound)
            self.assert_close([g[i] for g in got], ref, (int(x), float(mu)))
            q = mp.exp(mp_log_term(int(x), float(mu), delta, bound))
            assert rel_err(math.exp(got[5][i]), q) <= tail_tol(mu, delta, q)

    def check_identities(self, x, mu, delta, bound=None):
        ref = mp_term_derivs(x, mu, delta, bound)
        orders = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
        for exact, order in zip(ref, orders):
            numeric = mp.diff(lambda m, d: mp_log_term(x, m, d, bound), (mu, delta), order)
            assert abs(exact - numeric) <= mp.mpf(10) ** -30 * (1 + abs(exact))
        got = _per_term_derivs(np.array([x]), np.array([mu]), delta, bound)
        self.assert_close([g[0] for g in got], ref, (x, mu))

    @pytest.mark.parametrize(
        "x, mu, delta", [(7, 7.3, 0.01), (60, 20.0, 0.01), (0, 20.0, 0.1), (0, -3.0, 0.25)]
    )
    def test_identities_match_numerical_derivatives(self, x, mu, delta):
        self.check_identities(x, mu, delta)

    @pytest.mark.parametrize(
        "x, mu, delta", [(1, -3.0, 0.25), (2, 0.2, 0.01), (5, 7.3, 2.0), (5, -0.2, 0.25)]
    )
    def test_bound_identities_match_numerical_derivatives(self, x, mu, delta):
        # the count sits at the bound N = x
        self.check_identities(x, mu, delta, bound=x)
