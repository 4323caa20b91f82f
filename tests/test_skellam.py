"""Tests for the Skellam distribution and its censored partial moments."""

import math

import numpy as np
import pytest

from tobitcount.skellam import (
    CensoredMoments,
    SkellamParams,
    SkellamStar,
    cdf,
    censored_moments,
    chernoff_tail_radius,
    pmf,
    sample,
    stein_lhs_rhs,
)

# e^-1 I_0(1) in 40-digit arithmetic
PMF0_HALF_HALF = 0.4657596075936404365
# (1/2) e^-1 (I_0(1) + I_1(1)): censored mean at mu=0, delta=1
CENSORED_MEAN_0_1 = 0.33683501147167444269


def brute_force_partial_moments(params: SkellamParams) -> tuple[float, float]:
    """Oracle: direct truncated sums of x^r pmf(x) over the positive axis."""
    radius = chernoff_tail_radius(params, eps=1e-13)
    xs = np.arange(1, radius + 1)
    probs = np.array([pmf(int(x), params) for x in xs])
    return float((xs * probs).sum()), float((xs**2 * probs).sum())


class TestParametrizations:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            SkellamParams(0.0, 1.0)
        with pytest.raises(ValueError):
            SkellamParams(1.0, -0.5)

    def test_mean_variance(self):
        params = SkellamParams(3.0, 1.0)
        assert params.mean == 2.0
        assert params.variance == 4.0
        assert params.variance > abs(params.mean)

    def test_star_reparametrization(self):
        star = SkellamStar(mu=-2.0, delta=0.5)
        params = star.to_params()
        assert params.lambda1 == pytest.approx(0.25)
        assert params.lambda2 == pytest.approx(2.25)
        assert params.mean == pytest.approx(star.mu)
        assert params.variance == pytest.approx(abs(star.mu) + star.delta)

    def test_star_boundary_has_no_params(self):
        with pytest.raises(ValueError):
            SkellamStar(1.0, 0.0).to_params()

    def test_star_validation(self):
        with pytest.raises(ValueError):
            SkellamStar(0.0, -0.1)


class TestPmf:
    def test_symmetric_value_at_zero(self):
        assert pmf(0, SkellamParams(0.5, 0.5)) == pytest.approx(
            PMF0_HALF_HALF, abs=1e-14
        )

    def test_symmetry_when_rates_equal(self):
        params = SkellamParams(1.3, 1.3)
        for x in range(1, 12):
            assert pmf(-x, params) == pytest.approx(pmf(x, params), rel=1e-13)

    def test_negation_identity(self):
        params = SkellamParams(2.0, 1.0)
        assert pmf(-2, params) == pytest.approx(pmf(2, params) / 4.0, rel=1e-12)
        for x in range(1, 31):
            lhs = pmf(-x, params)
            rhs = (params.lambda2 / params.lambda1) ** x * pmf(x, params)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_three_term_recurrence(self):
        params = SkellamParams(2.0, 1.0)
        for x in range(1, 31):
            lhs = pmf(x + 1, params)
            rhs = (params.lambda1 / params.lambda2) * pmf(x - 1, params) - (
                x / params.lambda2
            ) * pmf(x, params)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_total_mass(self):
        params = SkellamParams(4.0, 0.7)
        radius = chernoff_tail_radius(params)
        total = sum(pmf(x, params) for x in range(-radius, radius + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestCdf:
    def test_symmetric_zero_value(self):
        params = SkellamParams(0.5, 0.5)
        assert cdf(0, params) == pytest.approx((1.0 + pmf(0, params)) / 2.0, abs=1e-13)

    def test_cdf_pmf_consistency(self):
        params = SkellamParams(2.0, 1.0)
        for x in range(-10, 11):
            diff = cdf(x, params) - cdf(x - 1, params)
            assert diff == pytest.approx(pmf(x, params), abs=1e-10)

    def test_far_left_tail(self):
        assert cdf(-50, SkellamParams(1.0, 1.0)) < 1e-12

    @pytest.mark.parametrize("lam1", [0.05, 0.8, 5.0, 20.0])
    @pytest.mark.parametrize("lam2", [0.1, 2.0, 12.0])
    def test_matches_pmf_partial_sums(self, lam1, lam2):
        params = SkellamParams(lam1, lam2)
        radius = max(60, chernoff_tail_radius(params))
        probs = {x: pmf(x, params) for x in range(-radius, 16)}
        running = 0.0
        for x in range(-radius, 16):
            running += probs[x]
            if -12 <= x <= 15:
                assert cdf(x, params) == pytest.approx(running, abs=1e-10)

    def test_limits(self):
        params = SkellamParams(3.0, 2.0)
        assert cdf(60, params) == pytest.approx(1.0, abs=1e-12)
        assert cdf(-60, params) == pytest.approx(0.0, abs=1e-12)


class TestSampling:
    def test_symmetric_mean(self):
        rng = np.random.default_rng(101)
        draws = sample(SkellamParams(0.5, 0.5), rng, size=1_000_000)
        se = math.sqrt(1.0 / 1_000_000)
        assert abs(draws.mean()) < 4.0 * se

    def test_variance(self):
        rng = np.random.default_rng(202)
        draws = sample(SkellamParams(3.0, 1.0), rng, size=1_000_000)
        # var(s^2) ~ (mu4 - sigma^4)/n with Skellam mu4 = 3 sigma^4 + sigma^2
        se = math.sqrt((2 * 16.0 + 4.0) / 1_000_000)
        assert abs(draws.var() - 4.0) < 4.0 * se

    def test_pmf_frequency(self):
        rng = np.random.default_rng(303)
        params = SkellamParams(0.5, 0.5)
        draws = sample(params, rng, size=1_000_000)
        p0 = pmf(0, params)
        se = math.sqrt(p0 * (1 - p0) / 1_000_000)
        assert abs((draws == 0).mean() - p0) < 4.0 * se

    def test_scalar_draw(self):
        rng = np.random.default_rng(1)
        value = sample(SkellamParams(1.0, 1.0), rng)
        assert isinstance(value, int)


class TestSteinIdentity:
    def test_indicator(self):
        params = SkellamParams(2.0, 1.0)
        radius = chernoff_tail_radius(params, eps=1e-14)
        lhs, rhs = stein_lhs_rhs(lambda x: 1.0 if x >= 1 else 0.0, params, radius)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_constant_function_gives_mean(self):
        params = SkellamParams(2.0, 1.0)
        radius = chernoff_tail_radius(params, eps=1e-14)
        lhs, rhs = stein_lhs_rhs(lambda x: 1.0, params, radius)
        assert lhs == pytest.approx(params.mean, abs=1e-10)
        assert rhs == pytest.approx(params.mean, abs=1e-12)

    def test_linear_indicator(self):
        params = SkellamParams(1.0, 2.0)
        radius = chernoff_tail_radius(params, eps=1e-14)
        lhs, rhs = stein_lhs_rhs(lambda x: x if x >= 1 else 0.0, params, radius)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: 1.0 if x >= 1 else 0.0,
            lambda x: 1.0 if x >= 0 else 0.0,
            lambda x: 1.0 if x >= 2 else 0.0,
            lambda x: x if x >= 1 else 0.0,
        ],
    )
    def test_proof_test_functions(self, f):
        params = SkellamParams(1.7, 0.6)
        radius = chernoff_tail_radius(params, eps=1e-14)
        lhs, rhs = stein_lhs_rhs(f, params, radius)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_insufficient_radius_raises(self):
        with pytest.raises(ValueError, match="tail mass"):
            stein_lhs_rhs(lambda x: 1.0, SkellamParams(8.0, 8.0), 3)


class TestCensoredMoments:
    def test_symmetric_example(self):
        cm = censored_moments(SkellamStar(0.0, 1.0))
        assert cm.mean == pytest.approx(CENSORED_MEAN_0_1, abs=1e-13)
        assert cm.second_moment == pytest.approx(0.5, abs=1e-13)
        assert cm.variance == pytest.approx(0.5 - CENSORED_MEAN_0_1**2, abs=1e-12)

    def test_degenerate_limit(self):
        cm = censored_moments(SkellamStar(0.0, 1e-9))
        assert cm.mean < 1e-8
        assert cm.variance < 1e-8

    def test_against_brute_force_single(self):
        star = SkellamStar(5.0, 0.25)
        cm = censored_moments(star)
        mean_bf, second_bf = brute_force_partial_moments(star.to_params())
        assert cm.mean == pytest.approx(mean_bf, rel=1e-10)
        assert cm.second_moment == pytest.approx(second_bf, rel=1e-10)

    @pytest.mark.parametrize("mu", [-10.0, -5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 10.0])
    @pytest.mark.parametrize("delta", [0.01, 0.25, 0.5, 1.0, 4.0])
    def test_against_brute_force_grid(self, mu, delta):
        star = SkellamStar(mu, delta)
        cm = censored_moments(star)
        mean_bf, second_bf = brute_force_partial_moments(star.to_params())
        assert cm.mean == pytest.approx(mean_bf, rel=1e-9)
        assert cm.second_moment == pytest.approx(second_bf, rel=1e-9)

    def test_mean_positive_and_monotone_in_mu(self):
        for delta in (0.01, 0.25, 1.0, 4.0):
            previous = -1.0
            for mu in np.linspace(-8.0, 8.0, 33):
                cm = censored_moments(SkellamStar(float(mu), delta))
                assert cm.mean > 0.0
                assert cm.mean >= previous - 1e-12
                previous = cm.mean

    def test_poisson_boundary(self):
        cm = censored_moments(SkellamStar(3.0, 0.0))
        assert cm.mean == pytest.approx(3.0)
        assert cm.variance == pytest.approx(3.0)
        assert cm.prob_zero_or_less == pytest.approx(math.exp(-3.0))
        cm_neg = censored_moments(SkellamStar(-2.0, 0.0))
        assert cm_neg.mean == 0.0 and cm_neg.prob_zero_or_less == 1.0

    def test_prob_zero_or_less_matches_cdf(self):
        star = SkellamStar(1.5, 0.7)
        cm = censored_moments(star)
        assert cm.prob_zero_or_less == pytest.approx(
            cdf(0, star.to_params()), abs=1e-12
        )


class TestVectorizedHelpers:
    def test_chernoff_radius_bounds_tail(self):
        for lam1, lam2 in ((0.5, 0.5), (6.0, 1.0), (0.2, 9.0)):
            params = SkellamParams(lam1, lam2)
            radius = chernoff_tail_radius(params, eps=1e-13)
            inside = sum(pmf(x, params) for x in range(-radius, radius + 1))
            assert 1.0 - inside < 1e-12
