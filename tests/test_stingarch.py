"""Tests for the STINGARCH process layer."""

import math

import numpy as np
import pytest

from tobitcount.skellam import SkellamStar, censored_moments
from tobitcount.stingarch import (
    CountSeries,
    ModelSpec,
    check_stationarity,
    conditional_mean_path,
    conditional_pmf,
    exact_moments_stinarch1,
    linear_approx_moments,
    pacf_from_acf,
    simulate,
    simulated_moments,
)


class TestSpecValidation:
    def test_orders(self):
        spec = ModelSpec(alpha0=1.0, alphas=(0.2, 0.1), betas=(0.3,), delta=0.25)
        assert (spec.p, spec.q, spec.r) == (2, 1, 0)

    def test_kappa_requires_bound(self):
        with pytest.raises(ValueError):
            ModelSpec(alpha0=1.0, kappa=0.1)
        ModelSpec(alpha0=1.0, bound=5, kappa=0.1)

    def test_integer_intercept_is_coerced(self):
        spec = ModelSpec(alpha0=20)
        assert isinstance(spec.alpha0, float)
        path = conditional_mean_path(spec, CountSeries(np.array([1, 0, 4])))
        assert np.array_equal(path, np.full(4, 20.0))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(alpha0=1.0, delta=-0.1)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            CountSeries(np.array([1, -2, 3]))
        with pytest.raises(ValueError):
            CountSeries(np.array([1.5, 2.0]))
        with pytest.raises(ValueError):
            CountSeries(np.array([1, 2]), covariates=np.zeros((3, 1)))


class TestStationarity:
    def test_negative_coefficient_ignored(self):
        check = check_stationarity(ModelSpec(alpha0=1.0, alphas=(-0.75,)))
        assert check.is_stationary and check.margin == pytest.approx(1.0)

    def test_mixed_orders(self):
        spec = ModelSpec(alpha0=1.0, alphas=(0.45,), betas=(-0.25,))
        check = check_stationarity(spec)
        assert check.is_stationary and check.margin == pytest.approx(0.30)

    def test_boundary_excluded(self):
        check = check_stationarity(ModelSpec(alpha0=1.0, alphas=(1.0,)))
        assert not check.is_stationary
        assert check.margin == pytest.approx(0.0)


class TestConditionalMeanPath:
    def test_no_dynamics_constant(self):
        spec = ModelSpec(alpha0=2.5, delta=0.25)
        path = conditional_mean_path(spec, CountSeries(np.array([1, 0, 4])))
        assert np.allclose(path, 2.5)
        assert path.shape == (4,)  # includes the one-step-ahead mean

    def test_first_order_recursion(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        path = conditional_mean_path(spec, CountSeries(np.array([4, 20])))
        assert path[0] == pytest.approx(7.5)  # initialization value
        assert path[1] == pytest.approx(5.5)
        assert path[2] == pytest.approx(-2.5)

    def test_feedback_initialization(self):
        spec = ModelSpec(alpha0=1.5, alphas=(0.25,), betas=(0.45,), delta=0.25)
        series = CountSeries(np.array([3, 5, 2]))
        path = conditional_mean_path(spec, series)
        m1 = 1.5
        m2 = 1.5 + 0.25 * 3 + 0.45 * m1
        m3 = 1.5 + 0.25 * 5 + 0.45 * m2
        m4 = 1.5 + 0.25 * 2 + 0.45 * m3
        assert np.allclose(path, [m1, m2, m3, m4])

    def test_unconditional_initialization(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        path = conditional_mean_path(
            spec, CountSeries(np.array([4, 20])), m_init="unconditional"
        )
        assert path[0] == pytest.approx(5.0)

    def test_covariates_enter_additively(self):
        spec = ModelSpec(alpha0=1.0, delta=0.25, gammas=(2.0,))
        series = CountSeries(np.array([1, 2, 0]), covariates=np.array([[1.0], [0.0], [1.0]]))
        path = conditional_mean_path(spec, series)
        assert np.allclose(path, [3.0, 1.0, 3.0])
        assert path.shape == (3,)  # no forecast without the next covariate row


class TestConditionalPmf:
    @pytest.mark.parametrize("m", [-3.0, 0.0, 5.0])
    def test_normalization(self, m):
        spec = ModelSpec(alpha0=1.0, delta=0.25)
        radius = int(abs(m) + 12 * math.sqrt(abs(m) + 1) + 25)
        total = sum(conditional_pmf(x, m, spec) for x in range(radius))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_zero_probability(self):
        # (1 + e^-1 I_0(1)) / 2, frozen from 40-digit arithmetic
        spec = ModelSpec(alpha0=1.0, delta=1.0)
        assert conditional_pmf(0, 0.0, spec) == pytest.approx(
            0.73287980379682021825, abs=1e-13
        )

    def test_deep_censoring_keeps_positive_mean(self):
        spec = ModelSpec(alpha0=1.0, delta=0.25)
        assert conditional_pmf(0, -10.0, spec) > 0.999
        cm = censored_moments(SkellamStar(-10.0, 0.25))
        assert cm.mean > 0.0

    def test_poisson_boundary(self):
        spec = ModelSpec(alpha0=1.0, delta=0.0)
        assert conditional_pmf(2, 3.0, spec) == pytest.approx(
            math.exp(-3.0) * 9.0 / 2.0
        )
        assert conditional_pmf(0, -1.0, spec) == 1.0
        assert conditional_pmf(3, -1.0, spec) == 0.0

    def test_rejects_negative_counts_and_bounded_specs(self):
        spec = ModelSpec(alpha0=1.0, delta=0.25)
        with pytest.raises(ValueError):
            conditional_pmf(-1, 0.0, spec)
        with pytest.raises(ValueError):
            conditional_pmf(0, 0.0, ModelSpec(alpha0=1.0, delta=0.25, bound=5))


class TestSimulate:
    def test_iid_case_uncorrelated(self):
        from tobitcount.diagnostics import sample_acf

        spec = ModelSpec(alpha0=5.0, delta=0.25)
        series = simulate(spec, 100_000, burn_in=100, rng=np.random.default_rng(1))
        assert abs(sample_acf(series.counts, 1)[0]) < 4.0 / math.sqrt(100_000)

    def test_nonnegative_and_bounded(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        series = simulate(spec, 20_000, rng=np.random.default_rng(2))
        assert series.counts.min() >= 0
        bounded = ModelSpec(
            alpha0=0.8, alphas=(0.7,), betas=(-0.13,), delta=0.01, bound=5, kappa=0.12
        )
        series_b = simulate(bounded, 20_000, rng=np.random.default_rng(3))
        assert series_b.counts.min() >= 0 and series_b.counts.max() <= 5

    def test_seeded_determinism(self):
        spec = ModelSpec(alpha0=2.0, alphas=(0.3,), delta=0.25)
        a = simulate(spec, 500, rng=np.random.default_rng(42))
        b = simulate(spec, 500, rng=np.random.default_rng(42))
        assert np.array_equal(a.counts, b.counts)

    def test_nonstationary_warns(self):
        spec = ModelSpec(alpha0=1.0, alphas=(1.2,), delta=0.25)
        with pytest.warns(UserWarning):
            simulate(spec, 50, burn_in=0, rng=np.random.default_rng(4))

    def test_param_validation(self):
        spec = ModelSpec(alpha0=1.0, delta=0.25)
        with pytest.raises(ValueError):
            simulate(spec, 0)


class TestExactMoments:
    def test_negative_dependence_row(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        summary = exact_moments_stinarch1(spec)
        assert summary.mean == pytest.approx(5.002, abs=1e-3)
        assert summary.dispersion_ratio == pytest.approx(1.391, abs=1e-3)
        assert summary.pacf[0] == pytest.approx(-0.498, abs=1e-3)
        assert abs(summary.pacf[1]) < 5e-4

    def test_positive_dependence_row(self):
        spec = ModelSpec(alpha0=1.25, alphas=(0.75,), delta=0.25)
        summary = exact_moments_stinarch1(spec)
        assert summary.mean == pytest.approx(5.020, abs=1e-3)
        assert summary.dispersion_ratio == pytest.approx(2.372, abs=1e-3)
        assert summary.pacf[0] == pytest.approx(0.748, abs=1e-3)

    def test_higher_mean_row(self):
        spec = ModelSpec(alpha0=17.5, alphas=(-0.75,), delta=0.25)
        summary = exact_moments_stinarch1(spec)
        assert summary.mean == pytest.approx(10.005, abs=1e-3)
        assert summary.dispersion_ratio == pytest.approx(2.297, abs=1e-3)
        assert summary.pacf[0] == pytest.approx(-0.744, abs=1e-3)

    def test_state_cap_invariance(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        base = exact_moments_stinarch1(spec)
        doubled = exact_moments_stinarch1(spec, state_cap=120)
        assert base.mean == pytest.approx(doubled.mean, abs=1e-10)
        assert base.dispersion_ratio == pytest.approx(doubled.dispersion_ratio, abs=1e-10)
        assert np.allclose(base.acf, doubled.acf, atol=1e-10)

    def test_requires_first_order_autoregression(self):
        with pytest.raises(ValueError):
            exact_moments_stinarch1(
                ModelSpec(alpha0=1.0, alphas=(0.2,), betas=(0.3,), delta=0.25)
            )
        with pytest.raises(ValueError):
            exact_moments_stinarch1(ModelSpec(alpha0=1.0, alphas=(1.1,), delta=0.25))


class TestLinearApproxMoments:
    def test_first_order_row(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        summary = linear_approx_moments(spec)
        assert summary.mean == pytest.approx(5.000, abs=1e-3)
        assert summary.dispersion_ratio == pytest.approx(1.397, abs=1e-3)
        assert summary.pacf[0] == pytest.approx(-0.5)
        assert summary.pacf[1] == pytest.approx(0.0, abs=1e-12)

    def test_feedback_row(self):
        spec = ModelSpec(alpha0=8.5, alphas=(-0.45,), betas=(-0.25,), delta=0.25)
        summary = linear_approx_moments(spec)
        assert summary.mean == pytest.approx(5.000, abs=1e-3)
        assert summary.dispersion_ratio == pytest.approx(1.464, abs=1e-3)
        assert summary.acf[0] == pytest.approx(-0.521, abs=1e-3)
        assert summary.acf[1] == pytest.approx(0.365, abs=1e-3)
        assert summary.acf[2] == pytest.approx(-0.255, abs=1e-3)

    def test_no_dependence_returns_censored_mean(self):
        spec = ModelSpec(alpha0=5.0, alphas=(0.0,), delta=0.25)
        summary = linear_approx_moments(spec)
        cm = censored_moments(SkellamStar(5.0, 0.25))
        assert summary.mean == pytest.approx(cm.mean, rel=1e-12)
        assert np.allclose(summary.acf, 0.0)

    def test_poisson_boundary_dispersion(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.0)
        summary = linear_approx_moments(spec)
        assert summary.dispersion_ratio == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-3)

    def test_unsupported_orders(self):
        with pytest.raises(ValueError):
            linear_approx_moments(
                ModelSpec(alpha0=1.0, alphas=(0.1, 0.1), delta=0.25)
            )


class TestSimulatedMoments:
    def test_matches_exact_markov(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        exact = exact_moments_stinarch1(spec)
        sim = simulated_moments(spec, 300_000, rng=np.random.default_rng(9))
        assert sim.mean == pytest.approx(exact.mean, abs=0.02)
        assert sim.pacf[0] == pytest.approx(exact.pacf[0], abs=0.01)

    def test_white_noise(self):
        spec = ModelSpec(alpha0=5.0, delta=0.25)
        sim = simulated_moments(spec, 100_000, rng=np.random.default_rng(10))
        assert np.all(np.abs(sim.acf) < 4.0 / math.sqrt(100_000))


class TestPacfFromAcf:
    def test_ar1_structure(self):
        acf = 0.6 ** np.arange(1, 6)
        pacf = pacf_from_acf(acf)
        assert pacf[0] == pytest.approx(0.6)
        assert np.allclose(pacf[1:], 0.0, atol=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5000)
        from tobitcount.diagnostics import sample_acf

        pacf = pacf_from_acf(sample_acf(x, 10))
        assert np.all(np.abs(pacf) <= 1.0)
