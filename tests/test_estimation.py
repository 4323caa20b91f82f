"""Tests for likelihood, analytic derivatives and the three estimators."""

import math

import numpy as np
import pytest

from tobitcount.diagnostics import information_criteria
from tobitcount.estimation import (
    EstimationScenario,
    analytic_score_hessian,
    fit_clade,
    fit_cls,
    fit_mle,
    information_matrices,
    loglik,
    mc_study,
    numerical_hessian,
)
from tobitcount.skellam import SkellamStar
from tobitcount.stingarch import (
    CountSeries,
    ModelSpec,
    conditional_pmf,
    simulate,
)

SC1 = EstimationScenario.fixed(0.25)
SC2 = EstimationScenario.free()


def fd_gradient(theta, series, orders, scenario, step=1e-5):
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = step * (1.0 + abs(theta[i]))
        up = loglik(theta + e, series, orders, scenario)
        down = loglik(theta - e, series, orders, scenario)
        grad[i] = (up - down) / (2.0 * e[i])
    return grad


@pytest.fixture(scope="module")
def series_10():
    spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
    return simulate(spec, 600, rng=np.random.default_rng(31))


@pytest.fixture(scope="module")
def series_11():
    spec = ModelSpec(alpha0=8.5, alphas=(-0.45,), betas=(-0.25,), delta=0.25)
    return simulate(spec, 600, rng=np.random.default_rng(32))


class TestLoglik:
    def test_iid_reduction(self):
        spec = ModelSpec(alpha0=5.0, delta=0.25)
        series = simulate(spec, 300, rng=np.random.default_rng(8))
        value = loglik(np.array([5.0]), series, (0, 0), SC1)
        direct = sum(
            math.log(conditional_pmf(int(x), 5.0, spec)) for x in series.counts
        )
        assert value == pytest.approx(direct, abs=1e-10)

    def test_single_positive_term_matches_pmf(self):
        # alpha0 + alpha1 * 4 = 2 so the only contributing term has M_2 = 2
        series = CountSeries(np.array([4, 3]))
        theta = np.array([4.0, -0.5])
        value = loglik(theta, series, (1, 0), SC1)
        from tobitcount.skellam import log_pmf

        expected = log_pmf(3, SkellamStar(2.0, 0.25).to_params())
        assert value == pytest.approx(expected, abs=1e-12)

    def test_single_zero_term_matches_cdf(self):
        from tobitcount.skellam import cdf

        series = CountSeries(np.array([4, 0]))
        theta = np.array([-2.0, -0.5])  # M_2 = -4
        value = loglik(theta, series, (1, 0), SC1)
        expected = math.log(cdf(0, SkellamStar(-4.0, 0.25).to_params()))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.0, abs=1e-2)  # nearly all mass at zero

    def test_requires_positive_delta(self):
        series = CountSeries(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            loglik(np.array([1.0, 0.2, -0.1]), series, (1, 0), SC2)
        with pytest.raises(ValueError):
            EstimationScenario.fixed(0.0)

    def test_storage_order_independence(self):
        # assembling theta from differently ordered pieces yields the same value
        series = CountSeries(np.array([2, 4, 1, 3, 5, 2, 0, 1]))
        pieces = {"alpha0": 1.2, "alpha1": 0.3, "beta1": -0.2}
        theta_a = np.array([pieces["alpha0"], pieces["alpha1"], pieces["beta1"]])
        shuffled = dict(sorted(pieces.items(), reverse=True))
        theta_b = np.array([shuffled["alpha0"], shuffled["alpha1"], shuffled["beta1"]])
        assert loglik(theta_a, series, (1, 1), SC1) == loglik(
            theta_b, series, (1, 1), SC1
        )


class TestAnalyticDerivatives:
    def _random_points(self, rng, order):
        # admissible points exercising both signs of M_t; exact knife edges
        # (M_t == 0) carry the genuine kink of the censored density and are
        # excluded by the resampling below
        if order == (1, 0):
            return np.array(
                [rng.uniform(3.0, 9.0), rng.uniform(-0.75, -0.35), rng.uniform(0.1, 1.5)]
            )
        return np.array(
            [
                rng.uniform(5.0, 9.0),
                rng.uniform(-0.6, -0.3),
                rng.uniform(-0.3, 0.25),
                rng.uniform(0.1, 1.5),
            ]
        )

    @pytest.mark.parametrize("order", [(1, 0), (1, 1)])
    def test_score_matches_finite_differences(self, order, series_10, series_11):
        from tobitcount.estimation import _mean_path

        series = series_10 if order == (1, 0) else series_11
        rng = np.random.default_rng(99)
        seen_negative = seen_positive = False
        checked = 0
        while checked < 20:
            theta = self._random_points(rng, order)
            m = _mean_path(theta[:-1], series, order[0], order[1], 0, SC1)
            if np.any(np.abs(m) < 1e-6):
                continue
            seen_negative |= bool(np.any(m < 0))
            seen_positive |= bool(np.any(m > 0))
            grad, _ = analytic_score_hessian(theta, series, order, SC2)
            fd = fd_gradient(theta, series, order, SC2)
            assert np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))) < 1e-4
            checked += 1
        assert seen_negative and seen_positive

    @pytest.mark.parametrize("order", [(1, 0), (1, 1)])
    def test_hessian_symmetric(self, order, series_10, series_11):
        series = series_10 if order == (1, 0) else series_11
        theta = (
            np.array([7.4, -0.45, 0.3])
            if order == (1, 0)
            else np.array([8.2, -0.4, -0.2, 0.3])
        )
        _, hess = analytic_score_hessian(theta, series, order, SC2)
        assert np.max(np.abs(hess - hess.T)) < 1e-8

    def test_hessian_matches_score_differences(self, series_10):
        theta = np.array([7.3, -0.47, 0.28])
        _, hess = analytic_score_hessian(theta, series_10, (1, 0), SC2)
        k = theta.shape[0]
        fd = np.zeros((k, k))
        for i in range(k):
            e = np.zeros(k)
            e[i] = 1e-6 * (1.0 + abs(theta[i]))
            gp, _ = analytic_score_hessian(theta + e, series_10, (1, 0), SC2)
            gm, _ = analytic_score_hessian(theta - e, series_10, (1, 0), SC2)
            fd[:, i] = (gp - gm) / (2.0 * e[i])
        assert np.max(np.abs(hess - fd) / (1.0 + np.abs(fd))) < 1e-5

    def test_bessel_derivative_subformula(self):
        # I'_n(z) = (n/z) I_n + I_{n+1} against finite differences
        from tobitcount.specialfn import log_bessel_i

        for n, z in [(3, 1.7), (8, 5.0), (1, 0.4)]:
            h = 1e-6 * max(1.0, z)
            fd = (
                math.exp(log_bessel_i(n, z + h)) - math.exp(log_bessel_i(n, z - h))
            ) / (2.0 * h)
            closed = (n / z) * math.exp(log_bessel_i(n, z)) + math.exp(
                log_bessel_i(n + 1, z)
            )
            assert closed == pytest.approx(fd, rel=1e-6)

    def test_numerical_hessian_matches_analytic(self, series_10):
        # generic point: (7.5, -0.5) would put an M_t exactly on the
        # censoring knife edge where the density is not differentiable
        theta = np.array([7.45, -0.49, 0.3])

        def fun(t):
            return loglik(t, series_10, (1, 0), SC2)

        analytic = analytic_score_hessian(theta, series_10, (1, 0), SC2)[1]
        numeric = numerical_hessian(fun, theta)
        assert np.max(np.abs(analytic - numeric) / (1.0 + np.abs(analytic))) < 1e-3

    def test_information_matrices_shapes(self, series_10):
        theta = np.array([7.5, -0.5, 0.25])
        u_hat, v_hat = information_matrices(theta, series_10, (1, 0), SC2)
        assert u_hat.shape == (3, 3) and v_hat.shape == (3, 3)
        assert np.allclose(v_hat, v_hat.T)
        assert np.all(np.linalg.eigvalsh(v_hat) > 0.0)
        # at the truth the two information estimates agree in order of magnitude
        ratio = np.diag(u_hat) / np.diag(v_hat)
        assert np.all(ratio > 0.3) and np.all(ratio < 3.0)


class TestInformationCriteria:
    def test_hand_computed_example(self):
        # 3 observations from the i.i.d. model, k = 1 free parameter
        series = CountSeries(np.array([4, 6, 5]))
        theta = np.array([5.0])
        ll = loglik(theta, series, (0, 0), SC1)
        aic, bic = information_criteria(ll, 1, 3)
        assert aic == pytest.approx(-2.0 * ll + 2.0)
        assert bic == pytest.approx(-2.0 * ll + math.log(3.0))

    def test_nested_difference(self):
        aic1, _ = information_criteria(-100.0, 3, 100)
        aic0, _ = information_criteria(-102.0, 2, 100)
        assert aic1 - aic0 == pytest.approx(-2.0 * 2.0 + 2.0)


class TestFitMle:
    def test_scenario1_recovery(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        series = simulate(spec, 1500, rng=np.random.default_rng(70))
        fit = fit_mle(series, (1, 0), SC1)
        assert fit.converged
        assert fit.hessian_invertible
        assert abs(fit.estimates[0] - 7.5) < 3.0 * fit.std_errors[0]
        assert abs(fit.estimates[1] + 0.5) < 3.0 * fit.std_errors[1]
        truth_ll = loglik(np.array([7.5, -0.5]), series, (1, 0), SC1)
        assert fit.loglik >= truth_ll - 1e-8
        assert fit.aic == pytest.approx(-2.0 * fit.loglik + 4.0)
        assert fit.bic == pytest.approx(
            -2.0 * fit.loglik + 2.0 * math.log(fit.n_effective)
        )

    def test_scenario2_recovers_delta(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=1.0)
        series = simulate(spec, 2000, rng=np.random.default_rng(71))
        fit = fit_mle(series, (1, 0), SC2)
        assert fit.param_names[-1] == "delta"
        assert abs(fit.estimates[-1] - 1.0) < 3.0 * max(fit.std_errors[-1], 0.1)

    def test_shorthand_scenarios(self):
        spec = ModelSpec(alpha0=5.0, delta=0.25)
        series = simulate(spec, 300, rng=np.random.default_rng(72))
        fit_fixed = fit_mle(series, (0, 0), 0.25)
        assert fit_fixed.method == "mle-s1"
        fit_free = fit_mle(series, (0, 0), None)
        assert fit_free.method == "mle-s2"

    def test_parametric_bootstrap_round(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        series = simulate(spec, 1000, rng=np.random.default_rng(73))
        fit = fit_mle(series, (1, 0), SC1)
        fitted_spec = fit.spec
        hits = 0
        reps = 20
        for i in range(reps):
            rng = np.random.default_rng(1000 + i)
            boot = simulate(fitted_spec, 1000, rng=rng, warn_nonstationary=False)
            refit = fit_mle(boot, (1, 0), SC1)
            if refit.std_errors is None:
                continue
            if np.all(
                np.abs(refit.estimates - fit.estimates) < 3.0 * refit.std_errors
            ):
                hits += 1
        assert hits >= int(0.95 * reps) - 1


class TestCensoredDeviationFits:
    def test_clade_constant_series_median_rule(self):
        series = CountSeries(np.full(50, 7))
        fit = fit_clade(series, (0, 0))
        assert fit.estimates[0] == pytest.approx(7.0)
        assert fit.objective == pytest.approx(0.0)
        assert fit.loglik is None and fit.aic is None

    def test_cls_location_is_mean(self):
        series = CountSeries(np.array([1, 2, 3, 6]))
        fit = fit_cls(series, (0, 0))
        assert fit.estimates[0] == pytest.approx(3.0)

    def test_recovery_on_simulated_path(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        series = simulate(spec, 1500, rng=np.random.default_rng(74))
        clade = fit_clade(series, (1, 0))
        cls_ = fit_cls(series, (1, 0))
        assert abs(clade.estimates[1] + 0.5) < 0.08
        assert abs(cls_.estimates[1] + 0.5) < 0.10
        assert abs(cls_.estimates[0] - 7.5) < 0.6

    def test_objective_value_reported(self):
        spec = ModelSpec(alpha0=5.0, alphas=(0.3,), delta=0.25)
        series = simulate(spec, 400, rng=np.random.default_rng(75))
        fit = fit_clade(series, (1, 0))
        x = series.counts[1:]
        m = fit.estimates[0] + fit.estimates[1] * series.counts[:-1]
        assert fit.objective == pytest.approx(
            float(np.abs(x - np.maximum(0.0, m)).sum()), rel=1e-9
        )


class TestMcStudy:
    def test_structure_and_determinism(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        first = mc_study(spec, n=300, replications=6, methods=("mle", "clade"), seed=5)
        second = mc_study(spec, n=300, replications=6, methods=("mle", "clade"), seed=5)
        assert np.array_equal(first.means["mle"], second.means["mle"])
        assert np.array_equal(first.simulated_se["clade"], second.simulated_se["clade"])
        assert first.failures == {"mle": 0, "clade": 0}
        assert first.optimizer_regressions == 0
        payload = first.to_dict()
        assert set(payload["methods"]) == {"mle", "clade"}

    def test_parallel_equals_serial(self):
        spec = ModelSpec(alpha0=5.0, alphas=(0.25,), delta=0.25)
        serial = mc_study(spec, n=200, replications=4, methods=("mle",), seed=9, jobs=1)
        parallel = mc_study(spec, n=200, replications=4, methods=("mle",), seed=9, jobs=2)
        assert np.array_equal(serial.means["mle"], parallel.means["mle"])
        assert np.array_equal(
            serial.mean_approx_se["mle"], parallel.mean_approx_se["mle"]
        )

    def test_unknown_method_rejected(self):
        spec = ModelSpec(alpha0=5.0, delta=0.25)
        with pytest.raises(ValueError):
            mc_study(spec, n=100, replications=2, methods=("bogus",))

    def test_scenario2_survives_log_delta_underflow(self):
        # on this replication Nelder-Mead drives log(delta) far below -745,
        # where exp() underflows to 0 and the likelihood is undefined
        spec = ModelSpec(alpha0=2.0, alphas=(0.4,), betas=(0.2,), delta=0.25)
        result = mc_study(
            spec, n=250, replications=1, methods=("mle",), scenario=None, seed=3234541379
        )
        assert result.failures == {"mle": 0}
        assert np.all(np.isfinite(result.means["mle"]))
        assert result.means["mle"][-1] > 0.0
