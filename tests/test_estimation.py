"""Tests for likelihood, analytic derivatives and the three estimators."""

import math
import re

import numpy as np
import pytest
from scipy import optimize

from tobitcount import cli, estimation, skellam
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
from tobitcount.extensions import fit_stbingarch_mle
from tobitcount.skellam import SkellamStar
from tobitcount.specialfn import PrecisionError
from tobitcount.stingarch import (
    CountSeries,
    ModelSpec,
    _mean_kernel,
    conditional_mean_path,
    conditional_pmf,
    simulate,
)

from _helpers import hook_likelihood

SC1 = EstimationScenario.fixed(0.25)
SC2 = EstimationScenario.free()


def _raising_derivatives(theta):
    raise ArithmeticError("no analytic derivatives")


# the fit driver's derivatives and kink rule for an objective without
# derivatives: both Newton stages raise and the stencil gives the Hessian
RAISING_DERIVATIVES = {"derivatives": _raising_derivatives, "kink_free": lambda theta: True}


def _mean_path(theta_dyn, series, p, q, r):
    """``M_1..M_n`` of the dynamics block from a fresh mean kernel."""
    return _mean_kernel(series, p, q, r).means(theta_dyn)


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


def _stencil_crosses_kink(theta, series, p, q, r, step=1e-5):
    """True when some ``M_t`` changes sign inside :func:`fd_gradient`'s stencil.

    The censored density has a kink at ``M_t = 0``, where a central
    difference does not estimate the derivative.  delta does not move M.
    """
    dyn = np.asarray(theta[: 1 + p + q + r], dtype=float)
    for i in range(dyn.shape[0]):
        e = np.zeros_like(dyn)
        e[i] = step * (1.0 + abs(dyn[i]))
        up = _mean_path(dyn + e, series, p, q, r)
        down = _mean_path(dyn - e, series, p, q, r)
        if np.any((up >= 0.0) != (down >= 0.0)):
            return True
    return False


@pytest.fixture(scope="module")
def series_10():
    spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
    return simulate(spec, 600, rng=np.random.default_rng(31))


@pytest.fixture(scope="module")
def series_11():
    spec = ModelSpec(alpha0=8.5, alphas=(-0.45,), betas=(-0.25,), delta=0.25)
    return simulate(spec, 600, rng=np.random.default_rng(32))


@pytest.fixture(scope="module")
def bounded_11():
    spec = ModelSpec(alpha0=1.0, alphas=(0.3,), betas=(0.3,), delta=0.01, bound=5, kappa=0.1)
    return simulate(spec, 300, rng=np.random.default_rng(33))


@pytest.fixture(scope="module")
def series_by_order(series_10, series_11):
    """A simulated series for every order the derivative tests cover.

    (2,2) exercises the beta x beta block of d2M, (2,1) the rows pinned
    when p != q, and (1,1,1) the covariate columns.
    """
    z = np.random.default_rng(35).standard_normal((600, 1))
    return {
        (1, 0): series_10,
        (1, 1): series_11,
        (2, 1): simulate(
            ModelSpec(alpha0=8.5, alphas=(-0.4, -0.1), betas=(-0.2,), delta=0.25),
            600,
            rng=np.random.default_rng(33),
        ),
        (2, 2): simulate(
            ModelSpec(alpha0=8.5, alphas=(-0.4, -0.1), betas=(-0.2, 0.1), delta=0.25),
            600,
            rng=np.random.default_rng(34),
        ),
        (1, 1, 1): simulate(
            ModelSpec(
                alpha0=8.5, alphas=(-0.45,), betas=(-0.25,), gammas=(0.8,), delta=0.25
            ),
            600,
            rng=np.random.default_rng(36),
            covariates=z,
        ),
    }


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

    @pytest.mark.parametrize("function", [loglik, analytic_score_hessian, information_matrices])
    def test_series_no_longer_than_the_prefix_is_refused(self, function):
        # the likelihood, its score and the information matrices share the check
        with pytest.raises(ValueError, match="series shorter than the conditioning prefix"):
            function(np.array([1.0, 0.2]), CountSeries(np.array([3])), (1, 0), SC1)

    @pytest.mark.parametrize("function", [loglik, analytic_score_hessian, information_matrices])
    @pytest.mark.parametrize(
        "bound, kappa, message",
        [
            (5, 0.1, "series exceeds the declared bound"),
            (0, 0.1, "bound must be a positive integer"),
            (10, -0.2, "0 <= kappa <= 1"),
        ],
    )
    def test_bounded_inputs_outside_the_model_are_refused(self, function, bound, kappa, message):
        # the bounded law's formulas give finite numbers for each of these,
        # none of them a likelihood: a count of 7 above the bound 5, a bound
        # of 0 and a negative weight kappa
        series = CountSeries(np.array([1, 0, 2, 7, 3, 1, 0, 2]))
        theta = np.array([1.0, 0.3, kappa])
        with pytest.raises(ValueError, match=message):
            function(theta, series, (1, 0), EstimationScenario.fixed(0.5), bound)

    @pytest.mark.parametrize("orders", [(-1, 0), (1, -1), (0, 0, -1)])
    def test_negative_order_refused(self, orders):
        series = CountSeries(np.array([1, 2, 3, 0, 2]))
        with pytest.raises(ValueError, match="orders must be nonnegative"):
            estimation._orders(orders, series)
        with pytest.raises(ValueError, match="orders must be nonnegative"):
            fit_mle(series, orders)

    def test_bounded_theta_ends_with_kappa(self):
        series = CountSeries(np.array([1, 2, 3, 0, 2]))
        with pytest.raises(ValueError, match="theta has 3 entries, expected 4"):
            loglik(np.array([1.0, 0.2, -0.1]), series, (1, 1), SC1, 5)

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


DERIVATIVE_ORDERS = [(1, 0), (1, 1), (2, 2), (2, 1), (1, 1, 1)]

# a generic admissible point per order, off the censoring knife edge
HESSIAN_POINTS = {
    (1, 0): [7.3, -0.47, 0.28],
    (1, 1): [8.2, -0.4, -0.2, 0.3],
    (2, 1): [8.1, -0.38, -0.12, -0.21, 0.3],
    (2, 2): [8.1, -0.38, -0.12, -0.21, 0.09, 0.3],
    (1, 1, 1): [8.3, -0.43, -0.24, 0.75, 0.3],
}


class TestAnalyticDerivatives:
    # uniform ranges of (dynamics..., delta) for the random points; they
    # exercise both signs of M_t, and exact knife edges (M_t == 0), which
    # carry the genuine kink of the censored density, are excluded by the
    # resampling below
    _RANGES = {
        (1, 0): [(3.0, 9.0), (-0.75, -0.35), (0.1, 1.5)],
        (1, 1): [(5.0, 9.0), (-0.6, -0.3), (-0.3, 0.25), (0.1, 1.5)],
        (2, 1): [(5.0, 9.0), (-0.6, -0.3), (-0.2, 0.1), (-0.3, 0.25), (0.1, 1.5)],
        (2, 2): [
            (5.0, 9.0), (-0.6, -0.3), (-0.2, 0.1), (-0.3, 0.25), (-0.2, 0.2), (0.1, 1.5)
        ],
        (1, 1, 1): [(5.0, 9.0), (-0.6, -0.3), (-0.3, 0.25), (0.3, 1.2), (0.1, 1.5)],
    }

    def _random_points(self, rng, order):
        return np.array([rng.uniform(lo, hi) for lo, hi in self._RANGES[order]])

    @pytest.mark.parametrize("order", DERIVATIVE_ORDERS)
    def test_score_matches_finite_differences(self, order, series_by_order):
        series = series_by_order[order]
        p, q, r = estimation._orders(order, series)
        rng = np.random.default_rng(99)
        seen_negative = seen_positive = False
        checked = 0
        while checked < 20:
            theta = self._random_points(rng, order)
            m = _mean_path(theta[:-1], series, p, q, r)
            if np.any(np.abs(m) < 1e-6) or _stencil_crosses_kink(theta, series, p, q, r):
                continue
            seen_negative |= bool(np.any(m < 0))
            seen_positive |= bool(np.any(m > 0))
            grad, _ = analytic_score_hessian(theta, series, order, SC2)
            fd = fd_gradient(theta, series, order, SC2)
            assert np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))) < 1e-4
            checked += 1
        assert seen_negative and seen_positive

    @pytest.mark.parametrize("order", DERIVATIVE_ORDERS)
    def test_hessian_symmetric(self, order, series_by_order):
        theta = np.array(HESSIAN_POINTS[order])
        _, hess = analytic_score_hessian(theta, series_by_order[order], order, SC2)
        assert np.max(np.abs(hess - hess.T)) < 1e-8

    @pytest.mark.parametrize("order", DERIVATIVE_ORDERS)
    def test_hessian_matches_score_differences(self, order, series_by_order):
        series = series_by_order[order]
        theta = np.array(HESSIAN_POINTS[order])
        _, hess = analytic_score_hessian(theta, series, order, SC2)
        k = theta.shape[0]
        fd = np.zeros((k, k))
        for i in range(k):
            e = np.zeros(k)
            e[i] = 1e-6 * (1.0 + abs(theta[i]))
            gp, _ = analytic_score_hessian(theta + e, series, order, SC2)
            gm, _ = analytic_score_hessian(theta - e, series, order, SC2)
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
        numeric = numerical_hessian(fun, theta, 1e-4 * (1 + abs(theta)))[1]
        assert np.max(np.abs(analytic - numeric) / (1.0 + np.abs(analytic))) < 1e-3

    def test_numerical_gradient_matches_the_score(self, series_11):
        # the stencil's gradient reuses the Hessian diagonal's calls
        theta = np.array([8.4, -0.44, -0.26, 0.27])
        steps = 1e-4 * (1 + abs(theta))
        assert not _stencil_crosses_kink(theta, series_11, 1, 1, 0, step=2e-4)

        def fun(t):
            return loglik(t, series_11, (1, 1), SC2)

        score = analytic_score_hessian(theta, series_11, (1, 1), SC2)[0]
        numeric = numerical_hessian(fun, theta, steps)[0]
        assert np.all(np.abs(score - numeric) <= 1e-4 * (1.0 + np.abs(score)))

    def test_underflowed_zero_mass_raises(self):
        # at M_t = 800 the positive counts keep a finite log-pmf, but
        # P(X* <= 0) is about e^-780 and underflows to zero
        series = CountSeries(np.array([5, 0, 3, 2]))
        with pytest.raises(ArithmeticError):
            analytic_score_hessian(np.array([800.0, 0.0]), series, (1, 0), SC1)

    def test_information_matrices_shapes(self, series_10):
        theta = np.array([7.5, -0.5, 0.25])
        u_hat, v_hat = information_matrices(theta, series_10, (1, 0), SC2)
        assert u_hat.shape == (3, 3) and v_hat.shape == (3, 3)
        assert np.allclose(v_hat, v_hat.T)
        assert np.all(np.linalg.eigvalsh(v_hat) > 0.0)
        # at the truth the two information estimates agree in order of magnitude
        ratio = np.diag(u_hat) / np.diag(v_hat)
        assert np.all(ratio > 0.3) and np.all(ratio < 3.0)


    @pytest.mark.parametrize(
        "case, theta",
        [
            ("10", [7.45, -0.49, 0.3]),
            ("11", [8.4, -0.44, -0.26, 0.3]),
            ("11-zeros", [-0.45, 0.38, 0.32, 0.9]),
        ],
    )
    def test_outer_product_information_matches_term_differences(
        self, case, theta, series_10, series_11
    ):
        # V_hat = (1/n) sum_t s_t s_t' with s_t a central difference of term
        # t's log through the mean path, at points clear of the kink; the
        # zero-heavy series is 83% zeros
        series = {
            "10": series_10,
            "11": series_11,
            "11-zeros": simulate(
                ModelSpec(alpha0=-0.5, alphas=(0.4,), betas=(0.3,), delta=1.0),
                600,
                rng=np.random.default_rng(37),
            ),
        }[case]
        theta = np.array(theta)
        p, q, r = estimation._orders((1, 0) if case == "10" else (1, 1), series)
        assert not _stencil_crosses_kink(theta, series, p, q, r)
        x = series.counts[max(p, q):]

        def terms(t):
            m = _mean_path(t[:-1], series, p, q, r)[max(p, q):]
            return skellam._log_obs_arr(x, m, t[-1])

        scores = np.empty((x.shape[0], theta.shape[0]))
        for i in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[i] = 1e-5 * (1.0 + abs(theta[i]))
            scores[:, i] = (terms(theta + e) - terms(theta - e)) / (2.0 * e[i])
        reference = scores.T @ scores / x.shape[0]
        _, v_hat = information_matrices(theta, series, (p, q), SC2)
        assert np.max(np.abs(v_hat - reference) / (1.0 + np.abs(reference))) < 1e-6

    # bounded one-inflated series: N = 1, where the count at the bound is the
    # inflated count, N = 2 and N = 5; above N = 1 the means take both signs
    @pytest.fixture(scope="class")
    def bounded_series(self):
        return {
            bound: simulate(
                ModelSpec(
                    alpha0=0.8, alphas=(-0.5,), betas=(0.2,), delta=0.25, bound=bound, kappa=0.15
                ),
                400,
                rng=np.random.default_rng(40 + bound),
            )
            for bound in (1, 2, 5)
        }

    @staticmethod
    def _bounded_point(scenario):
        # (alpha0, alpha1, beta1[, delta], kappa)
        return np.array([0.75, -0.45, 0.15] + ([0.3] if scenario.estimates_delta else []) + [0.12])

    @staticmethod
    def _bounded_terms(theta, series, scenario, bound):
        delta = theta[3] if scenario.estimates_delta else scenario.fixed_delta
        m = _mean_path(theta[:3], series, 1, 1, 0)[1:]
        return skellam._log_obs_arr(series.counts[1:], m, delta, bound, theta[-1])

    @pytest.mark.parametrize("scenario", [SC1, SC2], ids=["scenario1", "scenario2"])
    @pytest.mark.parametrize("bound", [1, 2, 5])
    def test_bounded_score_and_hessian_match_central_differences(
        self, bound, scenario, bounded_series
    ):
        series = bounded_series[bound]
        theta = self._bounded_point(scenario)
        m = _mean_path(theta[:3], series, 1, 1, 0)
        assert np.any(m > 0) and (bound == 1 or np.any(m < 0))
        assert not _stencil_crosses_kink(theta, series, 1, 1, 0)
        terms = self._bounded_terms(theta, series, scenario, bound)
        assert loglik(theta, series, (1, 1), scenario, bound) == terms.sum()
        grad, hess = analytic_score_hessian(theta, series, (1, 1), scenario, bound)
        assert grad.shape == theta.shape and np.max(np.abs(hess - hess.T)) < 1e-8
        fd_grad = np.empty_like(theta)
        fd_hess = np.empty_like(hess)
        for i in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[i] = 1e-5 * (1.0 + abs(theta[i]))
            up = self._bounded_terms(theta + e, series, scenario, bound).sum()
            down = self._bounded_terms(theta - e, series, scenario, bound).sum()
            fd_grad[i] = (up - down) / (2.0 * e[i])
            e *= 0.1
            gp, _ = analytic_score_hessian(theta + e, series, (1, 1), scenario, bound)
            gm, _ = analytic_score_hessian(theta - e, series, (1, 1), scenario, bound)
            fd_hess[:, i] = (gp - gm) / (2.0 * e[i])
        assert np.max(np.abs(grad - fd_grad) / (1.0 + np.abs(fd_grad))) < 1e-4
        assert np.max(np.abs(hess - fd_hess) / (1.0 + np.abs(fd_hess))) < 1e-5

    @pytest.mark.parametrize("bound", [1, 2, 5])
    def test_bounded_outer_product_information_matches_term_differences(
        self, bound, bounded_series
    ):
        series = bounded_series[bound]
        theta = self._bounded_point(SC2)
        x = series.counts[1:]
        scores = np.empty((x.shape[0], theta.shape[0]))
        for i in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[i] = 1e-5 * (1.0 + abs(theta[i]))
            up = self._bounded_terms(theta + e, series, SC2, bound)
            down = self._bounded_terms(theta - e, series, SC2, bound)
            scores[:, i] = (up - down) / (2.0 * e[i])
        reference = scores.T @ scores / x.shape[0]
        _, v_hat = information_matrices(theta, series, (1, 1), SC2, bound)
        assert np.max(np.abs(v_hat - reference) / (1.0 + np.abs(reference))) < 1e-6

    def test_curvature_information_is_scaled_analytic_hessian(self, series_11):
        theta = np.array([8.4, -0.44, -0.26, 0.3])
        u_hat, _ = information_matrices(theta, series_11, (1, 1), SC2)
        _, hess = analytic_score_hessian(theta, series_11, (1, 1), SC2)
        n_eff = len(series_11) - 1
        assert np.array_equal(u_hat, -hess / n_eff)


def _reference_mean(alpha0, alphas, betas, gammas, counts, covariates, extend, presample):
    """The per-t loop of the mean recursion, the reference for the banded solve."""
    p, q, r = len(alphas), len(betas), len(gammas)
    n = counts.shape[0]
    start = max(p, q)
    total = n + 1 if extend else n
    out = np.empty(total)
    out[: min(start, total)] = presample
    for t in range(start, total):
        m = alpha0
        for i, a in enumerate(alphas, start=1):
            m += a * counts[t - i]
        for j, b in enumerate(betas, start=1):
            m += b * out[t - j]
        if r:
            if t >= n:
                raise ValueError("covariates unavailable beyond the sample")
            for k, g in enumerate(gammas):
                m += g * covariates[t, k]
        out[t] = m
    return out


def _reference_mean_derivatives(theta_dyn, series, p, q, r):
    """The per-t loops of dM and of the dense (n, k, k) d2M, as reference."""
    betas = theta_dyn[1 + p : 1 + p + q]
    n, k, start = len(series), 1 + p + q + r, max(p, q)
    x, z = series.counts, series.covariates
    m = _reference_mean(
        theta_dyn[0], theta_dyn[1 : 1 + p], betas, theta_dyn[1 + p + q :],
        x, z, False, theta_dyn[0],
    )
    dm = np.zeros((n, k))
    dm[:start, 0] = 1.0
    d2m = np.zeros((n, k, k))
    for t in range(start, n):
        row = dm[t]
        row[0] = 1.0
        for i in range(1, p + 1):
            row[i] = x[t - i]
        for j in range(1, q + 1):
            row[p + j] = m[t - j]
        for kk in range(r):
            row[1 + p + q + kk] = z[t, kk]
        for j, b in enumerate(betas, start=1):
            row += b * dm[t - j]
        hh = d2m[t]
        for j in range(1, q + 1):
            hh[p + j, :] += dm[t - j]
            hh[:, p + j] += dm[t - j]
        for j, b in enumerate(betas, start=1):
            hh += b * d2m[t - j]
    return m, dm, d2m


def _assert_close(value, reference):
    assert value.shape == reference.shape
    assert np.all(np.abs(value - reference) <= 1e-12 * (1.0 + np.abs(reference)))


class TestMeanRecursionKernel:
    """The banded solve against the per-t loops it replaced."""

    @pytest.fixture(scope="class")
    def counts(self):
        return np.random.default_rng(41).poisson(3.0, 400)

    @pytest.mark.parametrize(
        "orders, theta",
        [
            pytest.param((1, 0, 0), [2.0, 0.6], id="(1,0)"),
            pytest.param((0, 1, 0), [2.0, 0.7], id="(0,1)"),
            pytest.param((1, 1, 0), [1.5, 0.3, 0.5], id="(1,1)"),
            pytest.param((2, 2, 0), [1.0, 0.2, -0.1, 0.3, 0.25], id="(2,2)"),
            pytest.param((3, 1, 0), [1.0, 0.2, 0.1, -0.05, 0.4], id="(3,1)"),
            pytest.param((1, 1, 1), [1.5, 0.3, 0.5, 0.7], id="(1,1)+z"),
            pytest.param((1, 1, 0), [0.5, -0.2, 0.9999], id="(1,1)-unit-root"),
            pytest.param((2, 2, 0), [0.5, 0.05, 0.0, 0.6, -0.3999], id="(2,2)-unit-root"),
        ],
    )
    def test_mean_and_derivatives_match_loop(self, counts, orders, theta):
        p, q, r = orders
        z = np.random.default_rng(42).standard_normal((counts.shape[0], r)) if r else None
        series = CountSeries(counts, covariates=z)
        theta = np.array(theta)
        kernel = _mean_kernel(series, p, q, r)
        m, dm = kernel.gradient(theta)
        d2m_beta = kernel.beta_rows(theta, dm)
        m_ref, dm_ref, d2m_ref = _reference_mean_derivatives(theta, series, p, q, r)
        _assert_close(m, m_ref)
        _assert_close(dm, dm_ref)
        beta = slice(1 + p, 1 + p + q)
        _assert_close(d2m_beta, d2m_ref[:, beta, :])
        # the loop's d2M is zero outside the beta rows and columns
        rest = np.ones(1 + p + q + r, dtype=bool)
        rest[beta] = False
        assert not np.any(d2m_ref[:, rest][:, :, rest])

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(ModelSpec(alpha0=1.0, alphas=(0.3,), betas=(0.5,)), id="stable"),
            pytest.param(ModelSpec(alpha0=1.0, alphas=(0.3,), betas=(1.2,)), id="explosive"),
            pytest.param(ModelSpec(alpha0=1.0, alphas=(0.3, 0.1), betas=(0.2, 0.3)), id="(2,2)"),
        ],
    )
    def test_extended_path_matches_loop(self, counts, spec):
        path = conditional_mean_path(spec, CountSeries(counts))
        ref = _reference_mean(
            spec.alpha0, spec.alphas, spec.betas, (), counts, None, True, spec.alpha0
        )
        assert path.shape == (counts.shape[0] + 1,)
        _assert_close(path, ref)

    @pytest.mark.parametrize("n", [2, 3])
    def test_series_within_the_prefix_is_presample_only(self, n):
        spec = ModelSpec(alpha0=1.5, alphas=(0.2, 0.1, -0.05), betas=(0.4,))
        series = CountSeries(np.arange(1, n + 1))
        path = conditional_mean_path(spec, series)
        ref = _reference_mean(
            1.5, spec.alphas, spec.betas, (), series.counts, None, True, 1.5
        )
        _assert_close(path, ref)
        assert np.all(path[:3] == 1.5)
        theta = np.array([1.5, *spec.alphas, *spec.betas])
        assert np.all(_mean_path(theta, series, 3, 1, 0) == 1.5)

    def test_extension_with_covariates_is_refused(self, counts):
        series = CountSeries(counts, covariates=np.ones((counts.shape[0], 1)))
        with pytest.raises(ValueError, match="beyond the sample"):
            _mean_kernel(series, 1, 1, 1, extend=True)

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize(
        "orders, thetas",
        [
            pytest.param((1, 0, 0), [[2.0, 0.6], [-1.0, 0.9]], id="(1,0)"),
            pytest.param((1, 1, 0), [[1.5, 0.3, 0.5], [-0.5, 0.2, -0.6]], id="(1,1)"),
            pytest.param(
                (2, 2, 0), [[1.0, 0.2, -0.1, 0.3, 0.25], [0.5, -0.3, 0.1, -0.2, 0.4]], id="(2,2)"
            ),
            pytest.param((1, 1, 1), [[1.5, 0.3, 0.5, 0.7], [-2.0, 0.4, 0.3, -1.5]], id="(1,1)+z"),
        ],
    )
    def test_censored_objective_matches_loop(self, counts, orders, thetas, power):
        # the objective is built once per fit and reuses its storage on
        # every call, so each point is evaluated again after the others
        p, q, r = orders
        z = np.random.default_rng(43).standard_normal((counts.shape[0], r)) if r else None
        series = CountSeries(counts, covariates=z)
        objective = estimation._censored_objective(series, p, q, r, power)
        start = max(p, q)
        values = []
        for theta in thetas:
            m = _reference_mean(
                theta[0], theta[1 : 1 + p], theta[1 + p : 1 + p + q], theta[1 + p + q :],
                counts, z, False, theta[0],
            )[start:]
            reference = float((np.abs(counts[start:] - np.maximum(0.0, m)) ** power).sum())
            values.append(objective(np.array(theta)))
            assert abs(values[-1] - reference) <= 1e-12 * (1.0 + reference)
        assert [objective(np.array(theta)) for theta in thetas] == values

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("orders", [(1, 0, 0), (1, 1, 0), (2, 2, 0), (1, 1, 1)])
    def test_row_block_is_each_row_alone(self, counts, orders, power):
        # random rows, some past stationarity, and between two of them a
        # row whose means overflow to inf through its betas (or whose sum
        # does, without any); one batched call must give each row its
        # one-row means and objective, bit for bit
        p, q, r = orders
        k = 1 + p + q + r
        z = np.random.default_rng(43).standard_normal((counts.shape[0], r)) if r else None
        series = CountSeries(counts, covariates=z)
        rng = np.random.default_rng(44)
        rows = rng.normal(0.0, 0.6, (8, k))
        rows[:, 0] = rng.uniform(-2.0, 6.0, 8)
        rows[2, 1] = 1.5
        means = _mean_kernel(series, p, q, r).means
        block = means(rows)
        assert np.all(np.isfinite(block))
        assert np.array_equal(block, np.vstack([means(row) for row in rows]))
        overflow = np.zeros(k)
        overflow[0] = 1.7e308
        if q:
            overflow[1 + p : 1 + p + q] = 0.5 / q
            assert np.isinf(means(overflow)[-1])
        rows = np.vstack([rows[:4], overflow, rows[4:]])
        objective = estimation._censored_objective(series, p, q, r, power)
        with np.errstate(over="ignore"):
            values = objective(rows)
            assert values.tolist() == [objective(row) for row in rows]
        assert values[4] == math.inf and np.all(np.isfinite(values[[3, 5]]))
        penalized = [estimation._stationarity_penalty(row, p, q) > 0.0 for row in rows.tolist()]
        assert penalized[2] and not all(penalized)
        assert np.all(values[penalized] >= estimation._PENALTY)

    @pytest.mark.parametrize("orders", [(1, 0, 0), (1, 1, 0), (2, 2, 0), (1, 1, 1)])
    def test_kernel_after_a_block_call_is_a_fresh_kernel(self, counts, orders):
        # the closures share one band, which a (9, k) block call grows; the
        # one-row calls after it must read the band a fresh kernel writes
        p, q, r = orders
        k = 1 + p + q + r
        z = np.random.default_rng(45).standard_normal((counts.shape[0], r)) if r else None
        series = CountSeries(counts, covariates=z)
        rows = np.random.default_rng(46).normal(0.0, 0.3, (9, k))
        rows[:, 0] = 1.5
        theta = rows[4]
        used = _mean_kernel(series, p, q, r)
        used.means(rows)
        fresh = _mean_kernel(series, p, q, r)
        assert np.array_equal(used.means(theta), fresh.means(theta))
        (m, dm), (m_fresh, dm_fresh) = used.gradient(theta), fresh.gradient(theta)
        assert np.array_equal(m, m_fresh) and np.array_equal(dm, dm_fresh)
        assert np.array_equal(used.beta_rows(theta, dm), fresh.beta_rows(theta, dm_fresh))


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


class TestFitDriver:
    @pytest.fixture(scope="class")
    def series(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        return simulate(spec, 300, rng=np.random.default_rng(76))

    def test_raising_score_returns_the_simplex_only_fit(self, series, monkeypatch):
        def broken(*args, **kwargs):
            raise ArithmeticError("score failed")

        hook_likelihood(monkeypatch, score_parts=lambda score_parts: broken)
        # both Newton stages raise, so the coarse pass resumes and the one
        # stencil gives the standard errors; the simplex-and-stencil fit is
        # pinned with ==
        newtons = self._count(monkeypatch, "_newton")
        passes = self._count(monkeypatch)
        stencils = self._count(monkeypatch, "numerical_hessian")
        fit = fit_mle(series, (1, 0), SC1)
        assert newtons == [] and len(passes) == 2 and len(stencils) == 1
        assert np.array_equal(fit.std_errors, estimation._se_from_loglik_hessian(stencils[0][1]))
        assert fit.estimates.tolist() == [7.489891295204917, -0.491846930465613]
        assert fit.loglik == -680.0188969092359
        assert fit.std_errors.tolist() == [0.2794347167575237, 0.04163382762078348]
        assert (fit.iterations, fit.converged) == (54, True)
        assert fit.loglik == loglik(fit.estimates, series, (1, 0), SC1)

    @staticmethod
    def _count(monkeypatch, stage="_nelder_mead"):
        # the results of every call of the optimizer stage, and of every
        # search the simplex driver runs
        runs = []
        run = getattr(estimation, stage)

        def counted(*args, **kwargs):
            result = run(*args, **kwargs)
            if stage == "_nelder_mead":
                runs.extend(result)
            else:
                runs.append(result)
            return result

        monkeypatch.setattr(estimation, stage, counted)
        return runs

    @staticmethod
    def _uncertified(monkeypatch, fit):
        # the certificate rejecting every point leaves the resumed pass
        with monkeypatch.context() as patched:
            patched.setattr(estimation, "_certifies", lambda *args: False)
            return fit()

    @staticmethod
    def _simplex_only(monkeypatch, fit):
        # the fit driver with raising derivatives: the coarse pass and its resume
        driver = estimation._fit
        with monkeypatch.context() as patched:
            patched.setattr(
                estimation,
                "_fit",
                lambda *args, derivatives, kink_free, **kwargs: driver(
                    *args, **RAISING_DERIVATIVES, **kwargs
                ),
            )
            return fit()

    @staticmethod
    def _first_stage_rejected(monkeypatch):
        # the certificate rejects the first point it sees, the first stage's
        # where it has one, and judges every later point as it would
        certifies = estimation._certifies
        seen = []

        def first_rejected(*args):
            seen.append(args)
            return len(seen) > 1 and certifies(*args)

        monkeypatch.setattr(estimation, "_certifies", first_rejected)

    @staticmethod
    def _quadratic_fit():
        # a fit of a concave quadratic peaking at (1, 2), with raising derivatives
        return estimation._fit(
            lambda t: -((t[0] - 1.0) ** 2) - (t[1] - 2.0) ** 2, np.array([0.0, 0.0]),
            ("free", "free"), ("a", "b"), "quadratic", np.array([1]), **RAISING_DERIVATIVES,
        )

    @staticmethod
    def _assert_same_fit(fit, other):
        assert np.array_equal(fit.estimates, other.estimates)
        assert fit.loglik == other.loglik
        assert (fit.std_errors is None) == (other.std_errors is None)
        assert fit.std_errors is None or np.array_equal(fit.std_errors, other.std_errors)
        assert (fit.converged, fit.iterations) == (other.converged, other.iterations)

    PAPER_DGP = ModelSpec(alpha0=2.0, alphas=(0.4,), betas=(0.2,), delta=0.25)

    def test_certified_kink_free_start_makes_no_simplex_pass(self, monkeypatch):
        series = simulate(self.PAPER_DGP, 300, rng=np.random.default_rng(70))
        passes = self._count(monkeypatch)
        newtons = self._count(monkeypatch, "_newton")
        fit = fit_mle(series, (1, 1), SC2)
        assert passes == [] and len(newtons) == 1 and fit.converged
        assert fit.iterations == newtons[0].nit
        assert np.min(_mean_path(fit.estimates[:3], series, 1, 1, 0)[1:]) > 0.0
        hess = analytic_score_hessian(fit.estimates, series, (1, 1), SC2)[1]
        assert np.array_equal(fit.std_errors, estimation._se_from_loglik_hessian(hess))
        assert fit.loglik == loglik(fit.estimates, series, (1, 1), SC2)

    @pytest.mark.parametrize("case", ["scenario1", "scenario2"])
    def test_kink_free_fit_runs_no_stencil(self, case, series, monkeypatch):
        # scenario 1 on a (1,0) series, scenario 2 on the paper's (1,1) DGP:
        # the analytic Hessian certifies the point and gives the standard
        # errors, which match a stencil's to 1e-5 relative
        if case == "scenario1":
            orders, scenario, kinds = (1, 0), SC1, ("free",) * 2
        else:
            series = simulate(self.PAPER_DGP, 300, rng=np.random.default_rng(70))
            orders, scenario, kinds = (1, 1), SC2, ("free",) * 3 + ("positive",)
        stencils = self._count(monkeypatch, "numerical_hessian")
        fit = fit_mle(series, orders, scenario)
        assert stencils == [] and fit.converged and fit.hessian_invertible
        hess = analytic_score_hessian(fit.estimates, series, orders, scenario)[1]
        assert np.array_equal(fit.std_errors, estimation._se_from_loglik_hessian(hess))
        stencil = numerical_hessian(
            lambda t: loglik(t, series, orders, scenario), fit.estimates,
            estimation._difference_steps(fit.estimates, kinds),
        )
        np.testing.assert_allclose(
            fit.std_errors, estimation._se_from_loglik_hessian(stencil[1]), rtol=1e-5, atol=0.0
        )

    def test_raising_derivatives_fall_back_to_the_stencil(self, series, monkeypatch):
        # derivatives that raise at the returned point leave it to the stencil
        def broken(theta):
            raise ArithmeticError("score failed")

        stencils = self._count(monkeypatch, "numerical_hessian")
        fit = fit_mle(series, (1, 0), SC1)
        assert stencils == []
        local = estimation._point_derivatives(
            lambda t: loglik(t, series, (1, 0), SC1), fit.estimates, ("free",) * 2,
            derivatives=broken, kink_free=lambda t: True,
        )
        assert len(stencils) == 1 and local is stencils[0]

    def test_each_point_takes_its_derivatives_once(self, monkeypatch):
        # the certificate after either Newton stage reuses the derivatives
        # that stage took at its final point: the first fit ends in the
        # first stage, the second after the coarse pass and its Newton stage.
        # The series is mc_study(..., seed=2203055991)'s (paper-mc seed 401
        # rep 0), where the first stage's last trial point is rejected, so
        # its final point is not the last one it evaluated
        stream = np.random.SeedSequence(2203055991).spawn(1)[0]
        rng = np.random.Generator(np.random.PCG64(stream))
        series = simulate(self.PAPER_DGP, 250, burn_in=500, rng=rng, warn_nonstationary=False)
        points = []

        def recorded(score_parts):
            def score(theta):
                points.append(np.asarray(theta).tobytes())
                return score_parts(theta)

            return score

        hook_likelihood(monkeypatch, score_parts=recorded)
        newtons = self._count(monkeypatch, "_newton")
        assert fit_mle(series, (1, 1), SC2).converged and len(newtons) == 1
        assert "bad approximation" in newtons[0].message
        first = points[:]
        self._first_stage_rejected(monkeypatch)
        assert fit_mle(series, (1, 1), SC2).converged and len(newtons) == 3
        second = points[len(first):]
        assert first and second
        assert len(set(first)) == len(first) and len(set(second)) == len(second)

    def test_certified_first_pass_ends_the_search(self, monkeypatch):
        # with the first stage rejected, the coarse pass and its Newton
        # finish run and a certificate there ends the search
        series = simulate(self.PAPER_DGP, 300, rng=np.random.default_rng(70))
        certified = fit_mle(series, (1, 1), SC2)
        passes = self._count(monkeypatch)
        newtons = self._count(monkeypatch, "_newton")
        with monkeypatch.context() as patched:
            self._first_stage_rejected(patched)
            fit = fit_mle(series, (1, 1), SC2)
        assert len(passes) == 1 and len(newtons) == 2 and fit.converged
        assert passes[0].fun - newtons[1].fun <= estimation._COARSE
        assert fit.iterations == newtons[0].nit + passes[0].nit + newtons[1].nit
        hess = analytic_score_hessian(fit.estimates, series, (1, 1), SC2)[1]
        assert np.array_equal(fit.std_errors, estimation._se_from_loglik_hessian(hess))
        uncertified = self._uncertified(monkeypatch, lambda: fit_mle(series, (1, 1), SC2))
        # the first stage, the coarse pass, its Newton stage and the resumed pass
        assert len(passes) == 3 and len(newtons) == 4
        assert uncertified.iterations == sum(run.nit for run in passes[1:] + newtons[2:])
        assert uncertified.converged == passes[2].success
        assert fit.loglik >= uncertified.loglik - 1e-9 * (1.0 + abs(uncertified.loglik))
        assert abs(fit.loglik - certified.loglik) <= 1e-9 * (1.0 + abs(fit.loglik))

    def test_a_mean_at_zero_is_a_kink(self, series, monkeypatch):
        # the rule _fit_spec hands the driver; with alpha1 = 0 every mean is alpha0
        monkeypatch.setattr(estimation, "_fit", lambda *args, **kwargs: kwargs["kink_free"])
        kink_free = fit_mle(series, (1, 0), SC1)
        assert kink_free(np.array([1e-12, 0.0])) and kink_free(np.array([2.0, 0.0]))
        assert not kink_free(np.array([0.0, 0.0]))
        assert not kink_free(np.array([-1e-12, 0.0]))

    def test_raising_first_stage_takes_the_coarse_stages(self, series, monkeypatch):
        # the coarse stages run from the start whether the first stage
        # raises or is rejected; only the rejected one counts its iterations
        with monkeypatch.context() as patched:
            self._first_stage_rejected(patched)
            newtons = self._count(patched, "_newton")
            rejected = fit_mle(series, (1, 0), SC1)
        newton = estimation._newton
        calls = []

        def first_raises(*args):
            calls.append(args)
            if len(calls) == 1:
                raise ArithmeticError("first stage failed")
            return newton(*args)

        monkeypatch.setattr(estimation, "_newton", first_raises)
        fit = fit_mle(series, (1, 0), SC1)
        assert len(calls) == len(newtons) == 2
        assert np.array_equal(fit.estimates, rejected.estimates)
        assert fit.loglik == rejected.loglik and fit.converged == rejected.converged
        assert np.array_equal(fit.std_errors, rejected.std_errors)
        assert fit.iterations == rejected.iterations - newtons[0].nit

    def test_uncertified_fit_with_raising_derivatives_counts_both_passes(self, monkeypatch):
        passes = self._count(monkeypatch)
        fit = self._uncertified(monkeypatch, self._quadratic_fit)
        assert len(passes) == 2
        assert fit.iterations == passes[0].nit + passes[1].nit
        assert fit.converged == passes[1].success
        np.testing.assert_allclose(fit.estimates, [1.0, 2.0], atol=1e-6)

    def test_resumed_point_is_converged_when_certified(self, monkeypatch):
        # a resumed pass that reports failure at a point the stencil certifies
        nelder_mead = estimation._nelder_mead

        def failing(*args, **kwargs):
            results = nelder_mead(*args, **kwargs)
            for res in results:
                res.success = False
            return results

        monkeypatch.setattr(estimation, "_nelder_mead", failing)
        assert self._quadratic_fit().converged
        assert not self._uncertified(monkeypatch, self._quadratic_fit).converged

    def test_newton_gain_beyond_the_coarse_tolerance_resumes_the_simplex(self, monkeypatch):
        # on this 83%-zero series the coarse simplex stops on a ridge of kinks
        # 0.64 below a local maximum that the Newton stage climbs to; the
        # resumed simplex is the one the simplex-only pipeline runs, which
        # reaches a higher maximum, and the better is kept
        series = simulate(
            ModelSpec(alpha0=-0.5, alphas=(0.4,), betas=(0.3,), delta=1.0),
            600,
            rng=np.random.default_rng(37),
        )
        passes = self._count(monkeypatch)
        newtons = self._count(monkeypatch, "_newton")
        fit = fit_mle(series, (1, 1), SC2)
        assert passes[0].fun - newtons[0].fun > estimation._COARSE
        assert len(passes) >= 2 and passes[1].nit > 0
        simplex_only = self._count(monkeypatch)
        natural = self._simplex_only(monkeypatch, lambda: fit_mle(series, (1, 1), SC2))
        assert len(simplex_only) == 2
        assert np.array_equal(passes[1].x, simplex_only[1].x)
        assert passes[1].fun == simplex_only[1].fun < newtons[0].fun
        assert fit.loglik == natural.loglik
        assert np.array_equal(fit.estimates, natural.estimates)

    ZIGZAG = ModelSpec(alpha0=-0.5, alphas=(0.4,), betas=(0.3,), delta=1.0)

    def test_first_newton_stage_stops_at_its_iteration_cap(self, monkeypatch):
        # on this 85%-zero series the first stage stops at a kink and the
        # Newton stage after the coarse pass zig-zags across kinks (100
        # iterations without the cap); the resumed simplex finds the better
        # point anyway, and the loglik is the uncapped fit's
        series = simulate(self.ZIGZAG, 1000, rng=np.random.default_rng(7))
        passes = self._count(monkeypatch)
        newtons = self._count(monkeypatch, "_newton")
        fit = fit_mle(series, (1, 1), 1.0)
        assert newtons[0].nit == 9 and "bad approximation" in newtons[0].message
        assert newtons[1].nit == estimation._NEWTON_MAXITER == 20
        assert len(passes) >= 2 and fit.converged
        assert fit.loglik >= -567.5879118867149 - 1e-9 * (1.0 + 567.5879118867149)

    def test_first_stage_point_at_a_kink_is_left_to_the_coarse_stages(self, monkeypatch):
        # the first stage ends where a mean is not positive, and the fit is
        # the coarse stages' to the bit; the first stage adds its iterations
        series = simulate(self.ZIGZAG, 1000, rng=np.random.default_rng(7))
        newtons = self._count(monkeypatch, "_newton")
        stencils = self._count(monkeypatch, "numerical_hessian")
        fit = fit_mle(series, (1, 1), 1.0)
        assert np.min(_mean_path(newtons[0].x, series, 1, 1, 0)[1:]) <= 0.0
        assert len(stencils) == 1  # the coarse stages' only
        # the returned point has a mean at or below zero, where the analytic
        # Hessian is one-sided, so the stencil gives the standard errors
        assert np.min(_mean_path(fit.estimates, series, 1, 1, 0)[1:]) <= 0.0
        assert np.array_equal(fit.std_errors, estimation._se_from_loglik_hessian(stencils[0][1]))
        assert fit.loglik == -567.5879118867149 and fit.converged
        assert fit.estimates.tolist() == [-0.37882952539202386, 0.2963629994379591, 0.399058340665985]
        assert fit.iterations == 333 + newtons[0].nit

    @pytest.mark.parametrize(
        "grad, hess_diag, ll, expected",
        [
            ([1e-6, 2e-6], [-1.0, -4.0], 0.0, True),  # decrement 2e-12
            ([1e-3, 0.0], [-1.0, -4.0], 0.0, False),  # decrement 1e-6
            ([1e-4, 0.0], [-1.0, -1.0], 1e6, True),  # 1e-8 against 1e-10 (1 + 1e6)
            ([1e-4, 0.0], [-1.0, -1.0], 0.0, False),
            ([0.0, 0.0], [-1.0, 1.0], 0.0, False),  # -H indefinite
            ([0.0, 0.0], [-1.0, math.nan], 0.0, False),
        ],
    )
    def test_certificate_is_the_scaled_newton_decrement(self, grad, hess_diag, ll, expected):
        assert estimation._certifies(np.array(grad), np.diag(hess_diag), ll) is expected

    def test_withheld_steps_resume_the_simplex(self, monkeypatch):
        # the series mc_study(..., seed=405) simulates for this DGP at n = 250:
        # the first stage and the coarse pass leave delta within 1e-8 of 0,
        # where the steps are withheld
        stream = np.random.SeedSequence(405).spawn(1)[0]
        rng = np.random.Generator(np.random.PCG64(stream))
        series = simulate(self.PAPER_DGP, 250, burn_in=500, rng=rng, warn_nonstationary=False)
        passes = self._count(monkeypatch)
        newtons = self._count(monkeypatch, "_newton")
        local = self._count(monkeypatch, "_point_derivatives")
        fit = fit_mle(series, (1, 1), SC2)
        assert len(passes) == 2 and len(newtons) == 2
        assert math.exp(newtons[0].x[-1]) < 1e-8 and math.exp(passes[0].x[-1]) < 1e-8
        # the derivatives (withheld) are taken at the first-stage point,
        # after the coarse stages, and again only at a point the resumed
        # pass moved to
        assert local == [None] * (2 + (passes[1].fun < newtons[1].fun))
        assert fit.std_errors is None
        # the loglik of the fresh restart and polish this fallback replaced
        restarted = -538.9032205317307
        assert fit.loglik >= restarted - 1e-9 * (1.0 + abs(restarted))
        self._assert_same_fit(fit, self._uncertified(monkeypatch, lambda: fit_mle(series, (1, 1), SC2)))

    def test_derivatives_of_an_unmoved_point_are_kept(self, series, monkeypatch):
        # a resumed pass that does not beat the Newton point: here it hands
        # back the coarse pass's own result
        coarse = []
        nelder_mead = estimation._nelder_mead

        def no_progress(*args, **kwargs):
            coarse[:] = coarse or nelder_mead(*args, **kwargs)
            return list(coarse)

        monkeypatch.setattr(estimation, "_nelder_mead", no_progress)
        newtons = self._count(monkeypatch, "_newton")
        local = self._count(monkeypatch, "_point_derivatives")
        fit = self._uncertified(monkeypatch, lambda: fit_mle(series, (1, 0), SC1))
        # the first stage's derivatives, then the ones after the coarse pass
        assert newtons[1].fun <= coarse[0].fun and len(local) == 2
        assert np.array_equal(fit.estimates, newtons[1].x)
        assert np.array_equal(fit.std_errors, estimation._se_from_loglik_hessian(local[1][1]))
        assert fit.converged == coarse[0].success
        assert fit.iterations == newtons[0].nit + 2 * coarse[0].nit + newtons[1].nit

    def test_indefinite_hessian_resumes_the_simplex(self, series, monkeypatch):
        # an indefinite Hessian rejects the first stage's point and then the
        # coarse stages' one
        hessians = []
        point_derivatives = estimation._point_derivatives

        def indefinite_first(*args):
            grad, hess = point_derivatives(*args)
            hessians.append(hess)
            return (grad, -hess) if len(hessians) <= 2 else (grad, hess)

        monkeypatch.setattr(estimation, "_point_derivatives", indefinite_first)
        passes = self._count(monkeypatch)
        fit = fit_mle(series, (1, 0), SC1)
        assert len(passes) == 2 and len(hessians) == 3
        monkeypatch.setattr(estimation, "_point_derivatives", point_derivatives)
        self._assert_same_fit(fit, self._uncertified(monkeypatch, lambda: fit_mle(series, (1, 0), SC1)))

    def test_interior_maximum_beyond_a_vanishing_dispersion(self, monkeypatch):
        # the series of mc_study(..., seed=1233804934) (mc402-7): the coarse
        # stages end at delta = 3e-21 and loglik -546.8430 without standard
        # errors, though the maximum lies inside, which the first stage reaches
        stream = np.random.SeedSequence(1233804934).spawn(1)[0]
        rng = np.random.Generator(np.random.PCG64(stream))
        series = simulate(self.PAPER_DGP, 250, burn_in=500, rng=rng, warn_nonstationary=False)
        passes = self._count(monkeypatch)
        fit = fit_mle(series, (1, 1), SC2)
        interior = -546.7521212210431
        assert passes == [] and fit.converged
        assert fit.loglik >= interior - 1e-9 * (1.0 + abs(interior))
        assert fit.estimates[-1] > 0.1 and fit.hessian_invertible
        study = mc_study(self.PAPER_DGP, 250, 1, methods=("mle",), scenario=None, seed=1233804934)
        assert study.hessian_noninvertible_rate == {"mle": 0.0}
        assert np.array_equal(study.means["mle"], fit.estimates)

    def test_penalty_valued_optimum_raises(self, series, monkeypatch):
        hook_likelihood(monkeypatch, value=lambda value: lambda theta: -math.inf)
        with pytest.raises(ArithmeticError):
            fit_mle(series, (1, 0), SC1)

    @pytest.mark.parametrize(
        "counts", [np.zeros(200, dtype=np.int64), np.r_[3, np.zeros(199, dtype=np.int64)]]
    )
    def test_all_zero_window_refused(self, counts):
        # the likelihood keeps rising as alpha0 -> -inf, so there is no MLE
        with pytest.raises(ValueError, match="no positive count"):
            fit_mle(CountSeries(counts), (1, 0), 0.25)

    @staticmethod
    def _refused_past(edge, calls):
        # a concave log-likelihood peaking at 1 that the kernels refuse past edge
        def natural_loglik(theta):
            calls.append(theta[0])
            if theta[0] > edge:
                raise PrecisionError("refused trial point")
            return -((theta[0] - 1.0) ** 2)

        return natural_loglik

    def test_refused_trial_points_are_penalized(self):
        calls = []
        fit = estimation._fit(
            self._refused_past(1.05, calls), np.array([0.0]), ("free",), ("theta",),
            "quadratic", np.array([1]), **RAISING_DERIVATIVES,
        )
        assert any(t > 1.05 for t in calls)
        assert fit.estimates[0] == pytest.approx(1.0, abs=1e-4)
        assert fit.loglik == pytest.approx(0.0, abs=1e-8)
        assert fit.std_errors is not None

    def test_refused_start_raises(self):
        with pytest.raises(PrecisionError, match="refused trial point"):
            estimation._fit(
                self._refused_past(1.05, []), np.array([2.0]), ("free",), ("theta",),
                "quadratic", np.array([1]), **RAISING_DERIVATIVES,
            )

    def test_all_zero_window_cli_exit_code(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("count\n" + "0\n" * 200)
        assert cli.main(["fit", "--input", str(path)]) == cli.EXIT_NUMERICAL

    @pytest.mark.parametrize("i", range(3))
    def test_large_mean_hessian_is_invertible(self, i):
        # the raw eigenvalue ratio is about 5.7e6 here only because alpha0 is
        # in the hundreds; the correlation-scaled ratio is about 570
        spec = ModelSpec(alpha0=100.0, alphas=(0.5,), delta=2.0)
        rng = np.random.default_rng(np.random.SeedSequence([7, i]))
        series = simulate(spec, 1000, rng=rng)
        fit = fit_mle(series, (1, 0), EstimationScenario.fixed(2.0))
        assert fit.hessian_invertible
        assert np.all(np.isfinite(fit.std_errors)) and np.all(fit.std_errors > 0.0)
        assert np.all(np.abs(fit.estimates - [100.0, 0.5]) < 4.0 * fit.std_errors)

    # per kind: values inside the domain and the distance to the domain's edge
    KINDS = {
        "free": ([-1e6, -3.7, 0.0, 2.5], lambda t: math.inf),
        "positive": ([1e3, 0.25, 1e-3, 2e-8], lambda t: t),
        "unit": ([0.5, 0.1, 0.999, 3e-5], lambda t: min(t, 1.0 - t)),
        "signed": ([0.0, -0.4, 0.9999, -(1.0 - 1e-7)], lambda t: 1.0 - abs(t)),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_search_to_natural_round_trip(self, kind):
        row = estimation._KINDS[kind]
        for value in self.KINDS[kind][0]:
            assert row.to_natural(row.to_search(value)) == pytest.approx(value, rel=1e-9, abs=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_slope_is_the_derivative_of_the_map(self, kind):
        row = estimation._KINDS[kind]
        for value in self.KINDS[kind][0][1:3]:
            u, h = row.to_search(value), 1e-6
            numeric = (row.to_natural(u + h) - row.to_natural(u - h)) / (2.0 * h)
            assert row.slope(value) == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_search_derivatives_match_central_differences(self, kind):
        # a cubic in the natural parameters (a, theta), free a and theta of
        # the kind, differentiated through the map by the stencil
        def natural(t):
            return 0.5 * t[0] ** 2 * t[1] + t[1] ** 3 - 2.0 * t[0] * t[1]

        def natural_derivatives(t):
            grad = np.array(
                [t[0] * t[1] - 2.0 * t[1], 0.5 * t[0] ** 2 + 3.0 * t[1] ** 2 - 2.0 * t[0]]
            )
            hess = np.array([[t[1], t[0] - 2.0], [t[0] - 2.0, 6.0 * t[1]]])
            return grad, hess

        row = estimation._KINDS[kind]
        for value in self.KINDS[kind][0][1:3]:
            theta = np.array([0.7, value])
            u = np.array([0.7, row.to_search(value)])
            grad, hess = estimation._search_derivatives(
                ("free", kind), theta, *natural_derivatives(theta)
            )
            numeric_grad, numeric_hess = numerical_hessian(
                lambda v: natural([v[0], row.to_natural(v[1])]), u, [1e-4, 1e-4]
            )
            np.testing.assert_allclose(grad, numeric_grad, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(hess, numeric_hess, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_is_at_most_a_third_of_the_way_to_the_edge(self, kind):
        values, distance = self.KINDS[kind]
        steps = estimation._difference_steps(np.array(values), (kind,) * len(values))
        for value, step in zip(values, steps):
            assert step == min(1e-4 * (1.0 + abs(value)), distance(value) / 3.0)
            assert 0.0 < step <= distance(value) / 3.0

    def test_logistic_does_not_overflow(self):
        unit = estimation._KINDS["unit"].to_natural
        assert unit(-699.0) == 1.0 / (1.0 + math.exp(699.0))
        assert unit(-720.0) == math.exp(-720.0) and unit(-1e4) == 0.0

    @pytest.mark.parametrize(
        "kind, inner, at_edge, scale",
        [
            ("positive", 0.25, 1e-9, 1e-10),
            ("unit", 0.1, 1e-6, 1e-7),
            ("signed", -0.4, 1.0 - 1e-9, 1e-10),
            ("signed", 0.4, -(1.0 - 1e-9), 1e-10),
        ],
    )
    def test_no_standard_errors_at_the_edge(self, kind, inner, at_edge, scale):
        # a Gaussian log-likelihood of the given width peaked at the value: its
        # standard error is the width inside the domain and withheld at the edge
        def fit(peak, width):
            return estimation._fit(
                lambda t: -0.5 * ((t[1] - peak) / width) ** 2 - 0.5 * (t[0] - 1.0) ** 2,
                np.array([0.0, inner]),
                ("free", kind),
                ("a", "theta"),
                "gaussian",
                np.array([1]),
                **RAISING_DERIVATIVES,
            )

        interior = fit(inner, 0.01)
        assert interior.hessian_invertible
        np.testing.assert_allclose(interior.std_errors, [1.0, 0.01], rtol=1e-6)
        assert estimation._difference_steps(np.array([1.0, at_edge]), ("free", kind)) is None
        edge = fit(at_edge, scale)
        assert edge.estimates[1] == pytest.approx(at_edge, abs=scale)
        assert edge.std_errors is None and not edge.hessian_invertible

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_signed_parameter_running_to_one_is_refused(self, sign):
        slope = 50.0 if sign == "+" else -50.0
        with pytest.raises(ValueError, match=f"no interior maximum: rho runs to \\{sign}1"):
            estimation._fit(
                lambda t: slope * t[0],
                np.array([0.0]),
                ("signed",),
                ("rho",),
                "linear",
                np.array([1]),
                **RAISING_DERIVATIVES,
            )

    @pytest.mark.parametrize("scenario", [SC1, SC2], ids=["scenario1", "scenario2"])
    def test_loglik_is_the_likelihood_at_the_estimates(self, series, scenario):
        fit = fit_mle(series, (1, 0), scenario)
        assert fit.loglik == loglik(fit.estimates, series, (1, 0), scenario)

    # delta = 1e300 overflows lambda1 * lambda2 on its way to the refusal
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "delta, positive_only, expected",
        [
            ("inf", False, "delta must be positive and finite"),
            ("1e300", False, r"Poisson-mixture window cannot be indexed at mixing mean 5e\+299"),
            ("1e300", True, "Bessel series cannot be indexed at argument inf"),
            # a dispersion of 1e15 is refused before the kernels allocate anything
            ("1e15", False, r"Poisson-mixture window cannot be indexed at mixing mean 5000"),
            ("1e15", True, r"Bessel series cannot be indexed at argument 1000"),
        ],
    )
    def test_unusable_dispersion_is_refused(
        self, series, tmp_path, capsys, delta, positive_only, expected
    ):
        if positive_only:
            series = CountSeries(series.counts[series.counts > 0])
        error = ValueError if delta == "inf" else PrecisionError
        with pytest.raises(error, match=expected):
            fit_mle(series, (1, 0), EstimationScenario.fixed(float(delta)))
        path = tmp_path / "counts.csv"
        path.write_text("count\n" + "".join(f"{v}\n" for v in series.counts))
        assert cli.main(["fit", "--delta", delta, "--input", str(path)]) == cli.EXIT_NUMERICAL
        assert re.search(expected, capsys.readouterr().err)


def _scipy_nelder_mead(fun, x0, fatol=estimation._FATOL, xatol=1e-8, simplex=None):
    """scipy's Nelder-Mead under the options :func:`estimation._simplex_search` takes."""
    budget = 400 * len(x0)
    options = {"fatol": fatol, "xatol": xatol, "maxiter": budget, "maxfev": budget}
    if simplex is not None:
        options["initial_simplex"] = simplex
    return optimize.minimize(fun, x0, method="Nelder-Mead", options=options)


def _lockstep(fun, searches):
    """:func:`estimation._nelder_mead` on a batch wrapper of ``fun`` that
    records every point it is given, in order."""
    points = []

    def batch(rows):
        points.extend(row.copy() for row in rows)
        return np.array([fun(row) for row in rows])

    return estimation._nelder_mead(batch, searches), points


def _solo(fun, x0, **options):
    """One :func:`estimation._simplex_search` alone in the driver, on one-row
    calls of ``fun``."""
    (res,), _ = _lockstep(fun, [estimation._simplex_search(x0, **options)])
    return res


def _assert_equal_results(a, b):
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun
    assert (a.nit, a.nfev, a.success) == (b.nit, b.nfev, b.success)
    assert np.array_equal(a.final_simplex[0], b.final_simplex[0])
    assert np.array_equal(a.final_simplex[1], b.final_simplex[1])


class TestSimplex:
    """The in-house Nelder-Mead, one search alone in its driver, against
    scipy's, and searches in lockstep against each alone: the same points
    evaluated in the same order and the same result, compared with ``==``."""

    @staticmethod
    def _assert_same(fun, x0, **options):
        scipy_points = []

        def recorded(x):
            scipy_points.append(x.copy())
            return fun(x)

        scipys = _scipy_nelder_mead(recorded, x0, **options)
        # the search alone in the driver, on one-row batches
        (ours,), ours_points = _lockstep(fun, [estimation._simplex_search(x0, **options)])
        assert len(ours_points) == len(scipy_points) == ours.nfev
        assert all(np.array_equal(a, b) for a, b in zip(ours_points, scipy_points))
        _assert_equal_results(ours, scipys)
        return ours, ours_points

    @staticmethod
    def _quadratic(x):
        return float(((x - [1.0, -2.0, 0.5]) ** 2 * [1.0, 3.0, 10.0]).sum())

    def test_quadratic(self):
        res, _ = self._assert_same(self._quadratic, np.array([0.3, 0.7, -1.2]))
        assert res.success
        np.testing.assert_allclose(res.x, [1.0, -2.0, 0.5], atol=1e-6)

    @pytest.fixture(scope="class")
    def paper_mc_series(self):
        return TestDerivativeStagesAgainstSimplex._series("11-mc420")

    @pytest.mark.parametrize("start", range(9))
    def test_clade_objective_from_every_start(self, paper_mc_series, start):
        # piecewise flat: neighbouring vertices often tie
        objective = estimation._censored_objective(paper_mc_series, 1, 1, 0, 1)
        x0 = estimation._starts(paper_mc_series, 1, 1, 0)[start]
        res, _ = self._assert_same(objective, x0, fatol=1e-9)
        assert res.nfev > 100

    def test_vertices_tied_on_a_constant_penalty(self):
        # the first simplex holds two vertices on the penalty and two tied
        # below it, values whose order np.argsort does not keep, so the
        # order of the ties picks the search's path
        def fun(x):
            if x[1] + x[2] <= 2.0:
                return estimation._PENALTY
            return (x[0] - 3.0) ** 2 + ((x[1] - 2.0) ** 2 + (x[2] - 2.0) ** 2)

        res, points = self._assert_same(fun, np.array([1.0, 1.0, 1.0]))
        first = [fun(x) for x in points[:4]]
        assert first[0] == first[1] == estimation._PENALTY and first[2] == first[3]
        assert res.success

    def test_contraction_tied_with_the_reflection_is_taken(self):
        # on this step function a contracted point once ties the reflected
        # one, and scipy keeps the contraction rather than shrink
        def fun(x):
            return float(np.sum(np.floor(3.0 * x) ** 2))

        self._assert_same(fun, np.array([2.0, -2.6, 0.4]))

    def test_zero_coordinate_steps_to_a_fixed_offset(self):
        x0 = np.array([0.0, 1.0, 0.0])
        _, points = self._assert_same(self._quadratic, x0)
        assert np.array_equal(points[1], [0.00025, 1.0, 0.0])
        assert np.array_equal(points[2], [0.0, 1.05, 0.0])
        assert np.array_equal(points[3], [0.0, 1.0, 0.00025])

    @pytest.mark.parametrize(
        "fun, x0",
        [
            # unbounded below: expansions until the calls run out
            (lambda x: -float(x @ x), [0.3, 0.7, -1.2]),
            # values that jump at every step: the calls run out inside a
            # shrink, whose vertices already moved are kept
            (lambda x: float(np.sin(x @ [1e3, 2e3, 3e3]) * 1e4 % 1.0), [1.9, 0.5, -1.6]),
        ],
        ids=["unbounded", "inside-a-shrink"],
    )
    def test_exhausted_budget(self, fun, x0):
        res, _ = self._assert_same(fun, np.array(x0))
        assert not res.success and res.nfev == 1200

    def test_resume_from_final_simplex(self, paper_mc_series):
        objective = estimation._censored_objective(paper_mc_series, 1, 1, 0, 1)
        x0 = estimation._starts(paper_mc_series, 1, 1, 0)[0]
        coarse = _scipy_nelder_mead(objective, x0, fatol=1e-3, xatol=1e-3)
        res, _ = self._assert_same(objective, coarse.x, simplex=coarse.final_simplex[0])
        assert res.fun <= coarse.fun

    def test_lockstep_starts_match_their_solo_searches(self, paper_mc_series):
        # the nine CLADE starts share rounds until each converges; the
        # batch objective gives every row its one-row value
        objective = estimation._censored_objective(paper_mc_series, 1, 1, 0, 1)
        starts = estimation._starts(paper_mc_series, 1, 1, 0)
        batches = []

        def batch(rows):
            batches.append(rows.shape[0])
            return objective(rows)

        searches = [estimation._simplex_search(x0, fatol=1e-9) for x0 in starts]
        results = estimation._nelder_mead(batch, searches)
        for x0, res in zip(starts, results):
            _assert_equal_results(res, _solo(objective, x0, fatol=1e-9))
        assert batches[0] == 9 and sum(batches) == sum(res.nfev for res in results)
        assert len(batches) == max(res.nfev for res in results)

    def test_lockstep_mixes_searches_of_very_different_lengths(self):
        # a start at the optimum converges within a few rounds, a far one
        # takes hundreds, a resumed search starts from its own simplex and
        # an unbounded one spends its whole budget; each result comes back
        # in its search's place
        def fun(x):
            return self._quadratic(x) if x[0] < 50.0 else -float(x @ x)

        resume = np.array([[1.0, -2.0, 0.5], [1.2, -2.0, 0.5], [1.0, -1.7, 0.5], [1.0, -2.0, 0.9]])
        options = [
            {"x0": np.array([-40.0, 40.0, -30.0])},
            {"x0": np.array([1.0, -2.0, 0.5]), "fatol": 1e-2, "xatol": 0.1},
            {"x0": np.array([60.0, 1.0, 1.0])},
            {"x0": resume[0], "simplex": resume},
            {"x0": np.array([-20.0, 9.0, 4.0]), "fatol": 1e-3, "xatol": 1e-3},
        ]
        results, _ = _lockstep(fun, [estimation._simplex_search(**o) for o in options])
        solo = [_solo(fun, **o) for o in options]
        for res, alone in zip(results, solo):
            _assert_equal_results(res, alone)
        lengths = [res.nfev for res in results]
        assert lengths[1] < 10 and lengths[0] > 200
        assert lengths[2] == 1200 and not results[2].success


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

    @pytest.mark.parametrize(
        "order, theta",
        [((1, 1, 1), [2.0, -0.45, -0.25, 0.8]), ((2, 2), [3.0, -0.4, -0.1, -0.2, 0.1])],
    )
    def test_cls_jacobian_matches_central_differences(self, order, theta, series_by_order):
        series = series_by_order[order]
        p, q, r = estimation._orders(order, series)
        theta = np.array(theta)
        m = _mean_path(theta, series, p, q, r)[max(p, q):]
        # both sides of the censoring point, and no sign change in the stencil
        assert np.any(m < 0.0) and np.any(m > 0.0)
        assert not _stencil_crosses_kink(theta, series, p, q, r)
        residuals, jacobian = estimation._censored_residuals(series, p, q, r)
        numeric = np.empty((m.shape[0], theta.shape[0]))
        for i in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[i] = 1e-5 * (1.0 + abs(theta[i]))
            numeric[:, i] = (residuals(theta + e) - residuals(theta - e)) / (2.0 * e[i])
        np.testing.assert_allclose(jacobian(theta), numeric, rtol=1e-6, atol=1e-6)

    def test_each_fit_builds_its_mean_kernels_once(self, series_11, bounded_11, monkeypatch):
        # the CLS objective holds one kernel and its residuals and Jacobian
        # share another; CLADE's objective holds one, and the likelihood of
        # an MLE fit, bounded or not, holds one; no call builds more
        builds = []
        kernel = estimation._mean_kernel

        def counted(*args, **kwargs):
            builds.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(estimation, "_mean_kernel", counted)
        fit_cls(series_11, (1, 1))
        assert 1 <= len(builds) <= 2
        builds.clear()
        fit_clade(series_11, (1, 1))
        assert len(builds) == 1
        for scenario in (SC1, SC2):
            builds.clear()
            fit_mle(series_11, (1, 1), scenario)
            assert len(builds) == 1
        builds.clear()
        fit_stbingarch_mle(bounded_11, (1, 1), bound=5)
        assert len(builds) == 1

    def test_cls_without_an_admissible_result_is_the_simplex_multi_start(
        self, series_11, monkeypatch
    ):
        # every Gauss-Newton run ending past stationarity drops them all
        def outside(fun, x0, **kwargs):
            return optimize.OptimizeResult(x=np.array([1.0, 0.6, 0.6]), success=True, njev=3)

        monkeypatch.setattr(estimation.optimize, "least_squares", outside)
        fit = fit_cls(series_11, (1, 1))
        objective = estimation._censored_objective(series_11, 1, 1, 0, 2)
        runs = [_solo(objective, x0, fatol=1e-9) for x0 in estimation._starts(series_11, 1, 1, 0)]
        best = min(runs, key=lambda res: (res.fun, float(np.linalg.norm(res.x))))
        assert np.array_equal(fit.estimates, best.x)
        assert fit.objective == best.fun and fit.converged == best.success
        assert fit.iterations == 3 * len(runs) + sum(res.nit for res in runs)

    @staticmethod
    def _counted_least_squares(monkeypatch, first_fails=None):
        # the result of every Gauss-Newton run; ``first_fails`` names the
        # part of the rule the first run is made to fail: "success" marks it
        # unsuccessful, "optimality" puts it away from a first-order point
        runs = []
        least_squares = optimize.least_squares

        def counted(*args, **kwargs):
            res = least_squares(*args, **kwargs)
            if first_fails == "success" and not runs:
                res.success = False
            elif first_fails == "optimality" and not runs:
                res.optimality = math.inf
            runs.append(res)
            return res

        monkeypatch.setattr(estimation.optimize, "least_squares", counted)
        return runs

    @staticmethod
    def _nine_start_cls(series, orders, runs=None):
        # the Gauss-Newton multi-start over all nine starts, the best by
        # (objective, |theta|): (objective, estimates, success, iterations);
        # given the ``runs`` of a fit, their results in place of fresh ones
        p, q, r = estimation._orders(orders, series)
        objective = estimation._censored_objective(series, p, q, r, 2)
        residuals, jacobian = estimation._censored_residuals(series, p, q, r)
        kept, iterations = [], 0
        starts = [x0 for x0 in estimation._starts(series, p, q, r)
                  if not estimation._stationarity_penalty(x0.tolist(), p, q)]
        for i, x0 in enumerate(starts):
            res = runs[i] if runs is not None else optimize.least_squares(
                residuals, x0, jac=jacobian, method="trf",
                ftol=estimation._GN_TOL, xtol=estimation._GN_TOL, gtol=estimation._GN_TOL,
            )
            iterations += int(res.njev)
            value = objective(res.x)
            if value < estimation._PENALTY / 2:
                kept.append((value, float(np.linalg.norm(res.x)), res.x, bool(res.success)))
        value, _, est, success = min(kept, key=lambda run: run[:2])
        return value, est, success, iterations

    def test_accepted_moment_start_is_the_only_gauss_newton_run(self, series_11, monkeypatch):
        runs = self._counted_least_squares(monkeypatch)
        fit = fit_cls(series_11, (1, 1))
        assert len(runs) == 1 and runs[0].success
        assert np.array_equal(fit.estimates, runs[0].x) and fit.converged
        assert fit.iterations == runs[0].njev
        assert runs[0].optimality <= estimation._GN_FIRST_ORDER * (1.0 + fit.objective)

    @pytest.mark.parametrize("first_fails", ["success", "optimality"])
    def test_first_run_failing_the_rule_runs_all_nine_starts(self, first_fails, series_11, monkeypatch):
        runs = self._counted_least_squares(monkeypatch, first_fails)
        fit = fit_cls(series_11, (1, 1))
        assert len(runs) == 9
        value, est, success, iterations = self._nine_start_cls(series_11, (1, 1), runs)
        assert np.array_equal(fit.estimates, est)
        assert (fit.objective, fit.converged, fit.iterations) == (value, success, iterations)

    @pytest.mark.parametrize("case", ["11-mc420", "11-covariate", "85-zeros"])
    def test_cls_objective_is_no_higher_than_nine_starts(self, case):
        if case == "85-zeros":
            series = simulate(TestFitDriver.ZIGZAG, 1000, rng=np.random.default_rng(7))
        else:
            series = TestDerivativeStagesAgainstSimplex._series(case)
        value = self._nine_start_cls(series, (1, 1))[0]
        fit = fit_cls(series, (1, 1))
        assert fit.converged
        assert fit.objective <= value + 1e-12 * (1.0 + abs(value))

    @pytest.mark.parametrize(
        "case, estimates, objective, iterations",
        [
            (
                "11-mc420",
                [2.4999999986076356, 0.4999999997798267, 4.1036675909006756e-10],
                442.0000000007639,
                1915,
            ),
            (
                "11-covariate",
                [8.340503463437871, -0.4950727770184322, -0.2186382944625269, 0.8880631796069682],
                1035.9990206980167,
                4077,
            ),
        ],
    )
    def test_clade_fit_is_pinned(self, case, estimates, objective, iterations):
        # the sequential multi-start's fit; the lockstep searches repeat it
        series = TestDerivativeStagesAgainstSimplex._series(case)
        fit = fit_clade(series, TestDerivativeStagesAgainstSimplex.ORDERS[case])
        assert fit.estimates.tolist() == estimates
        assert (fit.objective, fit.iterations, fit.converged) == (objective, iterations, True)

    @pytest.mark.parametrize("fitter", [fit_clade, fit_cls])
    @pytest.mark.parametrize("orders", [(0, 0), (1, 0)])
    def test_no_spec_without_a_dispersion_estimate(self, series_10, fitter, orders):
        # the deviation fits estimate no delta, so they report no model
        assert fitter(series_10, orders).spec is None

    @pytest.mark.parametrize("fitter", [fit_clade, fit_cls])
    @pytest.mark.parametrize("orders", [(0, 0), (1, 0), (1, 1)])
    def test_window_without_a_positive_count_is_refused(self, fitter, orders):
        # every parameter keeping all M_t <= 0 attains the objective 0; the
        # positive count sits in the conditioning prefix (or, for (0, 0),
        # there is none)
        counts = np.zeros(60, dtype=int)
        counts[0] = 0 if orders == (0, 0) else 4
        with pytest.raises(ValueError, match="no positive count"):
            fitter(CountSeries(counts), orders)


class TestDerivativeStagesAgainstSimplex:
    """Logliks and CLS objectives of the simplex-only pipelines (Nelder-Mead
    passes for the MLE, a Nelder-Mead multi-start for CLS) on these series,
    recorded as literals.  The derivative stages may do better, never worse
    beyond 1e-9 (1 + |v|)."""

    @staticmethod
    def _series(case):
        if case == "10":
            return simulate(
                ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25), 300,
                rng=np.random.default_rng(76),
            )
        if case == "11":
            return simulate(TestFitDriver.PAPER_DGP, 250, rng=np.random.default_rng(70))
        if case == "11-mc420":  # the series mc_study(..., seed=420) simulates
            stream = np.random.SeedSequence(420).spawn(1)[0]
            rng = np.random.Generator(np.random.PCG64(stream))
            return simulate(
                TestFitDriver.PAPER_DGP, 250, burn_in=500, rng=rng, warn_nonstationary=False
            )
        if case == "11-zeros":  # 83% zeros
            return simulate(
                ModelSpec(alpha0=-0.5, alphas=(0.4,), betas=(0.3,), delta=1.0), 600,
                rng=np.random.default_rng(37),
            )
        spec = ModelSpec(alpha0=8.5, alphas=(-0.45,), betas=(-0.25,), gammas=(0.8,), delta=0.25)
        z = np.random.default_rng(35).standard_normal((600, 1))
        return simulate(spec, 600, rng=np.random.default_rng(36), covariates=z)

    ORDERS = {
        "10": (1, 0), "11": (1, 1), "11-mc420": (1, 1), "11-zeros": (1, 1), "11-covariate": (1, 1)
    }

    # (case, scenario-1 delta or None for scenario 2, simplex loglik)
    @pytest.mark.parametrize(
        "case, delta, simplex",
        [
            ("10", 0.25, -680.0188969092359),
            ("10", None, -678.248793594337),
            ("11", 0.25, -559.5058017398806),
            ("11", None, -559.4722175948673),
            ("11-mc420", 0.25, -549.3843035745717),
            ("11-mc420", None, -549.014618250859),
            ("11-zeros", 1.0, -335.1399417964592),
            ("11-zeros", None, -335.5229136584994),
            ("11-covariate", 0.25, -1295.4897452891098),
            ("11-covariate", None, -1295.3738817521735),
        ],
    )
    def test_mle_loglik_is_no_lower(self, case, delta, simplex):
        fit = fit_mle(self._series(case), self.ORDERS[case], delta)
        assert fit.converged
        assert fit.loglik >= simplex - 1e-9 * (1.0 + abs(simplex))

    @pytest.mark.parametrize(
        "case, simplex",
        [
            ("10", 1767.009063668486),
            ("11", 1336.6563250863496),
            # least_squares' default tolerances stop 4.8e-9 (1 + |v|) above it
            ("11-mc420", 1314.9989569380764),
            ("11-zeros", 162.80386587917872),
            ("11-covariate", 2934.701900405717),
        ],
    )
    def test_cls_objective_is_no_higher(self, case, simplex):
        fit = fit_cls(self._series(case), self.ORDERS[case])
        assert fit.converged
        assert fit.objective <= simplex + 1e-9 * (1.0 + abs(simplex))


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

    @pytest.mark.parametrize(
        "dgp",
        [
            ModelSpec(alpha0=1.0, alphas=(0.3,), delta=0.25, bound=5, kappa=0.2),
            ModelSpec(alpha0=1.0, alphas=(0.3,), delta=0.25, bound=5),
            ModelSpec(alpha0=1.0, alphas=(0.3,), delta=0.25, gammas=(0.5,)),
        ],
        ids=["bounded-kappa", "bounded", "covariates"],
    )
    def test_dgp_outside_the_fitted_model_is_refused(self, dgp):
        with pytest.raises(ValueError, match="unbounded model without covariates"):
            mc_study(dgp, n=100, replications=2, methods=("cls",))

    def test_unknown_method_rejected(self):
        spec = ModelSpec(alpha0=5.0, delta=0.25)
        with pytest.raises(ValueError):
            mc_study(spec, n=100, replications=2, methods=("bogus",))

    @pytest.mark.parametrize("methods", [("mle", "mle"), ("cls", "mle", "cls")])
    def test_repeated_method_rejected(self, methods):
        spec = ModelSpec(alpha0=5.0, alphas=(0.25,), delta=0.25)
        with pytest.raises(ValueError, match="more than once"):
            mc_study(spec, n=100, replications=2, methods=methods)

    def test_pool_has_no_more_workers_than_replications(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Serial:
            # records the pool size and runs the replications in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Serial)
        spec = ModelSpec(alpha0=5.0, alphas=(0.25,), delta=0.25)
        pooled = mc_study(spec, n=100, replications=2, methods=("cls",), seed=9, jobs=64)
        mc_study(spec, n=100, replications=3, methods=("cls",), seed=9, jobs=2)
        serial = mc_study(spec, n=100, replications=2, methods=("cls",), seed=9, jobs=1)
        assert sizes == [2, 2]
        assert np.array_equal(pooled.means["cls"], serial.means["cls"])

    def test_pool_deals_each_worker_an_even_share(self, monkeypatch):
        import concurrent.futures

        worker_of = []

        class RoundRobin:
            # deals the chunks that map is asked for to the workers in turn,
            # as equally fast workers take them off the queue, records the
            # worker of each replication and runs them in this process
            def __init__(self, max_workers):
                self.workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                for i in range(len(tasks)):
                    worker_of.append(i // chunksize % self.workers)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RoundRobin)
        spec = ModelSpec(alpha0=5.0, alphas=(0.25,), delta=0.25)
        serial = mc_study(spec, n=100, replications=10, methods=("cls",), seed=9, jobs=1)
        for jobs in (2, 3):
            worker_of.clear()
            pooled = mc_study(spec, n=100, replications=10, methods=("cls",), seed=9, jobs=jobs)
            assert len(worker_of) == 10
            assert max(worker_of.count(w) for w in range(jobs)) <= math.ceil(10 / jobs)
            assert np.array_equal(pooled.means["cls"], serial.means["cls"])
            assert np.array_equal(pooled.simulated_se["cls"], serial.simulated_se["cls"])

    MC_ARGV = "mc-study --alpha0 2 --alpha1 0.4 --delta 0.25 --n 100 --replications 2 --methods cls"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_cli_refuses_jobs_below_one(self, jobs, capsys):
        assert cli.main([*self.MC_ARGV.split(), "--jobs", jobs]) == cli.EXIT_CONFIG
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_cli_reads_no_jobs_environment_variable(self, monkeypatch, tmp_path):
        # the worker count comes from --jobs alone
        monkeypatch.setenv("TOBITCOUNT_JOBS", "abc")
        out = tmp_path / "mc.json"
        assert cli.main([*self.MC_ARGV.split(), "--output", str(out)]) == cli.EXIT_OK

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

    def test_scenario2_survives_a_refused_trial_dispersion(self):
        # on this replication Nelder-Mead walks log(delta) down the flat
        # delta -> 0 valley and then steps to +34.6, a delta of 1e15 that the
        # kernels refuse
        spec = ModelSpec(alpha0=2.0, alphas=(0.4,), betas=(0.2,), delta=0.25)
        result = mc_study(
            spec, n=250, replications=1, methods=("mle",), scenario=None, seed=460486347
        )
        assert result.failures == {"mle": 0}
        assert result.optimizer_regressions == 0
        assert np.all(np.isfinite(result.means["mle"]))
