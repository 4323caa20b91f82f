"""Tests for the TINARS(1), bounded one-inflated, and covariate variants."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln, pdtr, xlog1py, xlogy

from tobitcount import cli, estimation, extensions
from tobitcount.diagnostics import pearson_residuals, sample_acf
from tobitcount.estimation import EstimationScenario, fit_mle, loglik
from tobitcount.extensions import (
    TinarsSpec,
    fit_stbingarch_mle,
    fit_tinars1_mle,
    signed_binomial_thinning,
    simulate_tinars1,
    stbingarch_conditional_moments,
    tinars1_transition,
    tinars_conditional_moments,
)
from tobitcount.skellam import SkellamStar
from tobitcount.specialfn import PrecisionError
from tobitcount.stingarch import (
    CountSeries,
    ModelSpec,
    conditional_mean_path,
    conditional_pmf,
    simulate,
)


class TestSignedThinning:
    def test_zero_input_always_zero(self):
        rng = np.random.default_rng(0)
        assert all(signed_binomial_thinning(0.5, 0, rng) == 0 for _ in range(200))

    def test_negative_coefficient_mean(self):
        rng = np.random.default_rng(1)
        draws = np.array([signed_binomial_thinning(-0.4, 5, rng) for _ in range(100_000)])
        se = math.sqrt(5 * 0.4 * 0.6 / 100_000)
        assert abs(draws.mean() + 2.0) < 4.0 * se

    def test_negative_input_sign_convention(self):
        rng = np.random.default_rng(2)
        draws = np.array([signed_binomial_thinning(0.3, -4, rng) for _ in range(100_000)])
        se = math.sqrt(4 * 0.3 * 0.7 / 100_000)
        assert abs(draws.mean() + 1.2) < 4.0 * se

    def test_coefficient_domain(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            signed_binomial_thinning(1.0, 3, rng)


class TestTinarsTransition:
    @pytest.mark.parametrize("alpha1", [-0.4, 0.5])
    def test_rows_sum_to_one(self, alpha1):
        spec = TinarsSpec(alpha1=alpha1, innovation_mean=5.0)
        for x_prev in range(21):
            total = sum(tinars1_transition(y, x_prev, spec) for y in range(90))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_state_is_censored_poisson(self):
        spec = TinarsSpec(alpha1=-0.4, innovation_mean=5.0)
        assert tinars1_transition(0, 0, spec) == pytest.approx(math.exp(-5.0), rel=1e-12)
        for y in (1, 3, 8):
            expected = math.exp(-5.0) * 5.0**y / math.factorial(y)
            assert tinars1_transition(y, 0, spec) == pytest.approx(expected, rel=1e-12)

    def test_negative_coefficient_forces_zero_from_large_states(self):
        spec = TinarsSpec(alpha1=-0.8, innovation_mean=1.0)
        # brute-force oracle: thinning pulls the latent value far below zero
        p0 = tinars1_transition(0, 40, spec)
        assert p0 > 0.999

    def test_positive_coefficient_zero_state_literal(self):
        # for alpha1 > 0 only the j = 0 thinning outcome can land at zero
        spec = TinarsSpec(alpha1=0.5, innovation_mean=2.0)
        expected = (1 - 0.5) ** 3 * math.exp(-2.0)
        assert tinars1_transition(0, 3, spec) == pytest.approx(expected, rel=1e-12)

    def test_conditional_moments_match_rows(self):
        spec = TinarsSpec(alpha1=-0.4, innovation_mean=5.0)
        means, variances = tinars_conditional_moments(spec, np.array([0, 4, 11]))
        for i, x_prev in enumerate((0, 4, 11)):
            probs = np.array([tinars1_transition(y, x_prev, spec) for y in range(80)])
            ys = np.arange(80, dtype=float)
            mean_bf = float(probs @ ys)
            var_bf = float(probs @ ys**2) - mean_bf**2
            assert means[i] == pytest.approx(mean_bf, rel=1e-9)
            assert variances[i] == pytest.approx(var_bf, rel=1e-9)


# Reference for the grid kernel: the per-pair scalar sums it replaced, as
# they were, except that ln k! comes from math.lgamma and the row variance
# is centred (E[X^2] - mean^2 loses about 1e-10 at a mean of 80).
def _ref_log_factorials(m):
    return np.array([math.lgamma(k + 1.0) for k in range(m + 1)])


def _ref_poisson_log_pmf(k, rate):
    lf = _ref_log_factorials(int(k.max(initial=0)))
    with np.errstate(divide="ignore"):
        return -rate + k * math.log(rate) - lf[k]


def _ref_binomial_pmf_vector(n, prob):
    if n == 0:
        return np.ones(1)
    lf = _ref_log_factorials(n)
    j = np.arange(n + 1)
    if prob == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    logs = lf[n] - lf[j] - lf[n - j] + j * math.log(prob) + (n - j) * math.log1p(-prob)
    return np.exp(logs)


def _ref_transition(x_next, x_prev, spec):
    rate = spec.innovation_mean
    sgn_a = 1 if spec.alpha1 >= 0 else -1
    bin_w = _ref_binomial_pmf_vector(x_prev, abs(spec.alpha1))
    j = np.arange(x_prev + 1)
    if x_next > 0:
        eps = x_next - sgn_a * j
        valid = eps >= 0
        if not np.any(valid):
            return 0.0
        logs = _ref_poisson_log_pmf(eps[valid].astype(np.int64), rate)
        return float(np.sum(bin_w[valid] * np.exp(logs)))
    total = 0.0
    for weight, c in zip(bin_w, -sgn_a * j):
        if c < 0:
            continue
        ks = np.arange(c + 1, dtype=np.int64)
        total += weight * float(np.exp(_ref_poisson_log_pmf(ks, rate)).sum())
    return total


def _order_zero_reference(prev, nxt, spec):
    # _transition_arr as it was before it gained a derivative order, which
    # its order-0 path reproduces bit for bit
    a, sgn, rate = abs(spec.alpha1), 1 if spec.alpha1 >= 0 else -1, spec.innovation_mean
    prevs, row = np.unique(prev, return_inverse=True)
    nxts, col = np.unique(nxt, return_inverse=True)
    j = np.arange(prevs[-1] + 1)
    log_fact = gammaln(np.arange(1, prevs[-1] + nxts[-1] + 2))
    rest = prevs[:, None] - j
    kept = np.maximum(rest, 0)
    log_w = (
        log_fact[prevs][:, None] - log_fact[j] - log_fact[kept]
        + xlogy(j, a) + xlog1py(kept, -a)
    )
    weights = np.where(rest >= 0, np.exp(log_w), 0.0)
    k = nxts - sgn * j[:, None]
    k_c = np.maximum(k, 0)
    terms = np.exp(xlogy(k_c, rate) - rate - log_fact[k_c])
    terms[:, nxts == 0] = pdtr(k_c[:, nxts == 0], rate)
    terms = np.where(k >= 0, terms, 0.0)
    return (weights @ terms)[row, col]


def _pair_grid(rows: int, cols: int):
    return (g.ravel() for g in np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij"))


def _ref_moments(spec, x_prev):
    means, variances = [], []
    for xp in x_prev:
        rate = spec.innovation_mean
        cap = int(math.ceil(rate + xp + 12.0 * math.sqrt(rate + xp + 1.0))) + 10
        row = np.array([_ref_transition(y, int(xp), spec) for y in range(cap + 1)])
        ys = np.arange(cap + 1, dtype=float)
        mean = float(row @ ys)
        means.append(mean)
        variances.append(float(row @ (ys - mean) ** 2))
    return np.array(means), np.array(variances)


class TestTransitionKernel:
    ALPHAS = (-0.9, -0.5, 0.0, 0.4, 0.9)
    RATES = (0.3, 2.0, 7.5)

    @pytest.mark.parametrize("alpha1", ALPHAS)
    @pytest.mark.parametrize("rate", RATES)
    def test_matches_scalar_sums(self, alpha1, rate):
        spec = TinarsSpec(alpha1=alpha1, innovation_mean=rate)
        prev, nxt = _pair_grid(61, 61)
        # a masked inf or nan leaking into the product would raise here
        with np.errstate(all="raise"):
            got = extensions._transition_arr(prev, nxt, spec)
        ref = np.array([_ref_transition(y, x, spec) for x, y in zip(prev, nxt)])
        assert np.all(got[ref == 0.0] == 0.0)
        positive = ref > 0.0
        np.testing.assert_allclose(got[positive], ref[positive], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha1", ALPHAS)
    @pytest.mark.parametrize("rate", RATES)
    def test_order_zero_is_unchanged(self, alpha1, rate):
        spec = TinarsSpec(alpha1=alpha1, innovation_mean=rate)
        prev, nxt = _pair_grid(61, 61)
        with np.errstate(all="raise"):
            got = extensions._transition_arr(prev, nxt, spec)
            probs = extensions._transition_arr(prev, nxt, spec, order=2)[0]
        assert np.array_equal(got, _order_zero_reference(prev, nxt, spec))
        np.testing.assert_allclose(probs, got, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("alpha1", [-0.9, -0.5, 0.4, 0.9])
    @pytest.mark.parametrize("rate", RATES)
    def test_derivatives_match_central_differences(self, alpha1, rate):
        prev, nxt = _pair_grid(61, 61)
        h = 1e-4

        def at(d_rate, d_alpha):
            spec = TinarsSpec(alpha1=alpha1 + d_alpha, innovation_mean=rate + d_rate)
            return extensions._transition_arr(prev, nxt, spec)

        # a masked inf or nan leaking into the product would raise here
        with np.errstate(all="raise"):
            _, first, second = extensions._transition_arr(
                prev, nxt, TinarsSpec(alpha1=alpha1, innovation_mean=rate), order=2
            )
            probs = at(0.0, 0.0)
            numeric = [
                ((at(h, 0.0) - at(-h, 0.0)) / (2.0 * h), first[:, 0]),
                ((at(0.0, h) - at(0.0, -h)) / (2.0 * h), first[:, 1]),
                ((at(h, 0.0) - 2.0 * probs + at(-h, 0.0)) / h**2, second[:, 0, 0]),
                ((at(0.0, h) - 2.0 * probs + at(0.0, -h)) / h**2, second[:, 1, 1]),
                ((at(h, h) - at(h, -h) - at(-h, h) + at(-h, -h)) / (4.0 * h**2), second[:, 0, 1]),
            ]
        assert np.array_equal(second[:, 0, 1], second[:, 1, 0])
        # the differences are good to about 5e-6 of each derivative's largest value
        for want, got in numeric:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-5 * np.abs(got).max())

    @pytest.mark.parametrize("alpha1", ALPHAS)
    @pytest.mark.parametrize("rate", RATES)
    def test_rows_sum_to_one(self, alpha1, rate):
        spec = TinarsSpec(alpha1=alpha1, innovation_mean=rate)
        prev, nxt = _pair_grid(61, 121)
        # far-tail probabilities below 1e-308 underflow to 0, which is right
        with np.errstate(all="raise", under="ignore"):
            rows = extensions._transition_arr(prev, nxt, spec).reshape(61, 121)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("alpha1", [-0.45, 0.0, 0.4])
    @pytest.mark.parametrize("rate", [2.0, 80.0])
    def test_moments_match_row_summation(self, alpha1, rate):
        spec = TinarsSpec(alpha1=alpha1, innovation_mean=rate)
        x_prev = np.array([0, 1, 2, 5, 13, 30, 60, 5, 0])
        means, variances = tinars_conditional_moments(spec, x_prev)
        ref_means, ref_variances = _ref_moments(spec, x_prev)
        np.testing.assert_allclose(means, ref_means, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(variances, ref_variances, rtol=1e-12, atol=1e-12)


def _counted_stencils(monkeypatch) -> list:
    """The results of every ``numerical_hessian`` call the fits make.

    Every likelihood fit has analytic derivatives, so the stencil runs only
    at a kink: ``alpha1 = 0`` for TINARS(1), a conditional mean at or below
    zero for a :class:`ModelSpec`.
    """
    results = []
    stencil = estimation.numerical_hessian

    def counted(*args):
        results.append(stencil(*args))
        return results[-1]

    monkeypatch.setattr(estimation, "numerical_hessian", counted)
    return results


class TestTinarsFit:
    def test_reduces_to_ordinary_inar_for_positive_coefficient(self):
        spec = TinarsSpec(alpha1=0.5, innovation_mean=3.0)
        series = simulate_tinars1(spec, 200_000, rng=np.random.default_rng(40))
        assert series.counts.min() >= 0
        acf1 = sample_acf(series.counts, 1)[0]
        assert acf1 == pytest.approx(0.5, abs=0.01)

    def test_self_consistency_recovery(self):
        spec = TinarsSpec(alpha1=-0.4, innovation_mean=5.0)
        series = simulate_tinars1(spec, 100_000, rng=np.random.default_rng(41))
        fit = fit_tinars1_mle(series)
        assert fit.hessian_invertible
        assert abs(fit.estimates[0] - 5.0) < 3.0 * fit.std_errors[0]
        assert abs(fit.estimates[1] + 0.4) < 3.0 * fit.std_errors[1]

    def test_zero_coefficient_dgp(self):
        spec = TinarsSpec(alpha1=1e-12, innovation_mean=4.0)
        series = simulate_tinars1(spec, 20_000, rng=np.random.default_rng(42))
        fit = fit_tinars1_mle(series)
        assert abs(fit.estimates[1]) < 3.0 * max(fit.std_errors[1], 1e-3)

    def test_strong_negative_dependence_is_overdispersed(self):
        spec = TinarsSpec(alpha1=-0.45, innovation_mean=80.0)
        series = simulate_tinars1(spec, 30_000, rng=np.random.default_rng(43))
        x = series.counts.astype(float)
        assert x.var() / x.mean() > 2.0

    def test_all_zero_series_refused(self):
        with pytest.raises(ValueError, match="no positive count"):
            fit_tinars1_mle(CountSeries(np.zeros(200, dtype=np.int64)))

    def test_alpha_running_to_the_boundary_is_refused(self, tmp_path):
        # alternating 0, 3 pulls alpha1 to -1, where tanh rounds to -1.0
        series = CountSeries(np.tile([0, 3], 100))
        with pytest.raises(ValueError, match="no interior maximum: alpha1 runs to -1"):
            fit_tinars1_mle(series)
        path = tmp_path / "alternating.csv"
        path.write_text("count\n" + "0\n3\n" * 100)
        assert cli.main(["fit", "--model", "tinars1", "--input", str(path)]) == cli.EXIT_NUMERICAL

    def test_strong_negative_dependence_still_fits(self):
        fit = fit_tinars1_mle(CountSeries(np.tile([0, 5, 1], 100)))
        assert fit.converged and fit.hessian_invertible
        assert -1.0 < fit.estimates[1] < 0.0

    def test_penalty_valued_optimum_raises(self, monkeypatch):
        monkeypatch.setattr(extensions, "_tinars_loglik_pairs", lambda *args: -math.inf)
        with pytest.raises(ArithmeticError):
            fit_tinars1_mle(CountSeries(np.array([1, 0, 2, 3, 0, 1])))

    def test_loglik_is_the_likelihood_at_the_estimates(self):
        series = simulate_tinars1(
            TinarsSpec(alpha1=-0.4, innovation_mean=5.0), 500, rng=np.random.default_rng(45)
        )
        fit = fit_tinars1_mle(series)
        assert fit.std_errors is not None
        pairs, counts = extensions._transition_pair_counts(series.counts)
        assert fit.loglik == extensions._tinars_loglik_pairs(fit.spec, pairs, counts)

    def test_kink_free_fit_runs_no_stencil(self, monkeypatch):
        # alpha1 is not 0 at the estimates, so the analytic Hessian certifies
        # the point and gives the standard errors, which match a stencil's
        # to 1e-5 relative
        series = simulate_tinars1(
            TinarsSpec(alpha1=-0.4, innovation_mean=5.0), 500, rng=np.random.default_rng(45)
        )
        hessians = _counted_stencils(monkeypatch)
        fit = fit_tinars1_mle(series)
        assert hessians == [] and fit.converged and fit.hessian_invertible
        pairs, counts = extensions._transition_pair_counts(series.counts)
        hess = extensions._tinars_score_hessian(fit.spec, pairs, counts)[1]
        assert np.array_equal(fit.std_errors, estimation._se_from_loglik_hessian(hess))
        numeric = estimation.numerical_hessian(
            lambda t: extensions._tinars_loglik_pairs(TinarsSpec(t[1], t[0]), pairs, counts),
            fit.estimates, estimation._difference_steps(fit.estimates, ("positive", "signed")),
        )
        np.testing.assert_allclose(
            fit.std_errors, estimation._se_from_loglik_hessian(numeric[1]), rtol=1e-5, atol=0.0
        )

    def test_point_derivatives_at_zero_run_the_stencil(self, monkeypatch):
        # alpha1 = 0 is the kink of the sign convention sgn(0) = 1, where the
        # analytic derivatives are one-sided
        series = simulate_tinars1(
            TinarsSpec(alpha1=0.3, innovation_mean=2.0), 400, rng=np.random.default_rng(46)
        )
        calls = []
        monkeypatch.setattr(extensions, "_fit", lambda *args, **kwargs: calls.append((args, kwargs)))
        fit_tinars1_mle(series)
        [((natural_loglik, _, kinds, *_), kwargs)] = calls
        kink_free = kwargs["kink_free"]
        assert kink_free(np.array([2.0, 1e-300])) and kink_free(np.array([2.0, -1e-300]))
        hessians = _counted_stencils(monkeypatch)
        for zero in (0.0, -0.0):
            local = estimation._point_derivatives(
                natural_loglik, np.array([2.0, zero]), kinds, kwargs["derivatives"], kink_free
            )
            assert local is hessians[-1]
        assert len(hessians) == 2

    # (spec, n, seed, estimates, loglik, standard errors), recorded as
    # literals from the simplex-and-stencil path the fit took without
    # analytic derivatives.  The Newton path reaches the same maximum: its
    # loglik is no lower beyond 1e-9 (1 + |loglik|), and its estimates and
    # standard errors agree to 1e-6 and 1e-5 relative.
    @pytest.mark.parametrize(
        "spec, n, seed, estimates, ll, std_errors",
        [
            (
                TinarsSpec(alpha1=-0.4, innovation_mean=5.0), 500, 45,
                [5.25268085454162, -0.4659498549606957], -1065.5081060727273,
                [0.18303525371841492, 0.044649062081833384],
            ),
            (
                TinarsSpec(alpha1=0.3, innovation_mean=2.0), 400, 46,
                [2.1078158530611515, 0.26891337083960337], -748.1714378849139,
                [0.1447698405374579, 0.04540259967639249],
            ),
        ],
    )
    def test_fit_is_pinned(self, spec, n, seed, estimates, ll, std_errors):
        series = simulate_tinars1(spec, n, rng=np.random.default_rng(seed))
        fit = fit_tinars1_mle(series)
        assert fit.converged
        assert fit.loglik >= ll - 1e-9 * (1.0 + abs(ll))
        np.testing.assert_allclose(fit.estimates, estimates, rtol=1e-6, atol=0.0)
        np.testing.assert_allclose(fit.std_errors, std_errors, rtol=1e-5, atol=0.0)

    def test_pearson_residuals_dispatch(self):
        spec = TinarsSpec(alpha1=-0.4, innovation_mean=5.0)
        series = simulate_tinars1(spec, 20_000, rng=np.random.default_rng(44))
        report = pearson_residuals(spec, series)
        assert abs(report.mean) < 4.0 / math.sqrt(20_000)
        assert report.variance == pytest.approx(1.0, abs=0.05)


class TestBoundedConditionalPmf:
    SPEC = ModelSpec(
        alpha0=0.787, alphas=(0.699,), betas=(-0.127,), delta=0.01, bound=5, kappa=0.118
    )

    @pytest.mark.parametrize("m", [-2.0, 1.5, 7.0])
    def test_sums_to_one(self, m):
        total = sum(conditional_pmf(x, m, self.SPEC) for x in range(6))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_unbounded_away_from_bound(self):
        wide = ModelSpec(alpha0=1.0, alphas=(0.3,), delta=0.25, bound=80, kappa=0.0)
        narrow = ModelSpec(alpha0=1.0, alphas=(0.3,), delta=0.25)
        for x in range(6):
            assert conditional_pmf(x, 2.0, wide) == pytest.approx(
                conditional_pmf(x, 2.0, narrow), abs=1e-10
            )

    def test_upper_cell_is_survival(self):
        from tobitcount.skellam import cdf

        spec = ModelSpec(alpha0=1.0, alphas=(0.3,), delta=0.01, bound=5, kappa=0.0)
        expected = 1.0 - cdf(4, SkellamStar(2.5, 0.01).to_params())
        assert conditional_pmf(5, 2.5, spec) == pytest.approx(
            expected, rel=1e-10
        )

    def test_mass_moves_to_bound_monotonically(self):
        spec = ModelSpec(alpha0=1.0, delta=0.01, bound=5, kappa=0.0)
        values = [conditional_pmf(5, m, spec) for m in np.linspace(0.0, 9.0, 19)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_two_point_support(self):
        spec = ModelSpec(alpha0=0.2, delta=0.25, bound=1, kappa=0.0)
        p0 = conditional_pmf(0, 0.2, spec)
        p1 = conditional_pmf(1, 0.2, spec)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"0\.\.5, got 6"):
            conditional_pmf(6, 1.0, self.SPEC)
        with pytest.raises(ValueError):
            conditional_pmf(-1, 1.0, self.SPEC)

    @pytest.mark.parametrize("delta", [0.0, 0.01])
    @pytest.mark.parametrize("m", [-2.0, 0.4, 3.0])
    def test_one_inflation_mixes_the_clipped_law(self, m, delta):
        spec = ModelSpec(alpha0=1.0, delta=delta, bound=5, kappa=0.118)
        plain = replace(spec, kappa=0.0)
        for x in range(6):
            want = 0.882 * conditional_pmf(x, m, plain) + 0.118 * (x == 1)
            assert conditional_pmf(x, m, spec) == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("m", [math.nan, -math.inf])
    def test_rejects_non_finite_mean(self, m):
        with pytest.raises(ValueError, match="finite"):
            conditional_pmf(1, m, self.SPEC)

    def test_poisson_boundary_moments(self):
        # delta = 0: kappa on 1 plus (1 - kappa) min(5, Poi(max(0, m))), by hand
        spec = ModelSpec(alpha0=1.0, delta=0.0, bound=5, kappa=0.1)
        m_path = np.array([-1.0, 0.0, 0.7, 3.0, 12.0])
        means, variances = stbingarch_conditional_moments(m_path, spec)
        for m, mean, variance in zip(m_path, means, variances):
            rate = max(m, 0.0)
            poisson = [math.exp(-rate) * rate**k / math.factorial(k) for k in range(80)]
            probs = [0.9 * p for p in poisson[:5]] + [0.9 * math.fsum(poisson[5:])]
            probs[1] += 0.1
            want_mean = math.fsum(k * p for k, p in enumerate(probs))
            want_var = math.fsum(k * k * p for k, p in enumerate(probs)) - want_mean**2
            assert mean == pytest.approx(want_mean, rel=0.0, abs=1e-12)
            assert variance == pytest.approx(want_var, rel=0.0, abs=1e-12)
            assert sum(conditional_pmf(x, m, spec) for x in range(6)) == pytest.approx(
                1.0, rel=0.0, abs=1e-12
            )

    def test_poisson_boundary_diagnose_is_finite(self, tmp_path):
        series = tmp_path / "bounded.csv"
        out = tmp_path / "diagnose.json"
        spec = ["--alpha0", "1", "--alpha1", "0.3", "--bound", "5"]
        sim = ["simulate", *spec, "--delta", "0.01", "--kappa", "0.1", "--n", "300", "--seed", "7"]
        assert cli.main([*sim, "--output", str(series)]) == cli.EXIT_OK
        argv = ["diagnose", *spec, "--delta", "0", "--input", str(series), "--output", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        payload = json.loads(out.read_text())
        values = [payload["mean"], payload["variance"], *payload["acf"]]
        assert all(math.isfinite(v) for v in values)

    def test_counts_above_the_bound_are_refused(self, tmp_path, capsys):
        # an unbounded series: its fit and its residuals under bound 2 both
        # refuse it, the CLI with the numerical exit code
        series = simulate(
            ModelSpec(alpha0=2.0, alphas=(0.4,), delta=0.25), 200, rng=np.random.default_rng(8)
        )
        assert series.counts.max() > 2
        spec = ModelSpec(alpha0=2.0, alphas=(0.4,), delta=0.25, bound=2)
        with pytest.raises(ValueError, match="series exceeds the declared bound"):
            pearson_residuals(spec, series)
        path = tmp_path / "unbounded.csv"
        path.write_text("count\n" + "".join(f"{v}\n" for v in series.counts))
        flags = ["--alpha0", "2", "--alpha1", "0.4", "--delta", "0.25", "--bound", "2"]
        fit = ["fit", "--model", "stbingarch", "--bound", "2", "-p", "1", "-q", "0"]
        for argv in (["diagnose", *flags, "--input", str(path)], [*fit, "--input", str(path)]):
            assert cli.main(argv) == cli.EXIT_NUMERICAL
            assert "series exceeds the declared bound" in capsys.readouterr().err

    def test_kappa_flag(self, tmp_path):
        series = tmp_path / "bounded.csv"
        spec = ["--alpha0", "1", "--alpha1", "0.3", "--delta", "0.01"]
        sim = ["simulate", *spec, "--n", "300", "--seed", "7", "--output", str(series)]
        assert cli.main([*sim, "--kappa", "0.1"]) == cli.EXIT_CONFIG
        assert cli.main([*sim, "--kappa", "0"]) == cli.EXIT_OK
        assert cli.main([*sim, "--bound", "5", "--kappa", "0.1"]) == cli.EXIT_OK
        # kappa reaches the conditional moments
        reports = []
        for kappa in ("0", "0.1"):
            out = tmp_path / f"diagnose{kappa}.json"
            argv = ["diagnose", *spec, "--bound", "5", "--kappa", kappa, "--input", str(series)]
            assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert reports[0]["mean"] != reports[1]["mean"]


class TestBoundedFit:
    def test_recovery_of_bounded_one_inflated_model(self):
        spec = ModelSpec(
            alpha0=0.787,
            alphas=(0.699,),
            betas=(-0.127,),
            delta=0.01,
            bound=5,
            kappa=0.118,
        )
        series = simulate(spec, 2000, burn_in=500, rng=np.random.default_rng(50))
        fit = fit_stbingarch_mle(series, (1, 1), bound=5, delta=0.01)
        assert fit.hessian_invertible
        truth = np.array([0.787, 0.699, -0.127, 0.118])
        assert np.all(np.abs(fit.estimates - truth) < 3.0 * fit.std_errors)

    def test_zero_inflation_boundary_handled(self):
        spec = ModelSpec(
            alpha0=0.8, alphas=(0.5,), betas=(), delta=0.25, bound=5, kappa=0.0
        )
        series = simulate(spec, 1500, burn_in=200, rng=np.random.default_rng(51))
        fit = fit_stbingarch_mle(series, (1, 0), bound=5, delta=0.25)
        assert fit.converged
        assert fit.estimates[-1] < 0.05

    def test_binary_support_fit_runs(self):
        spec = ModelSpec(alpha0=0.1, alphas=(0.4,), delta=0.25, bound=1, kappa=0.1)
        series = simulate(spec, 800, burn_in=100, rng=np.random.default_rng(52))
        fit = fit_stbingarch_mle(series, (1, 0), bound=1, delta=0.25)
        assert fit.converged

    def test_all_zero_series_refused(self):
        with pytest.raises(ValueError, match="no positive count"):
            fit_stbingarch_mle(CountSeries(np.zeros(200, dtype=np.int64)), (1, 1), bound=5)

    def test_penalty_valued_optimum_raises(self, monkeypatch):
        monkeypatch.setattr(estimation, "loglik", lambda *args: -math.inf)
        with pytest.raises(ArithmeticError):
            fit_stbingarch_mle(CountSeries(np.array([1, 0, 2, 3, 0, 1])), (1, 0), bound=5)

    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_non_positive_delta_refused(self, tmp_path, delta):
        series = CountSeries(np.tile([1, 0, 2, 3], 15))
        with pytest.raises(ValueError, match="delta must be positive"):
            fit_stbingarch_mle(series, (1, 0), bound=5, delta=delta)
        path = tmp_path / "counts.csv"
        path.write_text("count\n" + "1\n0\n2\n3\n" * 15)
        argv = ["fit", "--model", "stbingarch", "--bound", "5", "--delta", str(delta)]
        assert cli.main([*argv, "--input", str(path)]) == cli.EXIT_NUMERICAL

    @pytest.fixture(scope="class")
    def no_inflation_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bounded") / "kappa0.csv"
        spec = ["--alpha0", "1", "--alpha1", "0.3", "--beta1", "0.3", "--delta", "0.01"]
        sim = ["simulate", *spec, "--bound", "5", "--n", "1000", "--seed", "0"]
        assert cli.main([*sim, "--output", str(path)]) == cli.EXIT_OK
        return path

    def test_no_inflation_series_fits(self, no_inflation_csv, tmp_path):
        # on this series the logit of kappa runs below -709, past which
        # 1/(1 + exp(-logit)) overflows
        series = cli.ingest_csv(str(no_inflation_csv))
        fit = fit_stbingarch_mle(series, (1, 1), bound=5, delta=0.01)
        assert fit.estimates[-1] < 1e-5 and fit.spec.kappa == fit.estimates[-1]
        assert fit.std_errors is None and not fit.hessian_invertible
        scenario = EstimationScenario.fixed(0.01)
        assert fit.loglik == loglik(fit.estimates, series, (1, 1), scenario, 5)
        out = tmp_path / "fit.json"
        argv = ["fit", "--model", "stbingarch", "--bound", "5", "-p", "1", "-q", "1"]
        assert cli.main([*argv, "--input", str(no_inflation_csv), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["estimates"]["kappa"] < 1e-5 and payload["std_errors"] is None

    def test_loglik_is_the_likelihood_at_the_estimates(self):
        spec = ModelSpec(
            alpha0=0.787, alphas=(0.699,), betas=(-0.127,), delta=0.01, bound=5, kappa=0.118
        )
        series = simulate(spec, 400, burn_in=500, rng=np.random.default_rng(55))
        fit = fit_stbingarch_mle(series, (1, 1), bound=5, delta=0.01)
        assert fit.std_errors is not None
        scenario = EstimationScenario.fixed(0.01)
        assert fit.loglik == loglik(fit.estimates, series, (1, 1), scenario, 5)

    def test_kink_free_fit_runs_no_stencil(self, monkeypatch):
        # every mean is positive at the estimates, so the analytic Hessian
        # certifies the point and gives the standard errors, which match a
        # stencil's to 1e-5 relative
        spec = ModelSpec(
            alpha0=0.787, alphas=(0.699,), betas=(-0.127,), delta=0.01, bound=5, kappa=0.118
        )
        series = simulate(spec, 400, burn_in=500, rng=np.random.default_rng(55))
        hessians = _counted_stencils(monkeypatch)
        fit = fit_stbingarch_mle(series, (1, 1), bound=5, delta=0.01)
        assert hessians == [] and fit.converged and fit.hessian_invertible
        scenario = EstimationScenario.fixed(0.01)
        hess = estimation.analytic_score_hessian(fit.estimates, series, (1, 1), scenario, 5)[1]
        assert np.array_equal(fit.std_errors, estimation._se_from_loglik_hessian(hess))
        numeric = estimation.numerical_hessian(
            lambda t: loglik(t, series, (1, 1), scenario, 5), fit.estimates,
            estimation._difference_steps(fit.estimates, ("free",) * 3 + ("unit",)),
        )
        np.testing.assert_allclose(
            fit.std_errors, estimation._se_from_loglik_hessian(numeric[1]), rtol=1e-5, atol=0.0
        )

    # delta = 1e300 overflows lambda1 * lambda2 on its way to the refusal
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("delta", ["inf", "1e300"])
    def test_unusable_dispersion_is_refused(self, tmp_path, capsys, delta):
        series = CountSeries(np.tile([1, 0, 2, 3], 15))
        expected = "delta must be positive and finite" if delta == "inf" else r"mixing mean 5e\+299"
        error = ValueError if delta == "inf" else PrecisionError
        with pytest.raises(error, match=expected):
            fit_stbingarch_mle(series, (1, 0), bound=5, delta=float(delta))
        path = tmp_path / "counts.csv"
        path.write_text("count\n" + "1\n0\n2\n3\n" * 15)
        argv = ["fit", "--model", "stbingarch", "--bound", "5", "--delta", delta]
        assert cli.main([*argv, "--input", str(path)]) == cli.EXIT_NUMERICAL
        assert re.search(expected, capsys.readouterr().err)

    def test_spec_keeps_covariate_coefficients(self):
        z = (np.arange(400) % 2).astype(float).reshape(-1, 1)
        spec = ModelSpec(
            alpha0=0.5, alphas=(0.4,), betas=(0.1,), gammas=(1.0,), delta=0.01, bound=5, kappa=0.1
        )
        series = simulate(spec, 400, burn_in=0, rng=np.random.default_rng(54), covariates=z)
        fit = fit_stbingarch_mle(series, (1, 1), bound=5, delta=0.01)
        assert fit.param_names[3] == "gamma1"
        assert fit.spec.gammas == tuple(fit.estimates[3:4])

    def test_bound_violation_rejected(self):
        series = CountSeries(np.array([0, 3, 7]))
        with pytest.raises(ValueError):
            fit_stbingarch_mle(series, (1, 0), bound=5, delta=0.25)

    @pytest.mark.parametrize("bound", [0, -2, 1.5, 5.0, True])
    def test_bound_that_is_not_a_positive_integer_refused(self, tmp_path, capsys, bound):
        # refused before the series check, which bound = 0 would fail too
        series = CountSeries(np.tile([1, 0, 2, 3], 15))
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            fit_stbingarch_mle(series, (1, 0), bound=bound, delta=0.25)
        if isinstance(bound, int) and not isinstance(bound, bool):
            path = tmp_path / "counts.csv"
            path.write_text("count\n" + "1\n0\n2\n3\n" * 15)
            argv = ["fit", "--model", "stbingarch", "--bound", str(bound), "--input", str(path)]
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert "bound must be a positive integer" in capsys.readouterr().err

    def test_bound_one_fits_from_the_cli(self, tmp_path):
        path, out = tmp_path / "binary.csv", tmp_path / "fit.json"
        spec = ["--alpha0", "0.1", "--alpha1", "0.4", "--delta", "0.25"]
        sim = ["simulate", *spec, "--bound", "1", "--kappa", "0.1", "--n", "800", "--seed", "7"]
        assert cli.main([*sim, "--output", str(path)]) == cli.EXIT_OK
        argv = ["fit", "--model", "stbingarch", "--bound", "1", "-p", "1", "-q", "0"]
        assert cli.main([*argv, "--input", str(path), "--output", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["converged"] is True

    def test_newton_stage_runs_on_the_analytic_derivatives(self, monkeypatch):
        calls = []
        score = estimation.analytic_score_hessian

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return score(*args, **kwargs)

        monkeypatch.setattr(estimation, "analytic_score_hessian", counted)
        spec = ModelSpec(
            alpha0=0.787, alphas=(0.699,), betas=(-0.127,), delta=0.01, bound=5, kappa=0.118
        )
        series = simulate(spec, 400, burn_in=500, rng=np.random.default_rng(55))
        fit = fit_stbingarch_mle(series, (1, 1), bound=5, delta=0.01)
        assert fit.converged and calls and set(calls) == {5}

    # (spec, n, burn-in, seed, orders, loglik of the simplex-only fit, which
    # ran no Newton stage), recorded as literals: the Newton stage may do
    # better, never worse beyond 1e-9 (1 + |v|)
    @pytest.mark.parametrize(
        "spec, n, burn_in, seed, orders, simplex",
        [
            # kappa near 0: the objective must stay continuous there
            (
                ModelSpec(alpha0=1.0, alphas=(0.3,), betas=(0.3,), delta=0.01, bound=5, kappa=0.01),
                1000, 500, 2, (1, 1), -1677.2071494512625,
            ),
            (
                ModelSpec(
                    alpha0=0.787, alphas=(0.699,), betas=(-0.127,), delta=0.01, bound=5, kappa=0.118
                ),
                400, 500, 55, (1, 1), -574.8276060827825,
            ),
            (
                ModelSpec(alpha0=0.5, alphas=(0.4,), betas=(0.2,), delta=0.25, bound=2, kappa=0.1),
                600, 500, 56, (1, 1), -619.711619184537,
            ),
            # N = 1: the count at the bound is the inflated count
            (
                ModelSpec(alpha0=0.1, alphas=(0.4,), delta=0.25, bound=1, kappa=0.1),
                800, 100, 52, (1, 0), -483.4185276527711,
            ),
            # negative means: the Newton stage crosses M = 0
            (
                ModelSpec(alpha0=0.8, alphas=(-0.5,), betas=(0.2,), delta=0.25, bound=5, kappa=0.15),
                600, 500, 57, (1, 1), -604.7148351959972,
            ),
        ],
    )
    def test_loglik_is_no_lower_than_the_simplex_fit(self, spec, n, burn_in, seed, orders, simplex):
        series = simulate(spec, n, burn_in=burn_in, rng=np.random.default_rng(seed))
        fit = fit_stbingarch_mle(series, orders, bound=spec.bound, delta=spec.delta)
        assert fit.converged
        assert fit.loglik >= simplex - 1e-9 * (1.0 + abs(simplex))

    def test_kappa_near_zero_is_certified_without_a_simplex(self, monkeypatch):
        # the continuity case above: Newton from the start reaches the
        # maximum that the coarse pass stopped 0.4 short of, where a
        # simplex resume once replayed the whole full-tolerance search
        spec = ModelSpec(alpha0=1.0, alphas=(0.3,), betas=(0.3,), delta=0.01, bound=5, kappa=0.01)
        series = simulate(spec, 1000, burn_in=500, rng=np.random.default_rng(2))
        passes = []
        nelder_mead = estimation._nelder_mead

        def counted(*args, **kwargs):
            results = nelder_mead(*args, **kwargs)
            passes.extend(results)
            return results

        monkeypatch.setattr(estimation, "_nelder_mead", counted)
        fit = fit_stbingarch_mle(series, (1, 1), bound=5, delta=0.01)
        assert passes == [] and fit.converged and fit.hessian_invertible
        simplex = -1677.2071494512625
        assert fit.loglik >= simplex - 1e-9 * (1.0 + abs(simplex))

    def test_bounded_pearson_residuals(self):
        spec = ModelSpec(
            alpha0=0.787,
            alphas=(0.699,),
            betas=(-0.127,),
            delta=0.01,
            bound=5,
            kappa=0.118,
        )
        series = simulate(spec, 50_000, burn_in=500, rng=np.random.default_rng(53))
        report = pearson_residuals(spec, series)
        assert abs(report.mean) < 5.0 / math.sqrt(50_000)
        assert report.variance == pytest.approx(1.0, abs=0.03)


class TestOneObservationLaw:
    """A fitter's log-likelihood is the sum of ``ln conditional_pmf`` over its window."""

    @staticmethod
    def pmf_loglik(spec, series):
        start = max(spec.p, spec.q)
        means = conditional_mean_path(spec, series)[start : len(series)]
        terms = zip(series.counts[start:], means)
        return math.fsum(math.log(conditional_pmf(x, m, spec)) for x, m in terms)

    def test_bounded_one_inflated_fit(self):
        spec = ModelSpec(
            alpha0=0.787, alphas=(0.699,), betas=(-0.127,), delta=0.01, bound=5, kappa=0.118
        )
        series = simulate(spec, 400, burn_in=500, rng=np.random.default_rng(55))
        fit = fit_stbingarch_mle(series, (1, 1), bound=5, delta=0.01)
        assert fit.spec.kappa > 0.0 and fit.spec.bound == 5
        assert fit.loglik == pytest.approx(self.pmf_loglik(fit.spec, series), rel=1e-12)

    def test_unbounded_fit(self):
        spec = ModelSpec(alpha0=2.0, alphas=(0.4,), betas=(0.2,), delta=0.25)
        series = simulate(spec, 400, burn_in=500, rng=np.random.default_rng(56))
        fit = fit_mle(series, (1, 1), 0.25)
        assert fit.spec.bound is None and fit.spec.kappa == 0.0
        assert fit.loglik == pytest.approx(self.pmf_loglik(fit.spec, series), rel=1e-12)


class TestCovariates:
    def test_design_validation(self):
        series = CountSeries(np.array([1, 2, 3]))
        augmented = CountSeries(series.counts, covariates=[1.0, 0.0, 1.0])
        assert augmented.covariates.shape == (3, 1)
        with pytest.raises(ValueError):
            CountSeries(series.counts, covariates=np.zeros((2, 1)))

    def test_zero_coefficient_matches_plain_model(self):
        from tobitcount.estimation import loglik

        spec = ModelSpec(alpha0=5.0, alphas=(0.2,), delta=0.25)
        series = simulate(spec, 300, rng=np.random.default_rng(60))
        augmented = CountSeries(series.counts, covariates=np.arange(300, dtype=float) % 2)
        plain = loglik(np.array([5.0, 0.2]), series, (1, 0), EstimationScenario.fixed(0.25))
        with_cov = loglik(
            np.array([5.0, 0.2, 0.0]), augmented, (1, 0, 1), EstimationScenario.fixed(0.25)
        )
        assert plain == pytest.approx(with_cov, abs=1e-12)

    def test_regression_recovery(self):
        # weekday-style binary covariate, pure regression case
        rng = np.random.default_rng(61)
        z = (np.arange(666) % 2).astype(float).reshape(-1, 1)
        spec = ModelSpec(alpha0=1.239, delta=3.458, gammas=(2.031,))
        series = simulate(spec, 666, burn_in=0, rng=rng, covariates=z)
        fit = fit_mle(series, (0, 0, 1), EstimationScenario.free())
        truth = np.array([1.239, 2.031, 3.458])
        assert fit.hessian_invertible
        assert np.all(np.abs(fit.estimates - truth) < 3.0 * fit.std_errors)

    def test_constant_covariate_flagged_noninvertible(self):
        rng = np.random.default_rng(62)
        spec = ModelSpec(alpha0=2.0, delta=0.25)
        series = simulate(spec, 400, rng=rng)
        augmented = CountSeries(series.counts, covariates=np.ones(400))
        fit = fit_mle(augmented, (0, 0, 1), EstimationScenario.fixed(0.25))
        assert not fit.hessian_invertible
        assert fit.std_errors is None


class TestFitCliFlags:
    """``fit`` refuses every flag that the chosen model or method would ignore."""

    @pytest.mark.parametrize(
        "model, flags",
        [
            (model, flags)
            for model in ("tinars1", "stbingarch")
            for flags in (["--method", "clade"], ["--method", "cls"], ["--scenario2"])
        ]
        + [
            ("tinars1", ["-p", "1"]),
            ("tinars1", ["-q", "0"]),
            ("tinars1", ["--delta", "0.25"]),
            ("tinars1", ["--bound", "5"]),
            ("stingarch", ["--bound", "5"]),
            ("stingarch", ["--method", "clade", "--delta", "0.25"]),
            ("stingarch", ["--method", "cls", "--delta", "0.25"]),
            ("stingarch", ["--method", "clade", "--scenario2"]),
            ("stingarch", ["--method", "cls", "--scenario2"]),
        ],
    )
    def test_ignored_flag_is_a_config_error(self, tmp_path, model, flags):
        path = tmp_path / "counts.csv"
        path.write_text("count\n" + "1\n0\n2\n" * 20)
        # stbingarch needs its bound; no other model takes one
        bound = ["--bound", "5"] if model == "stbingarch" else []
        argv = ["fit", "--model", model, *bound, "--input", str(path), *flags]
        assert cli.main(argv) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--model", "tinars1"], ["alpha1", "innovation_mean"]),
            (
                ["--model", "stbingarch", "--bound", "5", "--delta", "0.01"],
                ["alpha0", "alpha1", "kappa"],
            ),
            (["-p", "1", "--delta", "0.25"], ["alpha0", "alpha1"]),
            (["--method", "clade"], ["alpha0", "alpha1"]),
        ],
    )
    def test_used_flags_are_accepted(self, tmp_path, argv, names):
        path = tmp_path / "counts.csv"
        path.write_text("count\n" + "1\n0\n2\n3\n" * 15)
        out = tmp_path / "fit.json"
        code = cli.main(["fit", *argv, "--input", str(path), "--output", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_NONCONVERGED)
        # unset orders default to (1, 0)
        assert sorted(json.loads(out.read_text())["estimates"]) == sorted(names)
