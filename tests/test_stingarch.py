"""Tests for the STINGARCH process layer."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from tobitcount import cli, estimation
from tobitcount.skellam import SkellamStar, censored_moments
from tobitcount.stingarch import (
    CountSeries,
    _stationary_distribution,
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
        assert ModelSpec(alpha0=1.0, kappa=0.0).kappa == 0.0

    @pytest.mark.parametrize("kappa", [-0.1, 1.0, math.nan])
    def test_kappa_outside_unit_interval_refused(self, kappa):
        with pytest.raises(ValueError, match="kappa must lie in"):
            ModelSpec(alpha0=1.0, bound=5, kappa=kappa)

    @pytest.mark.parametrize("bound", [0, -3, 1.5, 5.0, True, "5"])
    def test_bound_that_is_not_a_positive_integer_refused(self, bound):
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            ModelSpec(alpha0=1.0, bound=bound)

    def test_numpy_integer_bound_is_coerced(self):
        spec = ModelSpec(alpha0=1.0, bound=np.int64(5))
        assert spec.bound == 5 and type(spec.bound) is int

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

    @pytest.mark.parametrize("bad", [1e30, math.inf, -math.inf, math.nan, 2.0**60, 2.0**53])
    def test_float_counts_beyond_exact_integers_are_named(self, bad):
        # refused before the integer cast, which would warn and wrap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"below 2\*\*53 in magnitude, got \["):
                CountSeries(np.array([3.0, bad]))

    def test_float_counts_below_the_limit_are_exact(self):
        series = CountSeries(np.array([3.0, 2.0**53 - 1.0]))
        assert series.counts.tolist() == [3, 2**53 - 1]

    @pytest.mark.parametrize("fraction", [1000000.5, 12400000.3, 2.0**51 + 0.5])
    def test_fractional_large_counts_are_refused(self, fraction):
        # a relative closeness test would round these within 1e-5 of an integer
        with pytest.raises(ValueError, match="counts must be integers"):
            CountSeries(np.array([3.0, fraction]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_covariates_are_named(self, bad):
        z = np.array([[0.5], [bad], [1.0]])
        with pytest.raises(ValueError, match=r"covariates must be finite, got \[(nan|inf)\]"):
            CountSeries(np.array([1, 2, 3]), covariates=z)


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

    def test_rejects_counts_outside_the_support(self):
        spec = ModelSpec(alpha0=1.0, delta=0.25)
        with pytest.raises(ValueError):
            conditional_pmf(-1, 0.0, spec)
        with pytest.raises(ValueError, match=r"0\.\.5, got 6"):
            conditional_pmf(6, 0.0, ModelSpec(alpha0=1.0, delta=0.25, bound=5))

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    @pytest.mark.parametrize("delta", [0.0, 0.25])
    def test_rejects_non_finite_mean(self, m, delta):
        with pytest.raises(ValueError, match="finite"):
            conditional_pmf(1, m, ModelSpec(alpha0=1.0, delta=delta))


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

    def test_covariates_must_match_the_spec(self):
        # covariates without coefficients would be dropped from the series
        z = np.ones((50, 1))
        with pytest.raises(ValueError, match="no covariate coefficients; pass no covariates"):
            simulate(ModelSpec(alpha0=1.0, delta=0.25), 50, covariates=z)
        with pytest.raises(ValueError, match="has covariate coefficients; pass covariates"):
            simulate(ModelSpec(alpha0=1.0, delta=0.25, gammas=(0.5,)), 50)
        series = simulate(ModelSpec(alpha0=1.0, delta=0.25, gammas=(0.5,)), 50, covariates=z)
        assert np.array_equal(series.covariates, z)


def _sha256(counts):
    assert counts.dtype == np.int64
    return hashlib.sha256(counts.tobytes()).hexdigest()


class TestSimulationStreams:
    """Golden digests of seeded paths: the generator-call order of
    ``simulate`` is its reproducibility contract, so any drift fails here."""

    @pytest.mark.parametrize(
        "spec, covariates, seed, digest",
        [
            (  # mean 40: the Poisson sampler's rejection branch
                ModelSpec(alpha0=20.0, alphas=(0.5,), delta=2.0),
                None,
                1,
                "1546323467a670161031f08e2478036135403ccf486d55f7acb71a49f7d26866",
            ),
            (  # the paper's (1,1) design: small means, inversion
                ModelSpec(alpha0=2.0, alphas=(0.4,), betas=(0.2,), delta=0.25),
                None,
                2,
                "dc23df9cd8cac685277d5684f9d5b3ba1874a6914ad42ca75e1f6a1ba28b139c",
            ),
            (  # negative means: the mirrored Poisson difference
                ModelSpec(alpha0=-0.5, alphas=(0.4,), betas=(0.3,), delta=1.0),
                None,
                3,
                "fd746673588936833504840b95009425323eaa66422824fc648326e06be39ca5",
            ),
            (  # delta = 0: censored Poisson, no shared draw
                ModelSpec(alpha0=1.0, alphas=(0.3, 0.1), betas=(0.2, 0.1), delta=0.0),
                None,
                4,
                "da99248e9b017c524a3102afa7d8dc1cb29849cb348b1dccce9a19bda4ae7927",
            ),
            (  # bounded, one-inflated: one uniform per step
                ModelSpec(
                    alpha0=1.0, alphas=(0.3,), betas=(0.3,), delta=0.01, bound=5, kappa=0.1
                ),
                None,
                5,
                "5d1d06e2735939e971a330ab0bbfb88a41c1fa1a530df33bae317d9df81048cd",
            ),
            (
                ModelSpec(alpha0=1.0, alphas=(0.3,), delta=0.5, gammas=(0.5, 0.25)),
                (np.arange(2000) % 7)[:, None] / np.array([4.0, -8.0]),
                6,
                "9bbe4f50acd0e7aa7335930bc2d73c850401536f646c340edf359f04d8c66e60",
            ),
        ],
        ids=["mean40", "paper11", "negative-mean", "delta0-p2q2", "bounded", "covariates"],
    )
    def test_simulate_digest(self, spec, covariates, seed, digest):
        series = simulate(spec, 2000, rng=np.random.default_rng(seed), covariates=covariates)
        assert _sha256(series.counts) == digest

    def test_mc_study_replication_digest(self, monkeypatch):
        paths = []

        def recording_simulate(*args, **kwargs):
            series = simulate(*args, **kwargs)
            paths.append(series.counts)
            return series

        monkeypatch.setattr(estimation, "simulate", recording_simulate)
        dgp = ModelSpec(alpha0=2.0, alphas=(0.4,), betas=(0.2,), delta=0.25)
        estimation.mc_study(dgp, n=250, replications=1, methods=("cls",), seed=460486347)
        digest = "4a2f51916204c6206e43a17080b03b93cb6a0eb6912f4ec9c0fdc47458e79993"
        assert len(paths) == 1 and _sha256(paths[0]) == digest

    def test_cli_simulate_csv_digest(self, tmp_path):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--alpha0", "20", "--alpha1", "0.5", "--delta", "2", "--n", "5000"]
        assert cli.main([*argv, "--seed", "5", "--output", str(out)]) == cli.EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "0728418f963b3c00586bc0b867f12154111f6aebb77fb23cfedbe6ce4c078369"


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

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_poisson_inarch_closed_forms(self, alpha):
        # delta = 0 with alpha0 > 0 and alpha >= 0 keeps every M_t positive, so
        # censoring never acts and the chain is the Poisson INARCH(1) model
        spec = ModelSpec(alpha0=2.0, alphas=(alpha,), delta=0.0)
        summary = exact_moments_stinarch1(spec, max_lag=4)
        assert summary.mean == pytest.approx(2.0 / (1.0 - alpha), rel=0.0, abs=1e-10)
        assert summary.dispersion_ratio == pytest.approx(
            1.0 / (1.0 - alpha * alpha), rel=0.0, abs=1e-10
        )
        np.testing.assert_allclose(summary.acf, alpha ** np.arange(1, 5), rtol=0.0, atol=1e-10)

    def test_requires_first_order_autoregression(self):
        with pytest.raises(ValueError):
            exact_moments_stinarch1(
                ModelSpec(alpha0=1.0, alphas=(0.2,), betas=(0.3,), delta=0.25)
            )
        with pytest.raises(ValueError):
            exact_moments_stinarch1(ModelSpec(alpha0=1.0, alphas=(1.1,), delta=0.25))

    def test_periodic_chain_is_refused(self):
        # 0 -> 1 -> {0, 2} -> 1 has period 2: from the uniform law the power
        # iteration alternates between (1/3, 1/3, 1/3) and (1/6, 2/3, 1/6)
        chain = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        with pytest.raises(ArithmeticError, match="stationary distribution did not converge"):
            _stationary_distribution(chain)

    MOMENTS_ARGV = ["moments", "--alpha0", "2", "--alpha1", "0.4", "--delta", "0.25"]

    # moments takes no covariate coefficients, so --gammas is an unknown flag
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--beta1", "0.2"], "--method exact needs a STINARCH(1) model"),
            (["--gammas", "0.3"], "unrecognized arguments: --gammas 0.3"),
        ],
        ids=["feedback", "covariates"],
    )
    def test_cli_exact_without_the_route_is_a_configuration_error(
        self, extra, message, tmp_path, capsys
    ):
        out = tmp_path / "moments.json"
        argv = [*self.MOMENTS_ARGV, *extra, "--method", "exact", "--output", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cli_all_without_the_route_writes_null(self, tmp_path):
        out = tmp_path / "moments.json"
        argv = [*self.MOMENTS_ARGV, "--beta1", "0.2", "--method", "all", "--n", "2000"]
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["exact"] is None and payload["linear"] is not None


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
