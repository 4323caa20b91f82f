"""Tests for Pearson residuals, sample ACF/PACF and information criteria."""

import math

import numpy as np
import pytest

from tobitcount import cli
from tobitcount.diagnostics import (
    ResidualReport,
    information_criteria,
    pearson_residuals,
    sample_acf,
    sample_acf_pacf,
)
from tobitcount.skellam import SkellamStar, censored_moments, pmf
from tobitcount.stingarch import CountSeries, ModelSpec, conditional_mean_path, simulate

from _helpers import chernoff_tail_radius


class TestSampleAcf:
    def test_alternating_series(self):
        x = np.tile([0, 1], 5000)
        acf = sample_acf(x, 2)
        assert acf[0] == pytest.approx(-1.0, abs=1e-3)
        assert acf[1] == pytest.approx(1.0, abs=1e-3)

    def test_white_noise(self):
        rng = np.random.default_rng(6)
        x = rng.poisson(4.0, 100_000)
        acf = sample_acf(x, 5)
        assert np.all(np.abs(acf) < 4.0 / math.sqrt(100_000))

    def test_simulated_autoregression(self):
        spec = ModelSpec(alpha0=1.25, alphas=(0.75,), delta=0.25)
        series = simulate(spec, 400_000, burn_in=2000, rng=np.random.default_rng(12))
        acf, pacf = sample_acf_pacf(series, 3)
        assert acf[0] == pytest.approx(0.748, abs=0.012)
        assert pacf[0] == pytest.approx(0.748, abs=0.012)
        assert abs(pacf[1]) < 0.01

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            sample_acf(np.full(100, 3.0), 2)

    def test_max_lag_bound(self):
        with pytest.raises(ValueError):
            sample_acf(np.arange(5.0), 5)


class TestInformationCriteria:
    def test_zero_case(self):
        assert information_criteria(0.0, 0, 1) == (0.0, 0.0)

    def test_formula_arithmetic(self):
        aic, bic = information_criteria(-100.0, 3, 100)
        assert aic == pytest.approx(206.0)
        assert bic == pytest.approx(-2.0 * -100.0 + 3.0 * math.log(100.0))
        assert bic == pytest.approx(213.8155105579643)

    def test_requires_positive_sample_size(self):
        with pytest.raises(ValueError):
            information_criteria(-1.0, 1, 0)


class TestPearsonResiduals:
    def test_iid_calibration(self):
        spec = ModelSpec(alpha0=5.0, delta=0.25)
        series = simulate(spec, 100_000, burn_in=100, rng=np.random.default_rng(21))
        report = pearson_residuals(spec, series)
        assert abs(report.mean) < 4.0 / math.sqrt(100_000)
        assert report.variance == pytest.approx(1.0, abs=0.02)

    def test_correctly_specified_autoregression(self):
        spec = ModelSpec(alpha0=7.5, alphas=(-0.5,), delta=0.25)
        series = simulate(spec, 100_000, burn_in=500, rng=np.random.default_rng(22))
        report = pearson_residuals(spec, series)
        assert abs(report.mean) < 4.0 / math.sqrt(100_000)
        assert report.variance == pytest.approx(1.0, abs=0.02)
        assert np.all(np.abs(report.acf) < 4.0 / math.sqrt(100_000))
        assert report.residuals.shape[0] == 100_000 - 1

    def test_moments_match_brute_force_summation(self):
        spec = ModelSpec(alpha0=6.0, alphas=(-0.45,), delta=0.4)
        series = simulate(spec, 100, burn_in=100, rng=np.random.default_rng(23))
        m_path = conditional_mean_path(spec, series)[1:100]
        for m in m_path:
            cm = censored_moments(SkellamStar(float(m), spec.delta))
            params = SkellamStar(float(m), spec.delta).to_params()
            radius = chernoff_tail_radius(params)
            xs = np.arange(1, radius + 1)
            probs = np.array([pmf(int(x), params) for x in xs])
            mean_bf = float((xs * probs).sum())
            var_bf = float((xs**2 * probs).sum()) - mean_bf**2
            assert cm.mean == pytest.approx(mean_bf, rel=1e-9)
            assert cm.variance == pytest.approx(var_bf, rel=1e-9)

    def test_outlier_exclusion_reduces_variance(self):
        spec = ModelSpec(alpha0=5.0, delta=0.25)
        series = simulate(spec, 3000, burn_in=100, rng=np.random.default_rng(24))
        counts = series.counts.copy()
        counts[[500, 1500]] = 30  # two planted extreme observations
        contaminated = CountSeries(counts)
        full = pearson_residuals(spec, contaminated)
        mask = np.ones(full.residuals.shape[0], dtype=bool)
        mask[[500, 1500]] = False
        reduced_var = float(full.residuals[mask].var(ddof=1))
        assert reduced_var < full.variance

    def test_degenerate_variance_rejected(self):
        spec = ModelSpec(alpha0=-1.0, delta=0.0)
        series = CountSeries(np.array([0, 0, 0]))
        with pytest.raises(ValueError):
            pearson_residuals(spec, series)

    def test_residuals_start_after_conditioning_prefix(self):
        spec = ModelSpec(alpha0=2.0, alphas=(0.3,), betas=(0.2,), delta=0.25)
        series = simulate(spec, 200, rng=np.random.default_rng(25))
        report = pearson_residuals(spec, series)
        assert report.residuals.shape[0] == 199


class TestCliDiagnose:
    @pytest.mark.parametrize("lag", ["0", "-1"])
    def test_max_lag_below_one_is_a_configuration_error(self, lag, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("count\n" + "1\n0\n2\n" * 10)
        out = tmp_path / "diagnose.json"
        argv = ["diagnose", "--alpha0", "1", "--delta", "0.25", "--input", str(path)]
        assert cli.main([*argv, "--max-lag", lag, "--output", str(out)]) == cli.EXIT_CONFIG
        assert "--max-lag must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestCliJson:
    def test_non_finite_value_is_a_numerical_failure(self, tmp_path, monkeypatch):
        nan = ResidualReport(residuals=np.zeros(3), mean=math.nan, variance=1.0, acf=np.zeros(5))
        monkeypatch.setattr(cli, "pearson_residuals", lambda *args, **kwargs: nan)
        path = tmp_path / "counts.csv"
        path.write_text("count\n" + "1\n0\n2\n" * 10)
        out = tmp_path / "diagnose.json"
        argv = ["diagnose", "--alpha0", "1", "--delta", "0.25", "--input", str(path)]
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_NUMERICAL
        assert not out.exists()
