"""Tests for the public special functions and their array kernels.

Accuracy across the whole parameter range is checked against mpmath in
``test_oracle_grid.py``.
"""

import math
import re

import numpy as np
import pytest

from tobitcount.specialfn import (
    PrecisionError,
    _log_bessel_i_arr,
    _poisson_mixture,
    bessel_recurrence_residual,
    log_bessel_i,
    noncentral_chisq_cdf,
    reg_incomplete_gamma_lower,
)

# ln I_0(1) from 30-term series summation in 40-digit arithmetic
LN_I0_1 = 0.23591435850717864869
# ln I_0(5000) from mpmath.besseli in 30-digit arithmetic
LN_I0_5000 = 4994.8224898735877
# regularized lower gamma P(2.5, 3.7) from adaptive quadrature of the integrand
P_25_37 = 0.8074495669206041
# P(Q <= 4), Q ~ noncentral chi-square(3, 2): 4e7 draws of (Z1+sqrt(2))^2+Z2^2+Z3^2
NCX2_MC_ESTIMATE = 0.483853025
NCX2_MC_SE = 7.902e-05


class TestLogBesselI:
    def test_order_zero_at_zero(self):
        assert log_bessel_i(0, 0.0) == 0.0

    def test_positive_order_at_zero_is_log_zero(self):
        assert log_bessel_i(3, 0.0) == -math.inf

    def test_series_value_at_one(self):
        assert log_bessel_i(0, 1.0) == pytest.approx(LN_I0_1, abs=1e-14)

    def test_negative_order_symmetry(self):
        assert log_bessel_i(-1, 2.0) == log_bessel_i(1, 2.0)
        assert log_bessel_i(-7, 0.3) == log_bessel_i(7, 0.3)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            log_bessel_i(0, -0.5)

    def test_large_argument_scaled_evaluation(self):
        # reference: ln I_0(50) = 50 + ln(ive(0, 50))
        from scipy.special import ive

        for n, z in [(0, 50.0), (4, 120.0), (12, 33.0)]:
            ref = math.log(ive(n, z)) + z
            assert log_bessel_i(n, z) == pytest.approx(ref, rel=1e-13)

    def test_far_argument_matches_mpmath(self):
        assert log_bessel_i(0, 5000.0) == pytest.approx(LN_I0_5000, rel=1e-14)


class TestBesselRecurrence:
    def test_residual_small_at_1_1(self):
        res = bessel_recurrence_residual(1, 1.0)
        assert abs(res) < 1e-12 * math.exp(log_bessel_i(0, 1.0))

    def test_order_zero_cancels_exactly(self):
        assert bessel_recurrence_residual(0, 2.0) == 0.0

    def test_residual_small_at_5_half(self):
        res = bessel_recurrence_residual(5, 0.5)
        scale = math.exp(log_bessel_i(5, 0.5))
        assert abs(res) < 1e-10 * max(scale, 1e-300) + 1e-18

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0])
    def test_recurrence_grid(self, z):
        for n in range(21):
            res = bessel_recurrence_residual(n, z)
            scale = math.exp(log_bessel_i(n, z))
            assert abs(res) < 1e-9 * max(scale, 1e-280)

    def test_requires_positive_argument(self):
        with pytest.raises(ValueError):
            bessel_recurrence_residual(1, 0.0)


class TestBesselDerivativeIdentities:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
    @pytest.mark.parametrize("z", [0.3, 1.0, 4.0, 15.0])
    def test_three_derivative_forms_match_finite_differences(self, n, z):
        h = 1e-6 * max(1.0, z)
        fd = (
            math.exp(log_bessel_i(n, z + h)) - math.exp(log_bessel_i(n, z - h))
        ) / (2.0 * h)
        i_n = math.exp(log_bessel_i(n, z))
        i_up = math.exp(log_bessel_i(n + 1, z))
        i_dn = math.exp(log_bessel_i(n - 1, z))
        forms = [
            0.5 * (i_dn + i_up),
            i_dn - (n / z) * i_n,
            (n / z) * i_n + i_up,
        ]
        for value in forms:
            assert value == pytest.approx(fd, rel=1e-6)


class TestRegIncompleteGamma:
    def test_exponential_cdf_case(self):
        assert reg_incomplete_gamma_lower(1.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-15
        )

    def test_zero_argument(self):
        assert reg_incomplete_gamma_lower(0.5, 0.0) == 0.0

    def test_against_quadrature(self):
        assert reg_incomplete_gamma_lower(2.5, 3.7) == pytest.approx(
            P_25_37, abs=1e-10
        )

    def test_monotone_in_x(self):
        for s in (0.3, 1.0, 4.5):
            values = [
                reg_incomplete_gamma_lower(s, x) for x in np.linspace(0.0, 30.0, 151)
            ]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
            assert 0.0 <= min(values) and max(values) <= 1.0

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            reg_incomplete_gamma_lower(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_incomplete_gamma_lower(-2.0, 1.0)


class TestNoncentralChisqCdf:
    def test_left_endpoint(self):
        assert noncentral_chisq_cdf(0.0, 2.0, 5.0) == 0.0

    def test_total_mass(self):
        assert noncentral_chisq_cdf(500.0, 2.0, 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_monte_carlo(self):
        value = noncentral_chisq_cdf(4.0, 3.0, 2.0)
        assert abs(value - NCX2_MC_ESTIMATE) < 3.0 * NCX2_MC_SE

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 7.5])
    @pytest.mark.parametrize("x", [0.2, 1.0, 5.0, 20.0])
    def test_zero_noncentrality_is_central(self, nu, x):
        assert noncentral_chisq_cdf(x, nu, 0.0) == pytest.approx(
            reg_incomplete_gamma_lower(nu / 2.0, x / 2.0), abs=1e-12
        )

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 60.0, 200)
        values = [noncentral_chisq_cdf(x, 3.0, 12.0) for x in xs]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_large_noncentrality_mode_centered(self):
        # mode-centered expansion must survive tau too large for exp(-tau/2)
        value = noncentral_chisq_cdf(1800.0, 2.0, 1800.0)
        assert 0.0 < value < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(1.0, 2.0, -1.0)
        with pytest.raises(ValueError):
            noncentral_chisq_cdf(-1.0, 2.0, 1.0)

    @pytest.mark.parametrize("mean", [math.inf, 1e300])
    def test_unindexable_window_is_refused(self, mean):
        # the window is refused, naming the mixing mean, before any cast
        with pytest.raises(PrecisionError, match=re.escape(f"mixing mean {mean!r}")):
            _poisson_mixture(0, np.array([2.0, 3.0]), np.array([1.0, mean]))


class TestVectorizedCompanions:
    @pytest.mark.parametrize("z", [math.inf, 1e300])
    def test_log_bessel_unindexable_argument_is_refused(self, z):
        with pytest.raises(PrecisionError, match=re.escape(f"argument {z!r}")):
            _log_bessel_i_arr(np.array([1, 2]), np.array([3.0, z]))

    def test_log_bessel_zero_argument(self):
        vec = _log_bessel_i_arr(np.array([0, 2]), np.array([0.0, 0.0]))
        assert vec[0] == 0.0 and vec[1] == -math.inf
