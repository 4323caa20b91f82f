"""Parameter estimation for STINGARCH models.

Three estimators are provided:

* conditional maximum likelihood, with the dispersion either fixed in
  advance (scenario 1) or estimated alongside the dynamics (scenario 2);
* the censored least-absolute-deviations estimator minimizing
  ``sum |X_t - max(0, M_t)|``;
* the censored conditional least-squares estimator minimizing
  ``sum (X_t - max(0, M_t))^2``.

The likelihood layer also exposes the analytic score and Hessian and the
outer-product / curvature information matrices.  The conditional mean, its
gradient and the nonzero beta rows of its Hessian each come from one banded
triangular solve of the recursion's feedback ``1 - sum_j beta_j B^j``.
Approximate standard errors follow the usual practice of inverting a
numerical Hessian of the maximized log-likelihood.

Every likelihood fit runs one Nelder-Mead pass and then evaluates that
numerical Hessian, with the central gradient its stencil yields for free.
Where the analytic score and Hessian exist, which is for every
:class:`ModelSpec` (:func:`fit_mle`, and the bounded one-inflated fit in
:mod:`tobitcount.extensions`) but not the TINARS(1) fit, the pass stops at
coarse tolerances and a trust-region Newton step on them finishes it.  A
negative-definite Hessian and a Newton decrement ``g' (-H)^-1 g``
below ``_CERTIFICATE (1 + |loglik|)`` certify the point as a maximum, and
the fit ends there; otherwise a second pass restarts from that point and,
where the derivatives exist, the Newton stage polishes it.  The CLS fit
runs Gauss-Newton on the Jacobian of its censored residuals, and CLADE a
Nelder-Mead multi-start.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

from . import skellam
from .diagnostics import information_criteria, sample_acf
from .specialfn import PrecisionError
from .stingarch import (
    CountSeries,
    ModelSpec,
    _ar_filter,
    _mean_recursion,
    _stationarity_sum,
    simulate,
)

__all__ = [
    "EstimationScenario",
    "FitResult",
    "MCStudyResult",
    "loglik",
    "analytic_score_hessian",
    "information_matrices",
    "numerical_hessian",
    "fit_mle",
    "fit_clade",
    "fit_cls",
    "mc_study",
]

_PENALTY = 1e12
# a first simplex point whose Newton decrement g'(-H)^-1 g is at most this
# times 1 + |loglik| is a certified maximum and ends the search
_CERTIFICATE = 1e-10
# the simplex's objective tolerance, and its tolerances (fatol and xatol)
# in a first pass that a Newton stage finishes
_FATOL = 1e-10
_COARSE = 1e-3
# the Newton stage stops at this gradient norm or after this many iterations;
# the stage that finishes the coarse pass stops sooner, as a gain beyond
# _COARSE resumes the simplex anyway
_NEWTON_GTOL = 1e-8
_NEWTON_MAXITER = 100
_COARSE_NEWTON_MAXITER = 20
# ftol, xtol and gtol of the CLS Gauss-Newton runs; least_squares' default
# 1e-8 stops short of the simplex's objective
_GN_TOL = 1e-15
# |log delta| beyond this lets delta**2 in the score under- or overflow
_LOG_DELTA_LIMIT = 300.0


@dataclass(frozen=True)
class EstimationScenario:
    """Dispersion handling: fixed tuning parameter or free DGP parameter.

    ``fixed_delta`` set -> scenario 1 (estimate the dynamics only);
    ``fixed_delta`` None -> scenario 2 (the dispersion joins the parameter
    vector as its last entry).
    """

    fixed_delta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fixed_delta is not None and not (0.0 < self.fixed_delta < math.inf):
            raise ValueError(f"scenario-1 delta must be positive and finite: {self.fixed_delta!r}")

    @property
    def estimates_delta(self) -> bool:
        return self.fixed_delta is None

    @property
    def tag(self) -> str:
        return "scenario2" if self.estimates_delta else "scenario1"

    @classmethod
    def fixed(cls, delta: float) -> "EstimationScenario":
        return cls(fixed_delta=delta)

    @classmethod
    def free(cls) -> "EstimationScenario":
        return cls(fixed_delta=None)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one model fit."""

    estimates: np.ndarray
    param_names: tuple[str, ...]
    method: str
    converged: bool
    iterations: int
    n_effective: int
    # the fitted model: a ModelSpec, a TinarsSpec for the TINARS(1) fit, or
    # None for CLS/CLADE, which estimate no dispersion
    spec: Optional[object] = None
    std_errors: Optional[np.ndarray] = None
    loglik: Optional[float] = None
    aic: Optional[float] = None
    bic: Optional[float] = None
    objective: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimates", np.asarray(self.estimates, dtype=float))
        if self.std_errors is not None:
            object.__setattr__(
                self, "std_errors", np.asarray(self.std_errors, dtype=float)
            )

    @property
    def hessian_invertible(self) -> bool:
        """Whether the log-likelihood Hessian gave standard errors."""
        return self.std_errors is not None


def _param_names(p: int, q: int, r: int, with_delta: bool) -> tuple[str, ...]:
    names = ["alpha0"]
    names += [f"alpha{i}" for i in range(1, p + 1)]
    names += [f"beta{j}" for j in range(1, q + 1)]
    names += [f"gamma{k}" for k in range(1, r + 1)]
    if with_delta:
        names.append("delta")
    return tuple(names)


def _orders(orders, series: CountSeries) -> tuple[int, int, int]:
    if len(orders) == 2:
        p, q = orders
        r = 0 if series.covariates is None else series.covariates.shape[1]
    else:
        p, q, r = orders
    have = 0 if series.covariates is None else series.covariates.shape[1]
    if r != have:
        raise ValueError(f"orders declare {r} covariates but series has {have}")
    return int(p), int(q), int(r)


def _unpack(theta: np.ndarray, p: int, q: int, r: int, scenario: EstimationScenario):
    theta = np.asarray(theta, dtype=float)
    want = 1 + p + q + r + (1 if scenario.estimates_delta else 0)
    if theta.shape[0] != want:
        raise ValueError(f"theta has {theta.shape[0]} entries, expected {want}")
    alpha0 = float(theta[0])
    alphas = tuple(theta[1 : 1 + p])
    betas = tuple(theta[1 + p : 1 + p + q])
    gammas = tuple(theta[1 + p + q : 1 + p + q + r])
    delta = float(theta[-1]) if scenario.estimates_delta else float(scenario.fixed_delta)
    return alpha0, alphas, betas, gammas, delta


def _spec_from_theta(theta, p, q, r, scenario) -> ModelSpec:
    alpha0, alphas, betas, gammas, delta = _unpack(theta, p, q, r, scenario)
    return ModelSpec(alpha0=alpha0, alphas=alphas, betas=betas, delta=delta, gammas=gammas)


def _mean_path(theta_dyn, series: CountSeries, p, q, r) -> np.ndarray:
    """``M_1..M_n`` of the dynamics block, pre-sample means pinned to alpha0."""
    theta_dyn = np.asarray(theta_dyn, dtype=float)
    if theta_dyn.shape[0] != 1 + p + q + r:
        raise ValueError(f"dynamics block has {theta_dyn.shape[0]} entries")
    return _mean_recursion(
        theta_dyn[0],
        theta_dyn[1 : 1 + p],
        theta_dyn[1 + p : 1 + p + q],
        theta_dyn[1 + p + q :],
        series,
        extend=False,
    )


def _window_loglik(theta_dyn, series, p, q, r, delta, bound=None, kappa=0.0) -> float:
    """Log-likelihood of the counts after the first ``max(p, q)``: the sum of
    the observation law :func:`skellam._log_obs_arr` given the means of the
    dynamics block ``theta_dyn``.  ``-inf`` when a mean is not finite or a
    term has zero probability."""
    start = max(p, q)
    m = _mean_path(theta_dyn, series, p, q, r)[start:]
    if not np.all(np.isfinite(m)):
        return -math.inf
    logs = skellam._log_obs_arr(series.counts[start:], m, delta, bound, kappa)
    if not np.all(np.isfinite(logs)):
        return -math.inf
    return float(logs.sum())


def loglik(theta, series: CountSeries, orders, scenario: EstimationScenario) -> float:
    """Conditional log-likelihood, conditioning on the first ``max(p, q)`` counts.

    Each term is the observation law :func:`skellam._log_obs_arr` at the
    count given ``M_t``: the latent log-pmf for a positive count and the log
    of the entire nonpositive latent mass for a zero.  Returns ``-inf`` when
    a mean is not finite or any term underflows to zero probability.
    """
    p, q, r = _orders(orders, series)
    _, _, _, _, delta = _unpack(theta, p, q, r, scenario)
    if not (delta > 0.0):
        raise ValueError("log-likelihood requires delta > 0")
    if len(series) <= max(p, q):
        raise ValueError("series shorter than the conditioning prefix")
    return _window_loglik(theta[: 1 + p + q + r], series, p, q, r, delta)


# ---------------------------------------------------------------------------
# analytic derivatives
# ---------------------------------------------------------------------------


def _per_term_derivs(x: np.ndarray, m: np.ndarray, delta: float, bound=None):
    """First and second derivatives of each likelihood term's log.

    Returns ``(g_m, g_d, h_mm, h_dd, h_md, log_q)`` for ``ln Q`` in ``(m,
    delta)``, with ``log_q = ln Q`` itself.  Each term is the latent mass of
    an interval, ``Q = sum_{lo..hi} p(y)``: ``[x, x]`` for a positive count,
    ``(-inf, 0]`` for a zero and, given a ``bound`` N, ``[N, inf)`` for a
    count at it, whose ``Q`` is the upper tail ``P(X* >= N)``.  The Skellam
    identities ``dp(y)/dlambda1 = p(y-1) - p(y)`` and ``dp(y)/dlambda2 =
    p(y+1) - p(y)`` telescope over it, with ``p = 0`` at an infinite end:
    ``Q1 = p(lo-1) - p(hi)``, ``Q2 = p(hi+1) - p(lo)``, ``Q11 = p(lo-2) -
    p(lo-1) - p(hi-1) + p(hi)``, ``Q12 = p(lo) - p(lo-1) - p(hi+1) + p(hi)``
    and ``Q22 = p(hi+2) - p(hi+1) - p(lo+1) + p(lo)``.  So ``g_i = Q_i/Q``
    and ``h_ij = Q_ij/Q - g_i g_j`` are sums of pmf ratios.  ``lambda1,2 =
    (|m| +- m + delta)/2`` is linear on each side of ``m = 0``:
    ``dlambda/dm`` is ``(1, 0)`` for ``m >= 0`` (the knife edge included)
    and ``(0, -1)`` below, and ``dlambda/ddelta`` is ``(1/2, 1/2)``.  Raises
    ``ArithmeticError`` when a term's probability underflows to zero.
    """
    zero = x <= 0
    top = np.zeros(x.shape, dtype=bool) if bound is None else x == bound
    log_p = skellam._log_pmf_arr(x + np.arange(-2, 3)[:, None], m, delta)
    log_q = log_p[2].copy()
    with np.errstate(divide="ignore"):
        # the mixture kernel costs tens of microseconds even when empty
        if zero.any():
            log_q[zero] = np.log(skellam._cdf0_arr(m[zero], delta))
        if top.any():
            log_q[top] = np.log(skellam._survival_arr(bound, m[top], delta))
    if not np.all(np.isfinite(log_q)):
        raise ArithmeticError("likelihood term probability underflowed")
    # p(hi-2) .. p(hi+2) and p(lo-2) .. p(lo+2) over Q; lo = -inf for a zero
    # and hi = +inf at the bound
    hi = np.exp(log_p - log_q)
    lo = np.where(zero, 0.0, hi)
    hi[:, top] = 0.0
    g1 = lo[1] - hi[2]
    g2 = hi[3] - lo[2]
    h11 = lo[0] - lo[1] - hi[1] + hi[2] - g1 * g1
    h12 = lo[2] - lo[1] - hi[3] + hi[2] - g1 * g2
    h22 = hi[4] - hi[3] - lo[3] + lo[2] - g2 * g2
    up = m >= 0.0
    g_m = np.where(up, g1, -g2)
    g_d = 0.5 * (g1 + g2)
    h_mm = np.where(up, h11, h22)
    h_dd = 0.25 * (h11 + 2.0 * h12 + h22)
    h_md = 0.5 * np.where(up, h11 + h12, -(h12 + h22))
    return g_m, g_d, h_mm, h_dd, h_md, log_q


def _mean_gradient(theta_dyn, series, p, q, r):
    """``M`` and ``dM/dtheta*`` of the dynamics block theta*, shapes ``(n,)``
    and ``(n, k)``.

    ``dM`` obeys the recursion's own feedback, so it is one :func:`_ar_filter`
    call driven by ``1, X_{t-i}, M_{t-j}, z_t``.
    """
    theta_dyn = np.asarray(theta_dyn, dtype=float)
    n = len(series)
    start = max(p, q)
    m = _mean_path(theta_dyn, series, p, q, r)
    rhs = np.zeros((n, 1 + p + q + r))
    rhs[:, 0] = 1.0
    for i in range(1, p + 1):
        rhs[start:, i] = series.counts[start - i : n - i]
    for j in range(1, q + 1):
        rhs[start:, p + j] = m[start - j : n - j]
    if r:
        rhs[start:, 1 + p + q :] = series.covariates[start:]
    return m, _ar_filter(rhs, theta_dyn[1 + p : 1 + p + q], start)


def _mean_derivatives(theta_dyn, series, p, q, r):
    """``M``, ``dM/dtheta*`` (:func:`_mean_gradient`) and the beta rows of
    ``d2M/dtheta* dtheta*``.

    ``d2M`` is nonzero only in the beta rows and columns; row ``beta_j`` is
    driven through the same feedback by ``dM_{t-j}`` plus, in column
    ``beta_l``, ``dM_{t-l}/dbeta_j``.  Returns arrays of shape ``(n,)``,
    ``(n, k)`` and ``(n, q, k)``.
    """
    m, dm = _mean_gradient(theta_dyn, series, p, q, r)
    n, k = dm.shape
    start = max(p, q)
    lagged = np.zeros((n, q, k))
    for j in range(1, q + 1):
        lagged[start:, j - 1] = dm[start - j : n - j]
    beta_cols = slice(1 + p, 1 + p + q)
    lagged[:, :, beta_cols] += lagged[:, :, beta_cols].transpose(0, 2, 1).copy()
    betas = np.asarray(theta_dyn, dtype=float)[beta_cols]
    d2m_beta = _ar_filter(lagged.reshape(n, q * k), betas, start).reshape(n, q, k)
    return m, dm, d2m_beta


def _score_parts(theta, series: CountSeries, orders, scenario, bound=None):
    """Per-observation gradients and the summed Hessian of the conditional
    log-likelihood: :func:`loglik`, or given a ``bound`` N the bounded
    one-inflated model's, whose ``theta`` ends with the weight ``kappa``.

    Returns ``(grads, hess)``.  Row ``t`` of the ``(n_eff, k)`` array
    ``grads`` is term ``t``'s gradient in the natural parameters:
    ``dM_t g_m,t``, then ``g_d,t`` under scenario 2, then ``g_kappa,t``
    given a bound.  ``hess`` is the ``(k, k)`` Hessian of the summed terms.
    A bounded term is ``L = (1 - kappa) Q + kappa [x = 1]`` of the clipped
    law's ``Q`` (:func:`_per_term_derivs`).  With ``w = (1 - kappa) Q / L``
    the chain rule gives ``d ln L = w d ln Q`` and ``d2 ln L = w h + w (1 -
    w) g g'`` from ``ln Q``'s gradient ``g`` and Hessian ``h``, ``d ln L /
    dkappa = ([x = 1] - Q) / L``, ``d2 ln L / dkappa2`` its negated square
    and ``d2 ln L / dkappa d theta = -[x = 1] Q g / L^2``.
    """
    p, q, r = _orders(orders, series)
    theta = np.asarray(theta, dtype=float)
    kappa = 0.0
    if bound is not None:
        theta, kappa = theta[:-1], float(theta[-1])
    _, _, _, _, delta = _unpack(theta, p, q, r, scenario)
    if not (delta > 0.0):
        raise ValueError("score requires delta > 0")
    start = max(p, q)
    k_dyn = 1 + p + q + r
    m, dm, d2m_beta = _mean_derivatives(theta[:k_dyn], series, p, q, r)
    k_nat = k_dyn + (1 if scenario.estimates_delta else 0)
    k_all = k_nat + (0 if bound is None else 1)
    x = series.counts[start:]
    g_m, g_d, h_mm, h_dd, h_md, log_q = _per_term_derivs(x, m[start:], delta, bound)
    if bound is not None:
        one = x == 1
        q_one = np.exp(log_q[one])
        like = (1.0 - kappa) * q_one + kappa
        # w = 1 and d ln L / dkappa = -1 / (1 - kappa) off the inflated cell
        w = np.ones(x.shape)
        w[one] = (1.0 - kappa) * q_one / like
        g_kappa = np.full(x.shape, -1.0 / (1.0 - kappa))
        g_kappa[one] = (1.0 - q_one) / like
        c_kappa = np.zeros(x.shape)
        c_kappa[one] = -q_one / (like * like)
        v = w * (1.0 - w)
        h_mm = w * h_mm + v * g_m * g_m
        h_dd = w * h_dd + v * g_d * g_d
        h_md = w * h_md + v * g_m * g_d
        c_m, c_d = c_kappa * g_m, c_kappa * g_d
        g_m, g_d = w * g_m, w * g_d
    dm_w = dm[start:]
    grads = np.empty((dm_w.shape[0], k_all))
    grads[:, :k_dyn] = dm_w * g_m[:, None]
    # sum_t g_m d2M_t is nonzero only in the beta rows and columns
    curvature = np.zeros((k_dyn, k_dyn))
    beta_rows = np.tensordot(g_m, d2m_beta[start:], axes=1)
    curvature[:, 1 + p : 1 + p + q] = beta_rows.T
    curvature[1 + p : 1 + p + q] = beta_rows
    hess = np.zeros((k_all, k_all))
    hess[:k_dyn, :k_dyn] = dm_w.T @ (dm_w * h_mm[:, None]) + curvature
    if scenario.estimates_delta:
        grads[:, k_dyn] = g_d
        cross = dm_w.T @ h_md
        hess[:k_dyn, k_dyn] = cross
        hess[k_dyn, :k_dyn] = cross
        hess[k_dyn, k_dyn] = h_dd.sum()
    if bound is not None:
        grads[:, -1] = g_kappa
        cross = dm_w.T @ c_m
        if scenario.estimates_delta:
            cross = np.append(cross, c_d.sum())
        hess[:k_nat, -1] = cross
        hess[-1, :k_nat] = cross
        hess[-1, -1] = -(g_kappa @ g_kappa)
    return grads, hess


def analytic_score_hessian(theta, series: CountSeries, orders, scenario, bound=None):
    """Closed-form score vector and Hessian matrix of :func:`loglik`, or
    given a ``bound`` of the bounded one-inflated model's log-likelihood,
    whose ``theta`` ends with ``kappa``.

    Both are derivatives of the conditional log-likelihood with respect to
    the natural parameters (dynamics block, then delta under scenario 2,
    then kappa given a bound); the Hessian is returned as ``d^2 L / dtheta
    dtheta'`` (negative definite near the optimum).
    """
    grads, hess = _score_parts(theta, series, orders, scenario, bound)
    return grads.sum(axis=0), hess


def information_matrices(theta, series: CountSeries, orders, scenario, bound=None):
    """Curvature and outer-product information estimates ``(U_hat, V_hat)``.

    ``U_hat = -H/n`` is the negated analytic Hessian per observation and
    ``V_hat = (1/n) sum_t s_t s_t'`` averages the outer products of the
    per-observation scores ``s_t``, both at ``theta`` over the ``n``
    likelihood terms; ``bound`` and a trailing ``kappa`` in ``theta`` select
    the bounded one-inflated model as in :func:`analytic_score_hessian`.
    Exposed for inspection; reported standard errors use the plain inverse
    numerical Hessian instead.
    """
    grads, hess = _score_parts(theta, series, orders, scenario, bound)
    count = grads.shape[0]
    return -hess / count, grads.T @ grads / count


def _se_from_loglik_hessian(hess: np.ndarray):
    """Standard errors from a log-likelihood Hessian, or ``None``.

    The Hessian counts as invertible only when it is negative definite and
    well conditioned; near-singular curvature (e.g. collinear covariates,
    boundary dispersion estimates) is reported as non-invertible rather
    than turned into meaningless standard errors.  The condition number
    (below 1e6) is taken of the unit-diagonal (correlation-scaled) matrix,
    so it does not depend on the units of the parameters.
    """
    neg = -np.asarray(hess, dtype=float)
    scale = np.diag(neg)
    if not (np.all(np.isfinite(neg)) and np.all(scale > 0.0)):
        return None
    scale = 1.0 / np.sqrt(scale)
    scaled = neg * scale[:, None] * scale[None, :]
    eigenvalues = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))
    if eigenvalues.min() <= 0.0 or eigenvalues.max() / eigenvalues.min() > 1e6:
        return None
    diag = np.diag(np.linalg.inv(neg))
    if np.any(diag <= 0.0):
        return None
    return np.sqrt(diag)


def numerical_hessian(fun, x0: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient and Hessian of a scalar function with
    per-coordinate ``steps``.

    The gradient reuses the Hessian diagonal's ``fun(x0 +- h_i e_i)``, so it
    costs no extra call.
    """
    x0 = np.asarray(x0, dtype=float)
    k = x0.shape[0]
    h = np.asarray(steps, dtype=float)
    grad = np.empty(k)
    hess = np.empty((k, k))
    f0 = fun(x0)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        fp = fun(x0 + ei)
        fm = fun(x0 - ei)
        grad[i] = (fp - fm) / (2.0 * h[i])
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h[i] * h[i])
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            fpp = fun(x0 + ei + ej)
            fpm = fun(x0 + ei - ej)
            fmp = fun(x0 - ei + ej)
            fmm = fun(x0 - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return grad, hess


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _moment_start(series: CountSeries, p: int, q: int, r: int) -> np.ndarray:
    """Method-of-moments starting point via the linear approximation.

    ``alpha1`` starts at the lag-1 sample autocorrelation, ``alpha0`` at
    the level implied by the sample mean, feedback and covariate
    coefficients at zero.
    """
    x = series.counts.astype(float)
    xbar = max(float(x.mean()), 0.05)
    start = np.zeros(1 + p + q + r)
    coef_sum = 0.0
    if p >= 1 and x.std() > 0.0:
        rho1 = float(np.clip(sample_acf(x, 1)[0], -0.9, 0.9))
        start[1] = rho1
        coef_sum = rho1
    start[0] = xbar * (1.0 - coef_sum) if coef_sum < 1.0 else xbar * 0.1
    if start[0] == 0.0:
        start[0] = 0.05
    return start


def _stationarity_penalty(theta: Sequence[float], p: int, q: int) -> float:
    """``_PENALTY (1 + v)`` when ``v = sum max(0, alpha_i) + sum |beta_j| - 1 >= 0``, else 0."""
    violation = _stationarity_sum(theta[1 : 1 + p], theta[1 + p : 1 + p + q]) - 1.0
    return _PENALTY * (1.0 + violation) if violation >= 0.0 else 0.0


# A kind maps an unconstrained search coordinate onto a parameter's domain.
# Its fields: the map, its inverse, d natural / d search and d2 natural /
# d search2 at a natural value, the distance from a natural value to the
# domain's edge, the distance at or below which standard errors are
# withheld, and whether reaching the edge means the likelihood has no
# interior maximum.
_Kind = namedtuple("_Kind", "to_natural to_search slope curvature edge floor refused_edge")
_KINDS = {
    "free": _Kind(float, float, lambda t: 1.0, lambda t: 0.0, lambda t: math.inf, 0.0, False),
    # a search coordinate beyond the limit maps to nan, which is penalized
    "positive": _Kind(
        lambda x: math.exp(x) if abs(x) < _LOG_DELTA_LIMIT else math.nan,
        math.log, lambda t: t, lambda t: t, lambda t: t, 1e-8, False,
    ),
    # 1/(1 + e^-x) overflows below x = -709.78; e^x equals it to 1e-304 there
    "unit": _Kind(
        lambda x: 1.0 / (1.0 + math.exp(-x)) if x > -700.0 else math.exp(x),
        lambda t: math.log(t / (1.0 - t)), lambda t: t * (1.0 - t),
        lambda t: t * (1.0 - t) * (1.0 - 2.0 * t), lambda t: min(t, 1.0 - t), 1e-5, False,
    ),
    "signed": _Kind(
        math.tanh, math.atanh, lambda t: 1.0 - t * t, lambda t: -2.0 * t * (1.0 - t * t),
        lambda t: 1.0 - abs(t), 1e-8, True,
    ),
}


def _difference_steps(theta: np.ndarray, kinds: tuple[str, ...]) -> Optional[np.ndarray]:
    """Steps ``1e-4 (1 + |theta|)``, capped at a third of the way to the domain's
    edge; ``None`` when an estimate is within its kind's floor of the edge."""
    table = [_KINDS[kind] for kind in kinds]
    edges = [kind.edge(t) for kind, t in zip(table, theta)]
    if not all(edge > kind.floor for kind, edge in zip(table, edges)):
        return None
    return np.minimum(1e-4 * (1.0 + np.abs(theta)), np.array(edges) / 3.0)


def _search_derivatives(kinds: tuple[str, ...], theta, grad: np.ndarray, hess: np.ndarray):
    """The gradient ``g s`` and Hessian ``H s s' + diag(g s'')`` in the search
    coordinates, from the natural ``grad`` and ``hess`` at ``theta``; ``s``
    and ``s''`` are the kinds' ``slope`` and ``curvature`` there."""
    table = [_KINDS[kind] for kind in kinds]
    slope = np.array([kind.slope(t) for kind, t in zip(table, theta)])
    curvature = np.array([kind.curvature(t) for kind, t in zip(table, theta)])
    return grad * slope, hess * np.outer(slope, slope) + np.diag(grad * curvature)


def _stencil(natural_loglik, theta: np.ndarray, kinds: tuple[str, ...]):
    """:func:`numerical_hessian` of ``natural_loglik`` at ``theta`` on
    :func:`_difference_steps`; ``None`` when the steps are withheld or a
    stencil point raises."""
    steps = _difference_steps(theta, kinds)
    if steps is None:
        return None
    try:
        return numerical_hessian(natural_loglik, theta, steps)
    except (np.linalg.LinAlgError, ValueError, ArithmeticError):
        return None


def _certifies(grad: np.ndarray, hess: np.ndarray, ll: float) -> bool:
    """Whether ``-hess`` is positive definite and the Newton decrement
    ``grad' (-hess)^-1 grad`` is at most ``_CERTIFICATE (1 + |ll|)``."""
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return False
    try:
        lower = np.linalg.cholesky(-hess)
    except np.linalg.LinAlgError:
        return False
    half = np.linalg.solve(lower, grad)
    return bool(half @ half <= _CERTIFICATE * (1.0 + abs(ll)))


def _nelder_mead(fun, x0, fatol=_FATOL, xatol=1e-8, simplex=None):
    """Nelder-Mead from ``x0``, or from the initial ``simplex`` when given."""
    budget = 400 * len(x0)
    options = {"fatol": fatol, "xatol": xatol, "maxiter": budget, "maxfev": budget}
    if simplex is not None:
        options["initial_simplex"] = simplex
    return optimize.minimize(fun, x0, method="Nelder-Mead", options=options)


def _newton(fun, derivatives, x0, maxiter=_NEWTON_MAXITER):
    """Trust-region Newton (``trust-exact``) on ``fun`` from ``x0``, with
    ``derivatives(x)`` returning the gradient and Hessian together, for at
    most ``maxiter`` iterations.

    trust-exact asks for the Hessian at every trial point and for the
    gradient at the accepted ones, so a one-entry memo evaluates
    ``derivatives`` once per point.
    """
    memo = [None, None]

    def both(x: np.ndarray):
        key = x.tobytes()
        if memo[0] != key:
            memo[:] = key, derivatives(x)
        return memo[1]

    return optimize.minimize(
        fun,
        x0,
        method="trust-exact",
        jac=lambda x: both(x)[0],
        hess=lambda x: both(x)[1],
        options={"gtol": _NEWTON_GTOL, "maxiter": maxiter},
    )


def _require_positive_count(window: np.ndarray) -> None:
    """Refuse a fit window without a positive count, which every parameter
    keeping all ``M_t <= 0`` fits perfectly."""
    if not np.any(window > 0):
        raise ValueError(
            "no positive count after the conditioning prefix: the fit has no unique optimum"
        )


def _fit(
    natural_loglik,
    theta0: np.ndarray,
    kinds: tuple[str, ...],
    names: tuple[str, ...],
    method: str,
    window: np.ndarray,
    spec=None,
    derivatives=None,
    orders: Optional[tuple[int, int]] = None,
) -> FitResult:
    """Maximum-likelihood pipeline shared by every likelihood fitter.

    ``natural_loglik``, ``spec`` and the optional ``derivatives``, which
    returns the analytic gradient and Hessian of ``natural_loglik``, take
    the natural parameters and ``theta0`` is the natural start.  Each of
    ``kinds`` names a row of ``_KINDS``: ``free`` (identity), ``positive``
    (``exp``, with ``|log theta| < _LOG_DELTA_LIMIT``), ``unit`` (logistic
    onto (0, 1)) or ``signed`` (``tanh`` onto (-1, 1)).  The search
    minimizes the negative log-likelihood over the search coordinates,
    charged ``_PENALTY`` outside the search domain, where it is not finite,
    where the special-function kernels refuse it with ``PrecisionError``,
    or (given ``orders = (p, q)``) past stationarity; a start point the
    kernels refuse raises their ``PrecisionError``.

    The first stage is one Nelder-Mead pass.  Given ``derivatives`` (every
    :class:`ModelSpec` fit passes them; the TINARS(1) fit has none), the
    pass stops at the coarse tolerances ``_COARSE`` and a trust-region
    Newton stage (:func:`_newton`) of at most ``_COARSE_NEWTON_MAXITER``
    iterations finishes it on the chain-ruled gradient ``g s`` and Hessian
    ``H s s' + diag(g s'')``, where ``s`` and ``s''`` are the kinds'
    ``slope`` and ``curvature`` (:func:`_search_derivatives`).
    When that stage raises or gains more than ``_COARSE``, the simplex had
    not reached its tail: it resumes from its final simplex to the full
    tolerances, which is the pass a fit without ``derivatives`` runs, and
    the better of its point and the Newton point is kept.  Then the
    standard-error stencil
    (:func:`numerical_hessian` on :func:`_difference_steps`) is evaluated
    at the stage's point.  When the negated Hessian is positive definite
    and the Newton decrement ``g' (-H)^-1 g`` is at most ``_CERTIFICATE (1
    + |loglik|)``, the point is a certified maximum: it is returned with
    ``converged`` true and that Hessian's standard errors.  Otherwise
    (steps withheld, a stencil point raising, ``-H`` not finite or not
    positive definite, or the decrement too large) a full Nelder-Mead pass
    restarts from that point and, given ``derivatives``, a Newton polish is
    kept if it lowers the objective by more than the pass's ``_FATOL``.
    On this restart path ``converged`` is
    the success flag of the stage whose point is returned; a polish that
    raises leaves the simplex point unconverged.  ``iterations`` sums the
    iterations of every stage that ran.

    ``loglik`` is ``natural_loglik`` at the estimates, and standard errors
    invert its stencil Hessian there (none for ``delta <= 1e-8`` or
    ``kappa <= 1e-5``, where :func:`_difference_steps` withholds the
    steps).  ``window`` holds the counts after the conditioning prefix.
    Raises ``ValueError`` when none of them is positive
    (:func:`_require_positive_count`) or a ``signed`` parameter runs to
    +-1, and ``ArithmeticError`` when the best point is a penalty value.
    """
    _require_positive_count(window)
    table = [_KINDS[kind] for kind in kinds]
    mapped = [(i, _KINDS[kind]) for i, kind in enumerate(kinds) if kind != "free"]

    def natural(u: np.ndarray) -> list[float]:
        # scalar math on a list, as the map runs on every objective call
        theta = u.tolist()
        for i, kind in mapped:
            theta[i] = kind.to_natural(theta[i])
            if kind.refused_edge and kind.edge(theta[i]) == 0.0:
                raise ValueError(
                    f"the likelihood has no interior maximum: {names[i]} runs to {theta[i]:+.0f}"
                )
        return theta

    def objective(u: np.ndarray) -> float:
        theta = natural(u)
        outside = 0.0 if orders is None else _stationarity_penalty(theta, *orders)
        if outside:
            return outside
        if any(map(math.isnan, theta)):
            return _PENALTY
        try:
            value = natural_loglik(np.array(theta))
        except PrecisionError:
            return _PENALTY
        return -value if math.isfinite(value) else _PENALTY

    def search_derivatives(u: np.ndarray):
        theta = natural(u)
        try:
            grad, hess = derivatives(np.array(theta))
        except (ArithmeticError, ValueError):
            if objective(u) < _PENALTY / 2:
                raise
            # a penalized trial point, which the step rejects
            return np.zeros_like(u), np.zeros((u.size, u.size))
        grad, hess = _search_derivatives(kinds, theta, grad, hess)
        return -grad, -hess

    def newton(x: np.ndarray, maxiter=_NEWTON_MAXITER):
        """The Newton stage from ``x``, or ``None`` when it raises."""
        try:
            return _newton(objective, search_derivatives, x, maxiter)
        except (ArithmeticError, ValueError):
            return None

    natural_loglik(np.asarray(theta0, dtype=float))  # a start the kernels refuse raises
    x0 = np.array([kind.to_search(t) for kind, t in zip(table, theta0)])
    if derivatives is None:
        res = _nelder_mead(objective, x0)
        best_x, best_f, iterations = res.x, res.fun, int(res.nit)
    else:
        res = _nelder_mead(objective, x0, fatol=_COARSE, xatol=_COARSE)
        best_x, best_f, iterations = res.x, res.fun, int(res.nit)
        pol = newton(res.x, _COARSE_NEWTON_MAXITER)
        if pol is not None:
            iterations += int(pol.nit)
            if pol.fun < best_f:
                best_x, best_f = pol.x, pol.fun
        if pol is None or res.fun - best_f > _COARSE:
            # a Newton gain beyond the simplex's own tolerance means the
            # simplex had not reached its tail: it resumes to the full
            # tolerances and the better point is kept
            full = _nelder_mead(objective, res.x, simplex=res.final_simplex[0])
            iterations += int(full.nit)
            if full.fun < best_f:
                best_x, best_f = full.x, full.fun
    stencil = None
    if best_f < _PENALTY / 2:
        stencil = _stencil(natural_loglik, np.array(natural(best_x)), kinds)
    certified = stencil is not None and _certifies(*stencil, -best_f)
    converged = certified
    if not certified:
        res = _nelder_mead(objective, best_x)
        best_x, best_f = res.x, res.fun
        iterations += int(res.nit)
        converged = bool(res.success)
        if derivatives is not None:
            pol = newton(best_x)
            if pol is None:
                converged = False
            else:
                iterations += int(pol.nit)
                # a gain within the simplex's fatol leaves its point and flag
                if pol.fun < best_f - _FATOL:
                    best_x, best_f, converged = pol.x, pol.fun, bool(pol.success)
    if not best_f < _PENALTY / 2:
        raise ArithmeticError("no admissible point found: the optimum is a penalty value")
    theta_hat = np.array(natural(best_x))
    ll = -best_f
    if not certified:
        stencil = _stencil(natural_loglik, theta_hat, kinds)
    std_errors = None
    if stencil is not None:
        try:
            std_errors = _se_from_loglik_hessian(stencil[1])
        except (np.linalg.LinAlgError, ValueError, ArithmeticError):
            std_errors = None  # withheld, which hessian_invertible reports
    n_eff = window.shape[0]
    aic, bic = information_criteria(ll, len(names), n_eff)
    return FitResult(
        estimates=theta_hat,
        param_names=names,
        method=method,
        converged=converged,
        iterations=iterations,
        n_effective=n_eff,
        spec=None if spec is None else spec(theta_hat),
        std_errors=std_errors,
        loglik=ll,
        aic=aic,
        bic=bic,
    )


def _as_scenario(scenario: EstimationScenario | float | None) -> EstimationScenario:
    """A float is a fixed scenario-1 dispersion and ``None`` means scenario 2."""
    if isinstance(scenario, EstimationScenario):
        return scenario
    if scenario is None:
        return EstimationScenario.free()
    return EstimationScenario.fixed(float(scenario))


def fit_mle(
    series: CountSeries,
    orders=(1, 0),
    scenario: EstimationScenario | float | None = 0.25,
) -> FitResult:
    """Conditional MLE by a coarse simplex search finished by Newton steps,
    certified or restarted and polished.

    A Nelder-Mead pass at coarse tolerances is finished by a trust-region
    Newton stage on :func:`analytic_score_hessian`; when that stage gains
    more than the coarse tolerance, the simplex resumes to its full
    tolerances and the better point is kept.  The search ends when the
    numerical Hessian and gradient at that point certify a maximum (see
    :func:`_fit`); ``converged`` is then true.  Otherwise a second pass
    restarts from that point and a Newton polish follows, and ``converged``
    is the success flag of the stage whose point is returned.
    ``iterations`` sums every stage's iterations.

    ``scenario`` may be an :class:`EstimationScenario`, a float (shorthand
    for a fixed scenario-1 dispersion) or ``None`` (scenario 2).  Trial
    points violating the stationarity condition are penalized; under
    scenario 2 the dispersion is optimized on the log scale so the search
    is unconstrained.  Standard errors are the square roots of the inverse
    numerical Hessian's diagonal; a singular (non positive-definite)
    Hessian leaves ``std_errors`` at ``None`` (so ``hessian_invertible`` is
    false) instead of failing.
    """
    scenario = _as_scenario(scenario)
    p, q, r = _orders(orders, series)
    kinds = ("free",) * (1 + p + q + r)
    theta0 = _moment_start(series, p, q, r)
    if scenario.estimates_delta:
        kinds += ("positive",)
        theta0 = np.append(theta0, 0.25)
    return _fit(
        lambda theta: loglik(theta, series, (p, q, r), scenario),
        theta0,
        kinds,
        _param_names(p, q, r, scenario.estimates_delta),
        "mle-s2" if scenario.estimates_delta else "mle-s1",
        series.counts[max(p, q):],
        spec=lambda theta: _spec_from_theta(theta, p, q, r, scenario),
        derivatives=lambda theta: analytic_score_hessian(theta, series, (p, q, r), scenario),
        orders=(p, q),
    )


def _censored_objective(series: CountSeries, p, q, r, power: int):
    x = series.counts
    start = max(p, q)

    def objective(theta_dyn: np.ndarray) -> float:
        outside = _stationarity_penalty(theta_dyn.tolist(), p, q)
        if outside:
            return outside
        m = _mean_path(theta_dyn, series, p, q, r)[start:]
        fitted = np.maximum(0.0, m)
        dev = np.abs(x[start:] - fitted)
        if power == 2:
            dev = dev * dev
        return float(dev.sum())

    return objective


def _censored_residuals(series: CountSeries, p, q, r):
    """The CLS residuals ``X_t - max(0, M_t)`` after the conditioning prefix
    and their Jacobian ``-1[M_t > 0] dM_t`` (:func:`_mean_gradient`)."""
    start = max(p, q)
    x = series.counts[start:]

    def residuals(theta_dyn: np.ndarray) -> np.ndarray:
        return x - np.maximum(0.0, _mean_path(theta_dyn, series, p, q, r)[start:])

    def jacobian(theta_dyn: np.ndarray) -> np.ndarray:
        m, dm = _mean_gradient(theta_dyn, series, p, q, r)
        return np.where(m[start:, None] > 0.0, -dm[start:], 0.0)

    return residuals, jacobian


def _starts(series: CountSeries, p, q, r) -> list[np.ndarray]:
    """:func:`_moment_start` and eight jittered copies of it."""
    start = _moment_start(series, p, q, r)
    scale = 0.1 * (1.0 + np.abs(start))
    jitter_rng = np.random.default_rng(12345)
    return [start] + [
        start + scale * jitter_rng.standard_normal(start.shape)
        for _ in range(8)
    ]


def _fit_censored_deviation(series: CountSeries, orders, power: int, method: str) -> FitResult:
    """The CLADE (``power = 1``) or CLS (``power = 2``) fit from the nine
    :func:`_starts`, the best result by ``(objective, |theta|)``.

    CLADE runs Nelder-Mead from each start.  CLS runs Gauss-Newton
    (``least_squares``' ``trf``) on :func:`_censored_residuals`, skips a
    start past stationarity and drops a result past it; when no result is
    left it runs CLADE's Nelder-Mead multi-start on the squared
    deviations.  ``converged`` is the chosen run's success flag and
    ``iterations`` sums every run's iterations (Jacobian evaluations for
    Gauss-Newton).  The intercept-only model has a closed form.
    """
    p, q, r = _orders(orders, series)
    n = len(series)
    n_eff = n - max(p, q)
    names = _param_names(p, q, r, with_delta=False)
    _require_positive_count(series.counts[max(p, q):])
    if p == 0 and q == 0 and r == 0:
        # closed-form location case: the objective is minimized by the
        # median (absolute deviations) or mean (squared deviations)
        stat = float(np.median(series.counts)) if power == 1 else float(
            series.counts.mean()
        )
        est = np.array([max(0.0, stat)])
        obj = _censored_objective(series, p, q, r, power)(est)
        return FitResult(
            estimates=est,
            param_names=names,
            method=method,
            converged=True,
            iterations=0,
            n_effective=n_eff,
            objective=obj,
        )
    objective = _censored_objective(series, p, q, r, power)
    starts = _starts(series, p, q, r)
    # (objective, |theta|, theta, success) of each kept run
    runs = []
    iterations = 0
    if power == 2:
        residuals, jacobian = _censored_residuals(series, p, q, r)
        for x0 in starts:
            if _stationarity_penalty(x0.tolist(), p, q):
                continue
            res = optimize.least_squares(
                residuals, x0, jac=jacobian, method="trf",
                ftol=_GN_TOL, xtol=_GN_TOL, gtol=_GN_TOL,
            )
            iterations += int(res.njev)
            value = objective(res.x)
            if value < _PENALTY / 2:
                runs.append((value, float(np.linalg.norm(res.x)), res.x, bool(res.success)))
    if not runs:
        for x0 in starts:
            res = _nelder_mead(objective, x0, fatol=1e-9)
            iterations += int(res.nit)
            runs.append((res.fun, float(np.linalg.norm(res.x)), res.x, bool(res.success)))
    value, _, est, success = min(runs, key=lambda run: run[:2])
    return FitResult(
        estimates=est,
        param_names=names,
        method=method,
        converged=success,
        iterations=iterations,
        n_effective=n_eff,
        objective=float(value),
    )


def fit_clade(series: CountSeries, orders=(1, 0)) -> FitResult:
    """Censored least-absolute-deviations estimator of the dynamics.

    Minimizes ``sum |X_t - max(0, M_t)|`` by multi-start simplex search
    (the objective is non-convex and piecewise-flat, so jittered restarts
    are mandatory).  No dispersion estimate, no standard errors and no
    ``spec`` are produced; the attained objective value is reported instead.
    Raises ``ValueError`` when no count after the conditioning prefix is
    positive.
    """
    return _fit_censored_deviation(series, orders, power=1, method="clade")


def fit_cls(series: CountSeries, orders=(1, 0)) -> FitResult:
    """Censored conditional least squares, ``sum (X_t - max(0, M_t))^2``.

    The objective is continuous in the parameters, but ``max(0, M_t)``
    makes its slope jump where a mean crosses zero and the objective is not
    convex, hence the same multi-start strategy and refusal as
    :func:`fit_clade`.
    """
    return _fit_censored_deviation(series, orders, power=2, method="cls")


# ---------------------------------------------------------------------------
# Monte Carlo study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCStudyResult:
    """Aggregated estimator-recovery experiment."""

    dgp: ModelSpec
    n: int
    replications: int
    scenario_tag: str
    methods: tuple[str, ...]
    param_names: dict
    means: dict
    simulated_se: dict
    mean_approx_se: dict
    hessian_noninvertible_rate: dict
    failures: dict
    optimizer_regressions: int

    def to_dict(self) -> dict:
        return {
            "dgp": {
                "alpha0": self.dgp.alpha0,
                "alphas": list(self.dgp.alphas),
                "betas": list(self.dgp.betas),
                "delta": self.dgp.delta,
            },
            "n": self.n,
            "replications": self.replications,
            "scenario": self.scenario_tag,
            "methods": {
                name: {
                    "param_names": list(self.param_names[name]),
                    "mean": [float(v) for v in self.means[name]],
                    "simulated_se": [float(v) for v in self.simulated_se[name]],
                    "mean_approx_se": (
                        [float(v) for v in self.mean_approx_se[name]]
                        if self.mean_approx_se[name] is not None
                        else None
                    ),
                    "hessian_noninvertible_rate": self.hessian_noninvertible_rate[name],
                    "failures": self.failures[name],
                }
                for name in self.methods
            },
            "optimizer_regressions": self.optimizer_regressions,
        }


_METHOD_FITTERS = {
    "mle": None,  # handled specially (needs the scenario)
    "clade": fit_clade,
    "cls": fit_cls,
}


def _mc_one_replication(args):
    (dgp, n, methods, scenario, seed_seq, orders) = args
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    series = simulate(dgp, n, burn_in=500, rng=rng, warn_nonstationary=False)
    out = {}
    regression = 0
    for name in methods:
        try:
            if name == "mle":
                fit = fit_mle(series, orders, scenario)
                truth = np.array(
                    [dgp.alpha0, *dgp.alphas, *dgp.betas]
                    + ([dgp.delta] if scenario.estimates_delta else [])
                )
                if fit.loglik < loglik(truth, series, orders, scenario) - 1e-6:
                    regression = 1
            else:
                fit = _METHOD_FITTERS[name](series, orders)
            out[name] = (fit.estimates, fit.std_errors)
        except (ValueError, ArithmeticError, np.linalg.LinAlgError):
            out[name] = None
    return out, regression


def mc_study(
    dgp: ModelSpec,
    n: int,
    replications: int,
    methods: Sequence[str] = ("mle", "clade", "cls"),
    scenario: EstimationScenario | float | None = 0.25,
    seed: int = 0,
    jobs: int = 1,
) -> MCStudyResult:
    """Estimator-recovery experiment on freshly simulated stationary paths.

    Each path is simulated after a burn-in of 500 steps.  Each replication
    owns an independently spawned random stream derived from ``seed``, so
    results are identical no matter how many worker processes execute them.
    Per-replication estimation failures are tallied, not raised.  The
    fitters estimate the unbounded covariate-free model, so a ``dgp`` with a
    ``bound`` or covariate coefficients raises ``ValueError``.
    """
    if dgp.bound is not None or dgp.r:
        raise ValueError(
            "mc_study simulates and fits the unbounded model without covariates: "
            f"got bound={dgp.bound}, {dgp.r} covariate coefficients"
        )
    scenario = _as_scenario(scenario)
    methods = tuple(methods)
    unknown = set(methods) - set(_METHOD_FITTERS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    orders = (dgp.p, dgp.q)
    streams = np.random.SeedSequence(seed).spawn(replications)
    tasks = [
        (dgp, n, methods, scenario, streams[i], orders)
        for i in range(replications)
    ]
    if jobs > 1 and replications > 1:
        import concurrent.futures as futures

        with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_mc_one_replication, tasks, chunksize=8))
    else:
        results = [_mc_one_replication(t) for t in tasks]
    means, sim_se, approx_se, noninv, fails, names = {}, {}, {}, {}, {}, {}
    for name in methods:
        fits = [r[0][name] for r in results if r[0][name] is not None]
        fails[name] = replications - len(fits)
        means[name] = sim_se[name] = np.array([])
        if fits:
            arr = np.vstack([est for est, _ in fits])
            means[name] = arr.mean(axis=0)
            sim_se[name] = arr.std(axis=0, ddof=1) if len(fits) > 1 else np.zeros(arr.shape[1])
        # only the likelihood fit has standard errors; a fit without them
        # had a non-invertible Hessian
        ses = [se for _, se in fits if se is not None]
        approx_se[name] = np.vstack(ses).mean(axis=0) if ses else None
        noninv[name] = None
        if name == "mle":
            noninv[name] = float(np.mean([se is None for _, se in fits])) if fits else 0.0
        names[name] = _param_names(
            dgp.p, dgp.q, 0, scenario.estimates_delta and name == "mle"
        )
    return MCStudyResult(
        dgp=dgp,
        n=n,
        replications=replications,
        scenario_tag=scenario.tag,
        methods=methods,
        param_names=names,
        means=means,
        simulated_se=sim_se,
        mean_approx_se=approx_se,
        hessian_noninvertible_rate=noninv,
        failures=fails,
        optimizer_regressions=int(sum(r[1] for r in results)),
    )
