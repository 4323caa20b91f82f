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
from .stingarch import (
    CountSeries,
    ModelSpec,
    _ar_filter,
    _mean_recursion,
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
    hessian_invertible: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimates", np.asarray(self.estimates, dtype=float))
        if self.std_errors is not None:
            object.__setattr__(
                self, "std_errors", np.asarray(self.std_errors, dtype=float)
            )


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
        presample_mean=theta_dyn[0],
    )


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
    n = len(series)
    start = max(p, q)
    if n <= start:
        raise ValueError("series shorter than the conditioning prefix")
    m = _mean_path(theta[: 1 + p + q + r], series, p, q, r)[start:]
    if not np.all(np.isfinite(m)):
        return -math.inf
    logs = skellam._log_obs_arr(series.counts[start:], m, delta)
    if not np.all(np.isfinite(logs)):
        return -math.inf
    return float(logs.sum())


# ---------------------------------------------------------------------------
# analytic derivatives
# ---------------------------------------------------------------------------


# Coefficients of p(x-2) .. p(x+2) in the lambda-derivatives
# (Q1, Q2, Q11, Q12, Q22) of a likelihood term Q, from the Skellam difference
# identities dp(x)/dlambda1 = p(x-1) - p(x) and dp(x)/dlambda2 = p(x+1) - p(x).
# A positive count has Q = p(x); a zero has Q = F(0), so that
# dF(0)/dlambda1 = -p(0) and dF(0)/dlambda2 = p(1).
_SHIFTS = np.arange(-2, 3)
_POSITIVE_TERM = np.array(
    [
        [0, 1, -1, 0, 0],
        [0, 0, -1, 1, 0],
        [1, -2, 1, 0, 0],
        [0, -1, 2, -1, 0],
        [0, 0, 1, -2, 1],
    ],
    dtype=float,
)
_ZERO_TERM = np.array(
    [
        [0, 0, -1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, -1, 1, 0, 0],
        [0, 0, 1, -1, 0],
        [0, 0, 0, -1, 1],
    ],
    dtype=float,
)


def _per_term_derivs(x: np.ndarray, m: np.ndarray, delta: float):
    """First and second derivatives of each likelihood term's log.

    Returns ``(g_m, g_d, h_mm, h_dd, h_md)`` for ``ln Q`` in ``(m, delta)``,
    where ``Q = P(X* = x)`` for a positive count and ``Q = P(X* <= 0)`` for a
    zero.  The lambda-derivatives of ``Q`` are fixed combinations of
    ``p(x-2) .. p(x+2)``, so ``g_i = Q_i/Q`` and ``h_ij = Q_ij/Q - g_i g_j``
    are sums of pmf ratios.  ``lambda1,2 = (|m| +- m + delta)/2`` is linear
    on each side of ``m = 0``: ``dlambda/dm`` is ``(1, 0)`` for ``m >= 0``
    (the knife edge included) and ``(0, -1)`` below, and ``dlambda/ddelta``
    is ``(1/2, 1/2)``.  Raises ``ArithmeticError`` when a term's probability
    underflows to zero.
    """
    zero = x <= 0
    log_p = skellam._log_pmf_arr(x + _SHIFTS[:, None], m, delta)
    log_q = log_p[2].copy()
    if zero.any():  # the mixture kernel costs tens of microseconds even when empty
        with np.errstate(divide="ignore"):
            log_q[zero] = np.log(skellam._cdf0_arr(m[zero], delta))
    if not np.all(np.isfinite(log_q)):
        raise ArithmeticError("likelihood term probability underflowed")
    ratios = np.exp(log_p - log_q)
    g1, g2, q11, q12, q22 = np.where(zero, _ZERO_TERM @ ratios, _POSITIVE_TERM @ ratios)
    h11 = q11 - g1 * g1
    h12 = q12 - g1 * g2
    h22 = q22 - g2 * g2
    up = m >= 0.0
    g_m = np.where(up, g1, -g2)
    g_d = 0.5 * (g1 + g2)
    h_mm = np.where(up, h11, h22)
    h_dd = 0.25 * (h11 + 2.0 * h12 + h22)
    h_md = 0.5 * np.where(up, h11 + h12, -(h12 + h22))
    return g_m, g_d, h_mm, h_dd, h_md


def _mean_derivatives(theta_dyn, series, p, q, r):
    """``M``, ``dM/dtheta*`` and the beta rows of ``d2M/dtheta* dtheta*``.

    theta* is the dynamics block (everything except delta).  The derivatives
    obey the recursion's own feedback, so each is one :func:`_ar_filter` call:
    ``dM`` is driven by ``1, X_{t-i}, M_{t-j}, z_t``.  ``d2M`` is nonzero only
    in the beta rows and columns; row ``beta_j`` is driven by ``dM_{t-j}``
    plus, in column ``beta_l``, ``dM_{t-l}/dbeta_j``.  Returns arrays of shape
    ``(n,)``, ``(n, k)`` and ``(n, q, k)``.
    """
    theta_dyn = np.asarray(theta_dyn, dtype=float)
    betas = theta_dyn[1 + p : 1 + p + q]
    n = len(series)
    k = 1 + p + q + r
    start = max(p, q)
    m = _mean_path(theta_dyn, series, p, q, r)
    rhs = np.zeros((n, k))
    rhs[:, 0] = 1.0
    for i in range(1, p + 1):
        rhs[start:, i] = series.counts[start - i : n - i]
    for j in range(1, q + 1):
        rhs[start:, p + j] = m[start - j : n - j]
    if r:
        rhs[start:, 1 + p + q :] = series.covariates[start:]
    dm = _ar_filter(rhs, betas, start)
    lagged = np.zeros((n, q, k))
    for j in range(1, q + 1):
        lagged[start:, j - 1] = dm[start - j : n - j]
    beta_cols = slice(1 + p, 1 + p + q)
    lagged[:, :, beta_cols] += lagged[:, :, beta_cols].transpose(0, 2, 1).copy()
    d2m_beta = _ar_filter(lagged.reshape(n, q * k), betas, start).reshape(n, q, k)
    return m, dm, d2m_beta


def _score_parts(theta, series: CountSeries, orders, scenario):
    """Shared core of the analytic score and Hessian over the likelihood window.

    Returns ``(dm_w, g_m, g_d, hess)``: the mean derivatives, the
    per-observation log-density derivatives in ``m`` and ``delta``, and the
    summed Hessian of :func:`loglik` with respect to the natural parameters.
    """
    p, q, r = _orders(orders, series)
    _, _, _, _, delta = _unpack(theta, p, q, r, scenario)
    if not (delta > 0.0):
        raise ValueError("score requires delta > 0")
    start = max(p, q)
    k_dyn = 1 + p + q + r
    m, dm, d2m_beta = _mean_derivatives(theta[:k_dyn], series, p, q, r)
    k_all = k_dyn + (1 if scenario.estimates_delta else 0)
    g_m, g_d, h_mm, h_dd, h_md = _per_term_derivs(
        series.counts[start:], m[start:], delta
    )
    dm_w = dm[start:]
    # sum_t g_m d2M_t is nonzero only in the beta rows and columns
    curvature = np.zeros((k_dyn, k_dyn))
    beta_rows = np.tensordot(g_m, d2m_beta[start:], axes=1)
    curvature[:, 1 + p : 1 + p + q] = beta_rows.T
    curvature[1 + p : 1 + p + q] = beta_rows
    hess = np.zeros((k_all, k_all))
    hess[:k_dyn, :k_dyn] = dm_w.T @ (dm_w * h_mm[:, None]) + curvature
    if scenario.estimates_delta:
        cross = dm_w.T @ h_md
        hess[:k_dyn, -1] = cross
        hess[-1, :k_dyn] = cross
        hess[-1, -1] = h_dd.sum()
    return dm_w, g_m, g_d, hess


def analytic_score_hessian(theta, series: CountSeries, orders, scenario):
    """Closed-form score vector and Hessian matrix of :func:`loglik`.

    Both are derivatives of the conditional log-likelihood with respect to
    the natural parameters (dynamics block, then delta under scenario 2);
    the Hessian is returned as ``d^2 L / dtheta dtheta'`` (negative definite
    near the optimum).
    """
    dm_w, g_m, g_d, hess = _score_parts(theta, series, orders, scenario)
    grad = np.zeros(hess.shape[0])
    grad[: dm_w.shape[1]] = dm_w.T @ g_m
    if scenario.estimates_delta:
        grad[-1] = g_d.sum()
    return grad, hess


def information_matrices(theta, series: CountSeries, orders, scenario):
    """Outer-product and curvature information estimates ``(U_hat, V_hat)``.

    ``V_hat`` averages the per-observation score outer products and
    ``U_hat`` the negated per-observation Hessians, both evaluated at
    ``theta``.  Exposed for inspection; reported standard errors use the
    plain inverse numerical Hessian instead.
    """
    dm_w, g_m, g_d, hess = _score_parts(theta, series, orders, scenario)
    count = dm_w.shape[0]
    per_term_grad = np.zeros((count, hess.shape[0]))
    per_term_grad[:, : dm_w.shape[1]] = dm_w * g_m[:, None]
    if scenario.estimates_delta:
        per_term_grad[:, -1] = g_d
    v_hat = per_term_grad.T @ per_term_grad / count
    return -hess / count, v_hat


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
    if not np.all(np.isfinite(neg)):
        return None, False
    scale = np.diag(neg)
    if np.any(scale <= 0.0):
        return None, False
    scale = 1.0 / np.sqrt(scale)
    scaled = neg * scale[:, None] * scale[None, :]
    eigenvalues = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))
    if eigenvalues.min() <= 0.0 or eigenvalues.max() / eigenvalues.min() > 1e6:
        return None, False
    diag = np.diag(np.linalg.inv(neg))
    if np.any(diag <= 0.0):
        return None, False
    return np.sqrt(diag), True


def numerical_hessian(fun, x0: np.ndarray, steps) -> np.ndarray:
    """Central-difference Hessian of a scalar function with per-coordinate ``steps``."""
    x0 = np.asarray(x0, dtype=float)
    k = x0.shape[0]
    h = np.asarray(steps, dtype=float)
    hess = np.empty((k, k))
    f0 = fun(x0)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        hess[i, i] = (fun(x0 + ei) - 2.0 * f0 + fun(x0 - ei)) / (h[i] * h[i])
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            fpp = fun(x0 + ei + ej)
            fpm = fun(x0 + ei - ej)
            fmp = fun(x0 - ei + ej)
            fmm = fun(x0 - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return hess


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
    violation = sum(max(0.0, a) for a in theta[1 : 1 + p]) + sum(
        abs(b) for b in theta[1 + p : 1 + p + q]
    ) - 1.0
    return _PENALTY * (1.0 + violation) if violation >= 0.0 else 0.0


# A kind maps an unconstrained search coordinate onto a parameter's domain.
# Its fields: the map, its inverse, d natural / d search at a natural value,
# the distance from a natural value to the domain's edge, the distance at or
# below which standard errors are withheld, and whether reaching the edge
# means the likelihood has no interior maximum.
_Kind = namedtuple("_Kind", "to_natural to_search slope edge floor refused_edge")
_KINDS = {
    "free": _Kind(float, float, lambda t: 1.0, lambda t: math.inf, 0.0, False),
    # a search coordinate beyond the limit maps to nan, which is penalized
    "positive": _Kind(
        lambda x: math.exp(x) if abs(x) < _LOG_DELTA_LIMIT else math.nan,
        math.log, lambda t: t, lambda t: t, 1e-8, False,
    ),
    # 1/(1 + e^-x) overflows below x = -709.78; e^x equals it to 1e-304 there
    "unit": _Kind(
        lambda x: 1.0 / (1.0 + math.exp(-x)) if x > -700.0 else math.exp(x),
        lambda t: math.log(t / (1.0 - t)), lambda t: t * (1.0 - t),
        lambda t: min(t, 1.0 - t), 1e-5, False,
    ),
    "signed": _Kind(
        math.tanh, math.atanh, lambda t: 1.0 - t * t, lambda t: 1.0 - abs(t), 1e-8, True
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


def _nelder_mead(fun, x0, fatol=1e-10):
    budget = 400 * len(x0)
    return optimize.minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={"fatol": fatol, "xatol": 1e-8, "maxiter": budget, "maxfev": budget},
    )


def _fit(
    natural_loglik,
    theta0: np.ndarray,
    kinds: tuple[str, ...],
    names: tuple[str, ...],
    method: str,
    window: np.ndarray,
    spec=None,
    score=None,
    orders: Optional[tuple[int, int]] = None,
) -> FitResult:
    """Maximum-likelihood pipeline shared by every likelihood fitter.

    ``natural_loglik``, the optional analytic ``score`` and ``spec`` take
    the natural parameters and ``theta0`` is the natural start.  Each of
    ``kinds`` names a row of ``_KINDS``: ``free`` (identity), ``positive``
    (``exp``, with ``|log theta| < _LOG_DELTA_LIMIT``), ``unit`` (logistic
    onto (0, 1)) or ``signed`` (``tanh`` onto (-1, 1)).  Two Nelder-Mead
    passes minimize the negative log-likelihood over the search
    coordinates, charged ``_PENALTY`` outside the search domain, where it is
    not finite, or (given ``orders = (p, q)``) past stationarity.  Given
    ``score``, a BFGS polish on its chain-ruled gradient is kept if it
    lowers the objective.  ``converged`` is the success flag of the stage
    whose point is returned; a polish that raises leaves the simplex point
    unconverged.  ``loglik`` is ``natural_loglik`` at the estimates, and
    standard errors invert its Hessian with :func:`_difference_steps`
    (none for ``delta <= 1e-8`` or ``kappa <= 1e-5``).  ``window`` holds
    the counts after the conditioning prefix.  Raises ``ValueError`` when
    none of them is positive (the likelihood then has no maximum) or a
    ``signed`` parameter runs to +-1, and ``ArithmeticError`` when the best
    point is a penalty value.
    """
    if not np.any(window > 0):
        raise ValueError(
            "no positive count after the conditioning prefix: the likelihood has no maximum"
        )
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
        value = natural_loglik(np.array(theta))
        return -value if math.isfinite(value) else _PENALTY

    def obj_grad(u: np.ndarray):
        value = objective(u)
        if value >= _PENALTY / 2:
            return value, np.zeros_like(u)
        theta = natural(u)
        slopes = np.array([kind.slope(t) for kind, t in zip(table, theta)])
        return value, -score(np.array(theta)) * slopes

    x0 = np.array([kind.to_search(t) for kind, t in zip(table, theta0)])
    res = _nelder_mead(objective, x0)
    res = _nelder_mead(objective, res.x)
    best_x, best_f = res.x, res.fun
    iterations, converged = int(res.nit), bool(res.success)
    if score is not None:
        try:
            pol = optimize.minimize(
                obj_grad, best_x, method="BFGS", jac=True, options={"maxiter": 200}
            )
        except (ArithmeticError, ValueError):
            converged = False
        else:
            if math.isfinite(pol.fun) and pol.fun < best_f:
                best_x, best_f = pol.x, pol.fun
                iterations += int(pol.nit)
                converged = bool(pol.success)
    if not best_f < _PENALTY / 2:
        raise ArithmeticError("no admissible point found: the optimum is a penalty value")
    theta_hat = np.array(natural(best_x))
    ll = -best_f
    std_errors, invertible = None, False
    steps = _difference_steps(theta_hat, kinds)
    if steps is not None:
        try:
            hess = numerical_hessian(natural_loglik, theta_hat, steps)
            std_errors, invertible = _se_from_loglik_hessian(hess)
        except (np.linalg.LinAlgError, ValueError, ArithmeticError):
            std_errors, invertible = None, False
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
        hessian_invertible=invertible,
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
    """Conditional MLE by simplex search with a quasi-Newton polish.

    ``scenario`` may be an :class:`EstimationScenario`, a float (shorthand
    for a fixed scenario-1 dispersion) or ``None`` (scenario 2).  Trial
    points violating the stationarity condition are penalized; under
    scenario 2 the dispersion is optimized on the log scale so the search
    is unconstrained.  Standard errors are the square roots of the inverse
    numerical Hessian's diagonal; a singular (non positive-definite)
    Hessian flags ``hessian_invertible=False`` instead of failing.
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
        score=lambda theta: analytic_score_hessian(theta, series, (p, q, r), scenario)[0],
        orders=(p, q),
    )


def _censored_objective(series: CountSeries, p, q, r, power: int):
    x = series.counts
    start = max(p, q)

    def objective(theta_dyn: np.ndarray) -> float:
        outside = _stationarity_penalty(theta_dyn, p, q)
        if outside:
            return outside
        m = _mean_path(theta_dyn, series, p, q, r)[start:]
        fitted = np.maximum(0.0, m)
        dev = np.abs(x[start:] - fitted)
        if power == 2:
            dev = dev * dev
        return float(dev.sum())

    return objective


def _fit_censored_deviation(
    series: CountSeries, orders, power: int, method: str, n_restarts: int = 8
) -> FitResult:
    p, q, r = _orders(orders, series)
    n = len(series)
    n_eff = n - max(p, q)
    names = _param_names(p, q, r, with_delta=False)
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
    start = _moment_start(series, p, q, r)
    scale = 0.1 * (1.0 + np.abs(start))
    jitter_rng = np.random.default_rng(12345)
    candidates = [start] + [
        start + scale * jitter_rng.standard_normal(start.shape)
        for _ in range(n_restarts)
    ]
    best = None
    iterations = 0
    for x0 in candidates:
        res = _nelder_mead(objective, x0, fatol=1e-9)
        iterations += int(res.nit)
        key = (res.fun, float(np.linalg.norm(res.x)))
        if best is None or key < (best.fun, float(np.linalg.norm(best.x))):
            best = res
    est = best.x
    return FitResult(
        estimates=est,
        param_names=names,
        method=method,
        converged=bool(best.success),
        iterations=iterations,
        n_effective=n_eff,
        objective=float(best.fun),
    )


def fit_clade(series: CountSeries, orders=(1, 0)) -> FitResult:
    """Censored least-absolute-deviations estimator of the dynamics.

    Minimizes ``sum |X_t - max(0, M_t)|`` by multi-start simplex search
    (the objective is non-convex and piecewise-flat, so jittered restarts
    are mandatory).  No dispersion estimate, no standard errors and no
    ``spec`` are produced; the attained objective value is reported instead.
    """
    return _fit_censored_deviation(series, orders, power=1, method="clade")


def fit_cls(series: CountSeries, orders=(1, 0)) -> FitResult:
    """Censored conditional least squares, ``sum (X_t - max(0, M_t))^2``.

    The censored fitted value makes the objective discontinuous in the
    parameters, hence the same multi-start strategy as :func:`fit_clade`.
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
    (dgp, n, burn_in, methods, scenario, seed_seq, orders) = args
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    series = simulate(dgp, n, burn_in=burn_in, rng=rng, warn_nonstationary=False)
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
                ll_true = loglik(truth, series, orders, scenario)
                if fit.loglik is not None and fit.loglik < ll_true - 1e-6:
                    regression = 1
                out[name] = (
                    fit.estimates,
                    fit.std_errors,
                    fit.hessian_invertible,
                )
            else:
                fit = _METHOD_FITTERS[name](series, orders)
                out[name] = (fit.estimates, None, None)
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
    burn_in: int = 500,
    jobs: int = 1,
) -> MCStudyResult:
    """Estimator-recovery experiment on freshly simulated stationary paths.

    Each replication owns an independently spawned random stream derived
    from ``seed``, so results are identical no matter how many worker
    processes execute them.  Per-replication estimation failures are
    tallied, not raised.
    """
    scenario = _as_scenario(scenario)
    methods = tuple(methods)
    unknown = set(methods) - set(_METHOD_FITTERS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    orders = (dgp.p, dgp.q)
    streams = np.random.SeedSequence(seed).spawn(replications)
    tasks = [
        (dgp, n, burn_in, methods, scenario, streams[i], orders)
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
        ests = [r[0][name][0] for r in results if r[0][name] is not None]
        fails[name] = replications - len(ests)
        if ests:
            arr = np.vstack(ests)
            means[name] = arr.mean(axis=0)
            sim_se[name] = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros(
                arr.shape[1]
            )
        else:
            means[name] = np.array([])
            sim_se[name] = np.array([])
        if name == "mle":
            ses = [
                r[0][name][1]
                for r in results
                if r[0][name] is not None and r[0][name][1] is not None
            ]
            approx_se[name] = np.vstack(ses).mean(axis=0) if ses else None
            flags = [
                not r[0][name][2] for r in results if r[0][name] is not None
            ]
            noninv[name] = float(np.mean(flags)) if flags else 0.0
        else:
            approx_se[name] = None
            noninv[name] = None
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
