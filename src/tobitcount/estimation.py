"""Parameter estimation for STINGARCH models.

Three estimators are provided:

* conditional maximum likelihood, with the dispersion either fixed in
  advance (scenario 1) or estimated alongside the dynamics (scenario 2);
* the censored least-absolute-deviations estimator minimizing
  ``sum |X_t - max(0, M_t)|``;
* the censored conditional least-squares estimator minimizing
  ``sum (X_t - max(0, M_t))^2``.

The likelihood layer also exposes the analytic score and Hessian (including
the conditional-mean recursion derivatives) and the outer-product /
curvature information matrices.  Approximate standard errors follow the
usual practice of inverting a numerical Hessian of the maximized
log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

from . import skellam
from .stingarch import (
    CountSeries,
    ModelSpec,
    _mean_recursion,
    check_stationarity,
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
        if self.fixed_delta is not None and not (self.fixed_delta > 0.0):
            raise ValueError("scenario-1 delta must be positive")

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
    spec: Optional[ModelSpec] = None
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


def _mean_path(theta, series: CountSeries, p, q, r, scenario) -> np.ndarray:
    alpha0, alphas, betas, gammas, _ = _unpack(theta, p, q, r, scenario)
    return _mean_recursion(
        alpha0,
        alphas,
        betas,
        gammas,
        series.counts,
        series.covariates,
        extend=False,
        presample_mean=alpha0,
    )


def loglik(theta, series: CountSeries, orders, scenario: EstimationScenario) -> float:
    """Conditional log-likelihood, conditioning on the first ``max(p, q)`` counts.

    Positive observations use the closed-form log-density branches for
    ``M_t >= 0`` and ``M_t < 0``; zero observations contribute the log of
    the entire nonpositive latent mass.  Returns ``-inf`` as soon as any
    term underflows to zero probability.
    """
    p, q, r = _orders(orders, series)
    _, _, _, _, delta = _unpack(theta, p, q, r, scenario)
    if not (delta > 0.0):
        raise ValueError("log-likelihood requires delta > 0")
    n = len(series)
    start = max(p, q)
    if n <= start:
        raise ValueError("series shorter than the conditioning prefix")
    m = _mean_path(theta, series, p, q, r, scenario)[start:]
    x = series.counts[start:]
    if not np.all(np.isfinite(m)):
        return -math.inf
    pos = x > 0
    total = 0.0
    if np.any(pos):
        xs = x[pos].astype(float)
        ms = m[pos]
        sign = np.where(ms >= 0.0, 1.0, -1.0)
        a = 2.0 * np.abs(ms) + delta
        logs = (
            -np.abs(ms)
            - delta
            + 0.5 * xs * sign * (np.log(a) - math.log(delta))
            + skellam._log_bessel_i_arr(x[pos], np.sqrt(delta * a))
        )
        if not np.all(np.isfinite(logs)):
            return -math.inf
        total += float(logs.sum())
    if np.any(~pos):
        f0 = skellam._cdf0_arr(m[~pos], delta)
        if np.any(f0 <= 0.0):
            return -math.inf
        total += float(np.log(f0).sum())
    return total


# ---------------------------------------------------------------------------
# analytic derivatives
# ---------------------------------------------------------------------------


def _term_derivs_arr(x: np.ndarray, m: np.ndarray, delta: float):
    """First/second partial derivatives of ``ln P(X* = x | m, delta)``.

    Returns ``(g_m, g_d, h_mm, h_dd, h_md)`` for the latent Skellam
    log-density at signed integer ``x`` (Bessel order ``n = |x|``) and
    conditional means ``m``.  The two ``m``-sign branches share the Bessel
    ratio terms ``b = I'_n/I_n`` and ``c = (I''/I) - b^2`` and are evaluated
    jointly with masked arithmetic; the knife edge ``m == 0`` is evaluated
    on the ``m >= 0`` branch, with which the ``m < 0`` branch agrees in the
    limit.
    """
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    x, m = np.broadcast_arrays(x, m)
    n = np.abs(x)  # Bessel order
    pos = m >= 0.0
    a = 2.0 * np.abs(m) + delta
    z = np.sqrt(delta * a)
    orders = np.abs(x).astype(np.int64)
    log_i = skellam._log_bessel_i_arr(
        np.stack([np.abs(orders - 1), orders, orders + 1]),
        np.broadcast_to(z, (3,) + z.shape),
    )
    r_dn = np.exp(log_i[0] - log_i[1])
    r_up = np.exp(log_i[2] - log_i[1])
    b = n / z + r_up
    c = 1.0 + ((n - 1.0) * r_dn - (n + 1.0) * r_up) / (2.0 * z) - b * b
    sd = delta / z  # sqrt(delta)/sqrt(a)
    da_pow = (delta * a) ** 1.5
    sign = np.where(pos, 1.0, -1.0)
    g_m = sign * (-1.0 + sd * b) + x / a
    half_diff = 0.5 * x * (1.0 / a - 1.0 / delta)
    g_d = -1.0 + sign * half_diff + (sign * m + delta) / z * b
    h_mm = (-sign * 2.0 * x / a + delta * c - sd * b) / a
    shifted = m + sign * delta
    h_dd = (
        sign * (-0.5 * x / (a * a) + 0.5 * x / (delta * delta))
        - m * m * b / da_pow
        + shifted * shifted * c / (delta * a)
    )
    h_md = (-x / a + m / z * b + shifted * c) / a
    return g_m, g_d, h_mm, h_dd, h_md


def _zero_term_derivs(m: float, delta: float):
    """Derivatives of ``ln P(X* <= 0 | m, delta)``.

    The nonpositive mass is differentiated term by term over ``x = 0..-R``;
    the radius doubles until the neglected terms (weighted by the largest
    derivative factors, which grow polynomially in ``|x|``) fall below
    1e-17 of the total mass.
    """
    radius = int(math.ceil(abs(min(m, 0.0)) + 8.0 * math.sqrt(abs(m) + delta))) + 12
    for _ in range(8):
        xs = -np.arange(0, radius + 1, dtype=np.int64)
        probs = np.exp(skellam._log_pmf_arr(xs, np.full(xs.shape, m), delta))
        f = float(probs.sum())
        if f <= 0.0:
            raise ArithmeticError("zero-probability mass underflowed")
        if float(probs[-1]) * (1.0 + radius * radius) < 1e-17 * f:
            break
        radius *= 2
    else:
        raise ArithmeticError("zero-term derivative summation did not converge")
    g_m, g_d, h_mm, h_dd, h_md = _term_derivs_arr(xs, np.full(xs.shape, m), delta)
    s_m = float(probs @ g_m)
    s_d = float(probs @ g_d)
    s_mm = float(probs @ (g_m * g_m + h_mm))
    s_dd = float(probs @ (g_d * g_d + h_dd))
    s_md = float(probs @ (g_m * g_d + h_md))
    d_m = s_m / f
    d_d = s_d / f
    return (
        d_m,
        d_d,
        s_mm / f - d_m * d_m,
        s_dd / f - d_d * d_d,
        s_md / f - d_m * d_d,
    )


def _mean_derivatives(theta, series, p, q, r, scenario):
    """``dM_t/dtheta*`` and ``d2M_t/dtheta* dtheta*`` along the recursion.

    theta* is the dynamics block (everything except delta).  Pre-sample
    means are pinned to alpha0, so their only nonzero derivative is the
    alpha0 entry.
    """
    alpha0, alphas, betas, gammas, _ = _unpack(theta, p, q, r, scenario)
    n = len(series)
    k = 1 + p + q + r
    x = series.counts
    z = series.covariates
    m = _mean_path(theta, series, p, q, r, scenario)
    start = max(p, q)
    dm = np.zeros((n, k))
    dm[:start, 0] = 1.0
    d2m = np.zeros((n, k, k)) if q else None
    beta_idx = range(1 + p, 1 + p + q)
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
        if q:
            hh = d2m[t]
            for j in range(1, q + 1):
                col = p + j
                grad_prev = dm[t - j]
                hh[col, :] += grad_prev
                hh[:, col] += grad_prev
            for j, b in enumerate(betas, start=1):
                hh += b * d2m[t - j]
    return m, dm, d2m


def _per_term_derivs(x: np.ndarray, m: np.ndarray, delta: float):
    """Per-observation derivative scalars for the full likelihood window.

    Positive counts use the vectorized closed forms; zero counts fall back
    to the term-wise differentiated nonpositive mass.
    """
    count = x.shape[0]
    g_m = np.empty(count)
    g_d = np.empty(count)
    h_mm = np.empty(count)
    h_dd = np.empty(count)
    h_md = np.empty(count)
    pos = x > 0
    if np.any(pos):
        vals = _term_derivs_arr(x[pos], m[pos], delta)
        for target, block in zip((g_m, g_d, h_mm, h_dd, h_md), vals):
            target[pos] = block
    for idx in np.flatnonzero(~pos):
        vals = _zero_term_derivs(float(m[idx]), delta)
        g_m[idx], g_d[idx], h_mm[idx], h_dd[idx], h_md[idx] = vals
    return g_m, g_d, h_mm, h_dd, h_md


def analytic_score_hessian(theta, series: CountSeries, orders, scenario):
    """Closed-form score vector and Hessian matrix of :func:`loglik`.

    Both are derivatives of the conditional log-likelihood with respect to
    the natural parameters (dynamics block, then delta under scenario 2);
    the Hessian is returned as ``d^2 L / dtheta dtheta'`` (negative definite
    near the optimum).
    """
    p, q, r = _orders(orders, series)
    _, _, _, _, delta = _unpack(theta, p, q, r, scenario)
    if not (delta > 0.0):
        raise ValueError("score requires delta > 0")
    n = len(series)
    start = max(p, q)
    m, dm, d2m = _mean_derivatives(theta, series, p, q, r, scenario)
    k_dyn = 1 + p + q + r
    k_all = k_dyn + (1 if scenario.estimates_delta else 0)
    g_m, g_d, h_mm, h_dd, h_md = _per_term_derivs(
        series.counts[start:], m[start:], delta
    )
    dm_w = dm[start:]
    grad = np.zeros(k_all)
    hess = np.zeros((k_all, k_all))
    grad[:k_dyn] = dm_w.T @ g_m
    hess[:k_dyn, :k_dyn] = dm_w.T @ (dm_w * h_mm[:, None])
    if d2m is not None:
        hess[:k_dyn, :k_dyn] += np.einsum("t,tij->ij", g_m, d2m[start:])
    if scenario.estimates_delta:
        grad[-1] = g_d.sum()
        cross = dm_w.T @ h_md
        hess[:k_dyn, -1] = cross
        hess[-1, :k_dyn] = cross
        hess[-1, -1] = h_dd.sum()
    return grad, hess


def information_matrices(theta, series: CountSeries, orders, scenario):
    """Outer-product and curvature information estimates ``(U_hat, V_hat)``.

    ``V_hat`` averages the per-observation score outer products and
    ``U_hat`` the negated per-observation Hessians, both evaluated at
    ``theta``.  Exposed for inspection; reported standard errors use the
    plain inverse numerical Hessian instead.
    """
    p, q, r = _orders(orders, series)
    _, _, _, _, delta = _unpack(theta, p, q, r, scenario)
    n = len(series)
    start = max(p, q)
    m, dm, d2m = _mean_derivatives(theta, series, p, q, r, scenario)
    k_dyn = 1 + p + q + r
    k_all = k_dyn + (1 if scenario.estimates_delta else 0)
    g_m, g_d, h_mm, h_dd, h_md = _per_term_derivs(
        series.counts[start:], m[start:], delta
    )
    dm_w = dm[start:]
    per_term_grad = np.zeros((n - start, k_all))
    per_term_grad[:, :k_dyn] = dm_w * g_m[:, None]
    u_hat = np.zeros((k_all, k_all))
    u_hat[:k_dyn, :k_dyn] = dm_w.T @ (dm_w * h_mm[:, None])
    if d2m is not None:
        u_hat[:k_dyn, :k_dyn] += np.einsum("t,tij->ij", g_m, d2m[start:])
    if scenario.estimates_delta:
        per_term_grad[:, -1] = g_d
        cross = dm_w.T @ h_md
        u_hat[:k_dyn, -1] = cross
        u_hat[-1, :k_dyn] = cross
        u_hat[-1, -1] = h_dd.sum()
    count = n - start
    v_hat = per_term_grad.T @ per_term_grad / count
    return -u_hat / count, v_hat


def _se_from_loglik_hessian(hess: np.ndarray):
    """Standard errors from a log-likelihood Hessian, or ``None``.

    The Hessian counts as invertible only when it is negative definite and
    well conditioned (condition number below 1e6); near-singular curvature
    (e.g. collinear covariates, boundary dispersion estimates) is reported
    as non-invertible rather than turned into meaningless standard errors.
    """
    neg = -np.asarray(hess, dtype=float)
    if not np.all(np.isfinite(neg)):
        return None, False
    eigenvalues = np.linalg.eigvalsh(0.5 * (neg + neg.T))
    if eigenvalues.min() <= 0.0 or eigenvalues.max() / eigenvalues.min() > 1e6:
        return None, False
    diag = np.diag(np.linalg.inv(neg))
    if np.any(diag <= 0.0):
        return None, False
    return np.sqrt(diag), True


def numerical_hessian(fun, x0: np.ndarray, rel_step: float = 1e-4, steps=None):
    """Central-difference Hessian of a scalar function.

    ``steps`` may prescribe per-coordinate step sizes (used to keep
    positivity-constrained parameters inside their domain).
    """
    x0 = np.asarray(x0, dtype=float)
    k = x0.shape[0]
    h = np.asarray(steps, dtype=float) if steps is not None else rel_step * (
        1.0 + np.abs(x0)
    )
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
    from .diagnostics import sample_acf

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


def _stationarity_violation(theta_dyn: np.ndarray, p: int, q: int) -> float:
    total = sum(max(0.0, a) for a in theta_dyn[1 : 1 + p]) + sum(
        abs(b) for b in theta_dyn[1 + p : 1 + p + q]
    )
    return total - 1.0


def _nelder_mead(fun, x0, fatol=1e-10, xatol=1e-8, maxiter=None):
    res = optimize.minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={
            "fatol": fatol,
            "xatol": xatol,
            "maxiter": maxiter or 400 * len(x0),
            "maxfev": maxiter or 400 * len(x0),
        },
    )
    return res


def fit_mle(
    series: CountSeries,
    orders=(1, 0),
    scenario: EstimationScenario | float | None = 0.25,
    start: Optional[np.ndarray] = None,
    polish: bool = True,
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
    if not isinstance(scenario, EstimationScenario):
        scenario = (
            EstimationScenario.free()
            if scenario is None
            else EstimationScenario.fixed(float(scenario))
        )
    p, q, r = _orders(orders, series)
    n = len(series)
    n_eff = n - max(p, q)
    if start is None:
        start_dyn = _moment_start(series, p, q, r)
    else:
        start_dyn = np.asarray(start, dtype=float)[: 1 + p + q + r]
    k_dyn = 1 + p + q + r

    def to_natural(internal: np.ndarray) -> np.ndarray:
        if scenario.estimates_delta:
            return np.concatenate([internal[:k_dyn], [math.exp(internal[-1])]])
        return internal

    def penalty(internal: np.ndarray) -> float:
        # 0 inside the search domain: the stationarity region and, under
        # scenario 2, a log-delta of moderate size
        violation = _stationarity_violation(internal, p, q)
        if violation >= 0.0:
            return _PENALTY * (1.0 + violation)
        if scenario.estimates_delta and not abs(internal[-1]) < _LOG_DELTA_LIMIT:
            return _PENALTY
        return 0.0

    def objective(internal: np.ndarray) -> float:
        outside = penalty(internal)
        if outside:
            return outside
        value = loglik(to_natural(internal), series, (p, q, r), scenario)
        if not math.isfinite(value):
            return _PENALTY
        return -value

    x0 = start_dyn
    if scenario.estimates_delta:
        x0 = np.concatenate([start_dyn, [math.log(0.25)]])
    res = _nelder_mead(objective, x0)
    res = _nelder_mead(objective, res.x)
    iterations = int(res.nit)
    best_x, best_f = res.x, res.fun
    converged = bool(res.success)
    if polish:

        def obj_grad(internal: np.ndarray):
            outside = penalty(internal)
            if outside:
                return outside, np.zeros_like(internal)
            natural = to_natural(internal)
            value = loglik(natural, series, (p, q, r), scenario)
            if not math.isfinite(value):
                return _PENALTY, np.zeros_like(internal)
            grad, _ = analytic_score_hessian(natural, series, (p, q, r), scenario)
            if scenario.estimates_delta:
                grad = grad.copy()
                grad[-1] *= natural[-1]  # chain rule through log-delta
            return -value, -grad

        try:
            pol = optimize.minimize(
                obj_grad, best_x, method="BFGS", jac=True, options={"maxiter": 200}
            )
            if math.isfinite(pol.fun) and pol.fun < best_f:
                best_x, best_f = pol.x, pol.fun
                iterations += int(pol.nit)
                converged = True
        except (ArithmeticError, ValueError, OverflowError):
            pass
    theta_hat = to_natural(best_x)
    ll = -best_f if best_f < _PENALTY / 2 else -math.inf
    k_free = k_dyn + (1 if scenario.estimates_delta else 0)
    from .diagnostics import information_criteria

    aic, bic = information_criteria(ll, k_free, n_eff)

    def natural_loglik(theta_nat: np.ndarray) -> float:
        return loglik(theta_nat, series, (p, q, r), scenario)

    std_errors = None
    invertible = False
    if math.isfinite(ll):
        steps = 1e-4 * (1.0 + np.abs(theta_hat))
        if scenario.estimates_delta:
            steps[-1] = min(steps[-1], max(theta_hat[-1] / 3.0, 1e-8))
        try:
            hess = numerical_hessian(natural_loglik, theta_hat, steps=steps)
            std_errors, invertible = _se_from_loglik_hessian(hess)
        except (np.linalg.LinAlgError, ValueError, ArithmeticError):
            invertible = False
    method = "mle-s2" if scenario.estimates_delta else "mle-s1"
    return FitResult(
        estimates=theta_hat,
        param_names=_param_names(p, q, r, scenario.estimates_delta),
        method=method,
        converged=converged,
        iterations=iterations,
        n_effective=n_eff,
        spec=_spec_from_theta(theta_hat, p, q, r, scenario),
        std_errors=std_errors,
        loglik=ll,
        aic=aic,
        bic=bic,
        hessian_invertible=invertible,
    )


def _censored_objective(series: CountSeries, p, q, r, power: int):
    x = series.counts
    start = max(p, q)
    scenario = EstimationScenario.fixed(1.0)  # delta is irrelevant here

    def objective(theta_dyn: np.ndarray) -> float:
        violation = _stationarity_violation(theta_dyn, p, q)
        if violation >= 0.0:
            return _PENALTY * (1.0 + violation)
        theta = np.asarray(theta_dyn, dtype=float)
        m = _mean_path(theta, series, p, q, r, scenario)[start:]
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
            spec=ModelSpec(alpha0=est[0], delta=0.25),
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
        spec=_spec_from_theta(est, p, q, r, EstimationScenario.fixed(0.25)),
        objective=float(best.fun),
    )


def fit_clade(series: CountSeries, orders=(1, 0)) -> FitResult:
    """Censored least-absolute-deviations estimator of the dynamics.

    Minimizes ``sum |X_t - max(0, M_t)|`` by multi-start simplex search
    (the objective is non-convex and piecewise-flat, so jittered restarts
    are mandatory).  No dispersion estimate and no standard errors are
    produced; the attained objective value is reported instead.
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
    if not isinstance(scenario, EstimationScenario):
        scenario = (
            EstimationScenario.free()
            if scenario is None
            else EstimationScenario.fixed(float(scenario))
        )
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
