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
gradient and the nonzero beta rows of its Hessian come from
:func:`~tobitcount.stingarch._mean_kernel`, the mean recursion every
fitter shares.  Approximate standard errors invert the Hessian of the
maximized log-likelihood: the analytic one away from the likelihood's
kinks, and a central-difference one at a kink (a conditional mean at
``M_t = 0``, or ``alpha1 = 0`` for TINARS(1), whose analytic derivatives
:mod:`~tobitcount.extensions` supplies).

Every likelihood fit runs through :func:`_fit`, the one fit driver, whose
docstring describes its stages: a Newton run from the start, returned
where it certifies a point away from the ``M_t = 0`` kinks, else a coarse
Nelder-Mead pass that a second Newton stage finishes; every
:class:`ModelSpec` fit, the bounded one-inflated one included, is set up
by :func:`_fit_spec`.  The CLS fit runs Gauss-Newton on the Jacobian of
its censored residuals from the moment start, and from eight more starts
only where that run stops short of a first-order point; CLADE runs a
Nelder-Mead multi-start.

Every Nelder-Mead pass is the in-house simplex :func:`_simplex_search`:
scipy's algorithm step for step on Python floats, with scipy's iterates,
because scipy's per-call array bookkeeping cost about as much as the
objective it serves.  :func:`_nelder_mead`, the one driver, runs a list of
searches in lockstep: the likelihood fits run one search, and CLADE nine.
On an n = 250 series of the paper's simulation study a CLADE fit
evaluates about 3,900 trial points in about 650 rounds, each one batched
objective call of about six points.  The CLADE and CLS objective
(:func:`_censored_objective`), the CLS residuals and Jacobian
(:func:`_censored_residuals`) and the kink rule of :func:`_fit_spec` each
build their mean kernel once per fit; :func:`loglik` and the score share
one set-up (:func:`_prologue`), which builds one per call.  The kernel
solves a block of parameter rows in one banded solve.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import reduce
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
    _mean_kernel,
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
# a point whose Newton decrement g'(-H)^-1 g is at most this times
# 1 + |loglik| is a certified maximum and ends the search
_CERTIFICATE = 1e-10
# the simplex's full objective tolerance, and its tolerances (fatol and
# xatol) in the coarse pass that the second Newton stage finishes
_FATOL = 1e-10
_COARSE = 1e-3
# both Newton stages stop at this gradient norm or after this many
# iterations: a zig-zag across kinks runs 100 without the cap, and what
# the cap leaves either takes the coarse stages or resumes the simplex
_NEWTON_GTOL = 1e-8
_NEWTON_MAXITER = 20
# ftol, xtol and gtol of the CLS Gauss-Newton runs; least_squares' default
# 1e-8 stops short of the simplex's objective
_GN_TOL = 1e-15
# a CLS run from the moment start ends the fit when its gradient J'r is at
# most this times 1 + its objective in every coordinate, a first-order point
_GN_FIRST_ORDER = 1e-6
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
    if min(p, q, r) < 0:
        raise ValueError(f"orders must be nonnegative, got {(p, q, r)}")
    have = 0 if series.covariates is None else series.covariates.shape[1]
    if r != have:
        raise ValueError(f"orders declare {r} covariates but series has {have}")
    return int(p), int(q), int(r)


def _unpack(theta, p: int, q: int, r: int, scenario: EstimationScenario, bound=None):
    """``(alpha0, alphas, betas, gammas, delta, kappa)`` of a parameter vector
    laid out as the dynamics block, then ``delta`` under scenario 2, then
    ``kappa`` given a ``bound``; ``kappa`` is 0 without one."""
    theta = np.asarray(theta, dtype=float)
    k_dyn = 1 + p + q + r
    want = k_dyn + (1 if scenario.estimates_delta else 0) + (0 if bound is None else 1)
    if theta.shape[0] != want:
        raise ValueError(f"theta has {theta.shape[0]} entries, expected {want}")
    alpha0 = float(theta[0])
    alphas = tuple(theta[1 : 1 + p])
    betas = tuple(theta[1 + p : 1 + p + q])
    gammas = tuple(theta[1 + p + q : k_dyn])
    delta = float(theta[k_dyn]) if scenario.estimates_delta else float(scenario.fixed_delta)
    kappa = 0.0 if bound is None else float(theta[-1])
    return alpha0, alphas, betas, gammas, delta, kappa


def _spec_from_theta(theta, p, q, r, scenario, bound=None) -> ModelSpec:
    alpha0, alphas, betas, gammas, delta, kappa = _unpack(theta, p, q, r, scenario, bound)
    return ModelSpec(
        alpha0=alpha0, alphas=alphas, betas=betas, delta=delta, gammas=gammas,
        bound=bound, kappa=kappa,
    )


def _prologue(theta, series: CountSeries, orders, scenario: EstimationScenario, bound=None):
    """The set-up :func:`loglik` and :func:`_score_parts` share: ``(theta,
    (p, q, r), start, delta, kappa, kernel)``, with ``theta`` as a float
    array, ``start = max(p, q)`` the conditioning prefix and ``kernel`` the
    series' :func:`_mean_kernel`.  Raises ``ValueError`` for ``delta <= 0``
    or a series no longer than the prefix."""
    p, q, r = _orders(orders, series)
    theta = np.asarray(theta, dtype=float)
    _, _, _, _, delta, kappa = _unpack(theta, p, q, r, scenario, bound)
    if not (delta > 0.0):
        raise ValueError("log-likelihood requires delta > 0")
    start = max(p, q)
    if len(series) <= start:
        raise ValueError("series shorter than the conditioning prefix")
    return theta, (p, q, r), start, delta, kappa, _mean_kernel(series, p, q, r)


def loglik(theta, series: CountSeries, orders, scenario: EstimationScenario, bound=None) -> float:
    """Conditional log-likelihood, conditioning on the first ``max(p, q)`` counts.

    Each term is the observation law :func:`skellam._log_obs_arr` at the
    count given ``M_t``: the latent log-pmf for a positive count and the log
    of the entire nonpositive latent mass for a zero.  Given a ``bound`` N
    it is the bounded one-inflated model's law and ``theta`` ends with
    ``kappa``, as in :func:`analytic_score_hessian`.  Returns ``-inf`` when
    a mean is not finite or any term underflows to zero probability.
    """
    theta, (p, q, r), start, delta, kappa, kernel = _prologue(theta, series, orders, scenario, bound)
    m = kernel.means(theta[: 1 + p + q + r])[start:]
    if not np.all(np.isfinite(m)):
        return -math.inf
    logs = skellam._log_obs_arr(series.counts[start:], m, delta, bound, kappa)
    if not np.all(np.isfinite(logs)):
        return -math.inf
    return float(logs.sum())


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
    theta, (p, q, r), start, delta, kappa, kernel = _prologue(theta, series, orders, scenario, bound)
    k_dyn = 1 + p + q + r
    m, dm = kernel.gradient(theta[:k_dyn])
    d2m_beta = kernel.beta_rows(theta[:k_dyn], dm)
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
    ``-H^-1`` instead, of the analytic Hessian where the fit's means are all
    positive (see :func:`_point_derivatives`).
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


def _point_derivatives(natural_loglik, theta: np.ndarray, kinds, derivatives, kink_free):
    """The natural gradient and Hessian of ``natural_loglik`` at ``theta``
    that :func:`_certifies` judges and :func:`_se_from_loglik_hessian`
    inverts, or ``None`` where :func:`_difference_steps` withholds the
    standard errors.  Where ``kink_free`` holds at ``theta`` they are
    ``derivatives(theta)``, the analytic ones; at a kink (a conditional mean
    at or below zero, or TINARS(1)'s ``alpha1 = 0``) or where they raise
    they are the stencil's, :func:`numerical_hessian` on those steps, or
    ``None`` where a stencil point raises."""
    steps = _difference_steps(theta, kinds)
    if steps is None:
        return None
    if kink_free(theta):
        try:
            return derivatives(theta)
        except (ArithmeticError, ValueError):
            pass  # the stencil's, as at a kink
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


# Nelder-Mead's reflection, expansion, contraction and shrink coefficients
# and its initial steps from a nonzero and from a zero coordinate
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZERO_STEP, _ZERO_STEP = 0.05, 0.00025


class _BudgetSpent(Exception):
    """An objective call past the Nelder-Mead budget."""


def _nelder_mead(fun, searches):
    """Run the :func:`_simplex_search` iterations ``searches`` in lockstep and
    return their results, in order.

    Each round, every unfinished search proposes its next trial point, and
    one call of ``fun`` on the ``(K, k)`` array of those points returns an
    array of their K values.  When ``fun`` gives each row the value it
    gives that row alone, each result is the one its search reaches alone.
    A fit with a scalar objective runs one search on a batch wrapper of it.
    """
    results = [None] * len(searches)
    live = list(enumerate(searches))
    values = [None] * len(live)
    while live:
        running, points = [], []
        for (i, search), value in zip(live, values):
            try:
                points.append(search.send(value))
            except StopIteration as stop:
                results[i] = stop.value
            else:
                running.append((i, search))
        live = running
        if points:
            values = fun(np.array(points)).tolist()
    return results


def _simplex_search(x0, fatol=_FATOL, xatol=1e-8, simplex=None):
    """Nelder-Mead from ``x0``, or from the initial ``simplex`` when given,
    with at most ``400 k`` iterations and objective calls in ``k``
    dimensions, as a generator: it yields each trial point as a list of
    floats, is sent the objective's value there, and returns the result.
    :func:`_nelder_mead` drives it.

    This is scipy's ``minimize(method="Nelder-Mead")`` (Nelder & Mead 1965,
    with scipy's non-adaptive coefficients) step for step, with the same
    options and the same iterates, result fields ``x``, ``fun``, ``nit``,
    ``nfev``, ``success`` and ``final_simplex``.  It keeps the vertices as
    Python float lists, so an iteration on a few coordinates costs a few
    microseconds instead of scipy's array bookkeeping, which exceeded the
    censored objective's own cost.  Everything that decides an iterate is
    scipy's:

    * the initial simplex steps each coordinate by 5%, or a zero one to
      0.00025;
    * the centroid sums the vertices in row order and every trial point is
      the same expression in the same order;
    * the vertices are ordered by ``np.argsort`` of their values, so ties
      fall as they do in scipy;
    * the search stops when every vertex is within ``xatol`` of the best in
      every coordinate and within ``fatol`` of it in value;
    * a call past the budget ends the iteration in which it falls, keeping
      the vertices that were already replaced (a shrink sets a vertex
      before evaluating it), and ``success`` is then false.
    """
    budget = 400 * len(x0)
    if simplex is None:
        x0 = [float(v) for v in np.ravel(x0)]
        sim = [x0]
        for k, value in enumerate(x0):
            vertex = list(x0)
            vertex[k] = (1 + _NONZERO_STEP) * value if value != 0 else _ZERO_STEP
            sim.append(vertex)
    else:
        sim = np.array(simplex, dtype=float).tolist()
    n = len(sim[0])
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def trial(x: list) -> list:
        # the point to evaluate next, counted against the budget
        nonlocal nfev
        if nfev >= budget:
            raise _BudgetSpent
        nfev += 1
        return x

    def ordered(sim: list, fsim: list):
        order = np.array(fsim).argsort().tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = yield trial(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the first simplex twice, which may reorder ties twice
    sim, fsim = ordered(*ordered(sim, fsim))
    iterations = 1
    while nfev < budget and iterations < budget:
        try:
            best, worst = sim[0], sim[-1]
            converged = all(
                abs(a - b) <= xatol for vertex in sim[1:] for a, b in zip(vertex, best)
            ) and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])
            if converged:
                break
            xbar = [reduce(operator.add, column) / n for column in zip(*sim[:-1])]
            xr = [(1 + _RHO) * c - _RHO * w for c, w in zip(xbar, worst)]
            fxr = yield trial(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = [(1 + _RHO * _CHI) * c - _RHO * _CHI * w for c, w in zip(xbar, worst)]
                fxe = yield trial(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                # outside contraction
                xc = [(1 + _PSI * _RHO) * c - _PSI * _RHO * w for c, w in zip(xbar, worst)]
                fxc = yield trial(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                # inside contraction
                xcc = [(1 - _PSI) * c + _PSI * w for c, w in zip(xbar, worst)]
                fxcc = yield trial(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [a + _SIGMA * (b - a) for a, b in zip(best, sim[j])]
                    fsim[j] = yield trial(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = ordered(sim, fsim)
    vertices, values = np.array(sim), np.array(fsim)
    return optimize.OptimizeResult(
        x=vertices[0],
        fun=np.min(values),
        nit=iterations,
        nfev=nfev,
        success=nfev < budget and iterations < budget,
        final_simplex=(vertices, values),
    )


def _newton(fun, derivatives, x0):
    """Either Newton stage of :func:`_fit`, the first one from the start or
    the one that finishes the coarse pass: trust-region Newton
    (``trust-exact``) on ``fun`` from ``x0``, with ``derivatives(x)``
    returning the gradient and Hessian together, for at most
    ``_NEWTON_MAXITER`` iterations.

    trust-exact asks for the Hessian at every trial point and for the
    gradient at the accepted ones; :func:`_fit`'s memo of the natural
    derivatives (:func:`_point_memo`) evaluates them once per point.
    """
    return optimize.minimize(
        fun,
        x0,
        method="trust-exact",
        jac=lambda x: derivatives(x)[0],
        hess=lambda x: derivatives(x)[1],
        options={"gtol": _NEWTON_GTOL, "maxiter": _NEWTON_MAXITER},
    )


def _point_memo(derivatives):
    """``derivatives`` memoized on the natural point, for one fit: a Newton
    stage asks for the gradient and the Hessian of each point apart, and the
    certificate asks again at the stage's final point, which need not be
    the last one evaluated, since trust-exact's last trial can be
    rejected.  A fit evaluates a few dozen points at most."""
    table = {}

    def memoized(theta: np.ndarray):
        key = theta.tobytes()
        if key not in table:
            table[key] = derivatives(theta)
        return table[key]

    return memoized


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
    derivatives,
    kink_free,
    spec=None,
    orders: Optional[tuple[int, int]] = None,
) -> FitResult:
    """Maximum-likelihood pipeline shared by every likelihood fitter.

    ``natural_loglik``, ``spec``, ``derivatives``, which returns the
    analytic gradient and Hessian of ``natural_loglik``, and ``kink_free``,
    which says whether the likelihood is smooth at a point, take the natural
    parameters and ``theta0`` is the natural start.  Each of ``kinds`` names
    a row of ``_KINDS``: ``free`` (identity), ``positive`` (``exp``, with
    ``|log theta| < _LOG_DELTA_LIMIT``), ``unit`` (logistic onto (0, 1)) or
    ``signed`` (``tanh`` onto (-1, 1)).  The search minimizes the negative
    log-likelihood over the search coordinates, charged ``_PENALTY`` outside
    the search domain, where it is not finite, where the special-function
    kernels refuse it with ``PrecisionError``, or (given ``orders = (p,
    q)``) past stationarity; a start point the kernels refuse raises their
    ``PrecisionError``.

    The first stage is a trust-region Newton run (:func:`_newton`) from
    ``theta0`` on the chain-ruled gradient ``g s`` and Hessian ``H s s' +
    diag(g s'')``, ``s`` and ``s''`` being the kinds' ``slope`` and
    ``curvature`` (:func:`_search_derivatives`).  Its point is returned,
    with ``converged`` true, only when ``kink_free`` holds there and the
    natural gradient ``g`` and Hessian ``H`` of :func:`_point_derivatives`
    certify it: a positive definite ``-H`` and a Newton decrement ``g'
    (-H)^-1 g`` of at most ``_CERTIFICATE (1 + |loglik|)``.  Those are
    ``derivatives`` at a kink-free point, and elsewhere or where they raise
    the stencil (:func:`numerical_hessian` on :func:`_difference_steps`);
    both are withheld where the steps are.  For a :class:`ModelSpec`
    ``kink_free`` is every conditional mean of the window being positive,
    since ``lambda1,2 = (|m| +- m + delta) / 2`` kinks at ``m = 0``, and
    for TINARS(1) it is ``alpha1 != 0``, since the thinning's sign
    convention ``sgn(0) = 1`` kinks there.  On zero-heavy series, where the
    means cross zero, Newton from the start can certify a lower local
    maximum among the kinks than the coarse stages find, so such a point is
    left to them.

    Any other outcome (a point at a kink, derivatives withheld or not
    certifying, or a first stage that raises) runs the coarse stages from
    ``theta0`` as if the first stage had not run.  A Nelder-Mead pass runs
    at the coarse tolerances ``_COARSE``, a second Newton stage finishes it
    and the better point is kept.  Unless that stage raises or it gains more
    than ``_COARSE`` (the simplex had not reached its tail),
    :func:`_point_derivatives` are taken there and a certified point is
    returned with ``converged`` true.  Otherwise the one fallback runs: the
    coarse pass resumes from its final simplex to the full tolerances, the
    better point is kept, the derivatives are taken again only at a point
    that had none yet, and ``converged`` is true when they certify that
    point or the resumed pass reports success.
    ``iterations`` sums every stage, the first one included.  The
    derivatives a Newton stage took at its final point serve the
    certificate there (:func:`_point_memo`).

    ``loglik`` is ``natural_loglik`` at the estimates, and standard errors
    invert the Hessian of :func:`_point_derivatives` there (none for
    ``delta <= 1e-8`` or ``kappa`` within 1e-5 of 0 or 1, where
    :func:`_difference_steps` withholds the steps).  ``window`` holds the
    counts after the conditioning prefix.  Raises ``ValueError`` when none
    of them is positive (:func:`_require_positive_count`) or a ``signed``
    parameter runs to +-1, and ``ArithmeticError`` when the best point is a
    penalty value.
    """
    _require_positive_count(window)
    derivatives = _point_memo(derivatives)
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

    def batch(points: np.ndarray) -> np.ndarray:
        # the driver's batched call, of one row: the fit runs one search
        return np.array([objective(u) for u in points])

    natural_loglik(np.asarray(theta0, dtype=float))  # a start the kernels refuse raises
    x0 = np.array([kind.to_search(t) for kind, t in zip(table, theta0)])
    iterations, converged = 0, False
    try:
        first = _newton(objective, search_derivatives, x0)
    except (ArithmeticError, ValueError):
        pass  # the coarse stages run, as after a rejected point
    else:
        iterations = int(first.nit)
        theta = np.array(natural(first.x))
        if first.fun < _PENALTY / 2 and kink_free(theta):
            local = _point_derivatives(natural_loglik, theta, kinds, derivatives, kink_free)
            converged = local is not None and _certifies(*local, -first.fun)
    if converged:
        best_x, best_f = first.x, first.fun
    else:
        (res,) = _nelder_mead(batch, [_simplex_search(x0, _COARSE, _COARSE)])
        best_x, best_f = res.x, res.fun
        iterations += int(res.nit)
        finished = False
        try:
            pol = _newton(objective, search_derivatives, res.x)
        except (ArithmeticError, ValueError):
            pass  # an unfinished point, which the resumed pass finishes
        else:
            iterations += int(pol.nit)
            if pol.fun < best_f:
                best_x, best_f = pol.x, pol.fun
            # a gain beyond the simplex's own tolerance means the simplex
            # had not reached its tail
            finished = res.fun - best_f <= _COARSE
        local = None
        if finished and best_f < _PENALTY / 2:
            local = _point_derivatives(
                natural_loglik, np.array(natural(best_x)), kinds, derivatives, kink_free
            )
        converged = local is not None and _certifies(*local, -best_f)
        if not converged:
            # the one fallback: the coarse pass resumes from its final simplex
            # to the full tolerances, and the better point is kept
            (full,) = _nelder_mead(batch, [_simplex_search(res.x, simplex=res.final_simplex[0])])
            iterations += int(full.nit)
            if full.fun < best_f:
                # a point without derivatives yet
                best_x, best_f, finished = full.x, full.fun, False
    if not best_f < _PENALTY / 2:
        raise ArithmeticError("no admissible point found: the optimum is a penalty value")
    theta_hat = np.array(natural(best_x))
    ll = -best_f
    if not converged:
        if not finished:
            local = _point_derivatives(natural_loglik, theta_hat, kinds, derivatives, kink_free)
        converged = (local is not None and _certifies(*local, ll)) or bool(full.success)
    std_errors = None
    if local is not None:
        try:
            std_errors = _se_from_loglik_hessian(local[1])
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


def _fit_spec(series: CountSeries, orders, scenario: EstimationScenario, bound=None) -> FitResult:
    """The :func:`_fit` of a :class:`ModelSpec` likelihood, laid out as
    :func:`_unpack` reads it.

    The dynamics block is searched as is and starts at :func:`_moment_start`;
    under scenario 2 ``delta`` follows, searched on the log scale from 0.25;
    given a ``bound`` ``kappa`` comes last, searched on the logit scale from
    0.1.  The likelihood is :func:`loglik` and the derivatives are
    :func:`analytic_score_hessian`, both with the ``bound``, trial points
    past stationarity are penalized, and a point is kink-free when every
    mean after the conditioning prefix is positive, by one
    :func:`_mean_kernel` built here.  The method is ``mle-s1``, ``mle-s2`` or, given a bound,
    ``mle-stbingarch``.
    """
    p, q, r = _orders(orders, series)
    means = _mean_kernel(series, p, q, r).means
    kinds = ("free",) * (1 + p + q + r)
    theta0 = _moment_start(series, p, q, r)
    names = _param_names(p, q, r, scenario.estimates_delta)
    method = "mle-s2" if scenario.estimates_delta else "mle-s1"
    if scenario.estimates_delta:
        kinds += ("positive",)
        theta0 = np.append(theta0, 0.25)
    if bound is not None:
        kinds += ("unit",)
        theta0 = np.append(theta0, 0.1)
        names += ("kappa",)
        method = "mle-stbingarch"
    return _fit(
        lambda theta: loglik(theta, series, (p, q, r), scenario, bound),
        theta0,
        kinds,
        names,
        method,
        series.counts[max(p, q):],
        spec=lambda theta: _spec_from_theta(theta, p, q, r, scenario, bound),
        derivatives=lambda theta: analytic_score_hessian(theta, series, (p, q, r), scenario, bound),
        orders=(p, q),
        kink_free=lambda theta: bool(np.all(means(theta[: 1 + p + q + r])[max(p, q):] > 0.0)),
    )


def fit_mle(
    series: CountSeries,
    orders=(1, 0),
    scenario: EstimationScenario | float | None = 0.25,
) -> FitResult:
    """Conditional MLE of the dynamics, and under scenario 2 the dispersion.

    The search runs the stages of :func:`_fit` on :func:`loglik` and
    :func:`analytic_score_hessian`, from the method-of-moments start
    (:func:`_moment_start`) and, under scenario 2, ``delta = 0.25``.
    ``scenario`` may be an :class:`EstimationScenario`, a float (shorthand
    for a fixed scenario-1 dispersion) or ``None`` (scenario 2).  Trial
    points violating the stationarity condition are penalized; under
    scenario 2 the dispersion is optimized on the log scale so the search
    is unconstrained.  ``converged`` is true when the log-likelihood
    Hessian certifies the returned point as a maximum or the resumed
    simplex reports success.  That Hessian is the analytic one where every
    conditional mean of the window is positive, and a central-difference
    one at a point where a mean is not or where the analytic derivatives
    raise.  Standard errors are the square roots of the diagonal of its
    negated inverse; a singular (non positive-definite) Hessian leaves
    ``std_errors`` at ``None`` (so ``hessian_invertible`` is false) instead
    of failing.
    """
    return _fit_spec(series, orders, _as_scenario(scenario))


def _censored_objective(series: CountSeries, p, q, r, power: int):
    """The CLADE (``power = 1``) or CLS (``power = 2``) objective ``sum |X_t
    - max(0, M_t)|^power`` after the conditioning prefix, charged the
    stationarity penalty past stationarity.

    Everything that does not depend on the parameters is built here, once
    per fit: the float window of counts and, through :func:`_mean_kernel`,
    the lag columns and the band storage of the mean recursion.  A call
    then runs only the recursion's coefficients and solve and the deviation
    sum, which the multi-start simplex asks for thousands of times.

    Given a dynamics vector the objective returns its value; given a ``(K,
    k)`` block of rows it returns their K values from one mean solve, each
    equal to the row's own value.  Each row sums along its own axis.  A
    penalized row is solved with zero coefficients: its means could
    overflow, and a mean that is not finite spills into the next row's
    block, since ``0 * inf`` is nan.  A row whose value is not finite,
    spilled into or not, is evaluated again on its own.
    """
    start = max(p, q)
    x = series.counts[start:].astype(float)
    means = _mean_kernel(series, p, q, r).means

    def objective(theta: np.ndarray):
        rows = theta.reshape(-1, theta.shape[-1])
        # per row in Python, where max(0.0, nan) is 0.0
        penalties = [_stationarity_penalty(row, p, q) for row in rows.tolist()]
        if any(penalties):
            rows = np.where(np.array(penalties)[:, None] > 0.0, 0.0, rows)
        dev = np.maximum(0.0, means(rows)[:, start:])
        np.subtract(x, dev, out=dev)
        np.abs(dev, out=dev)
        if power == 2:
            dev *= dev
        values = dev.sum(axis=1)
        for i, penalty in enumerate(penalties):
            if penalty:
                values[i] = penalty
            elif len(penalties) > 1 and not math.isfinite(values[i]):
                values[i] = objective(rows[i])
        return values if theta.ndim == 2 else float(values[0])

    return objective


def _censored_residuals(series: CountSeries, p, q, r):
    """The CLS residuals ``X_t - max(0, M_t)`` after the conditioning prefix
    and their Jacobian ``-1[M_t > 0] dM_t``, both from one
    :func:`_mean_kernel` built here, once per fit."""
    start = max(p, q)
    x = series.counts[start:]
    kernel = _mean_kernel(series, p, q, r)

    def residuals(theta_dyn: np.ndarray) -> np.ndarray:
        return x - np.maximum(0.0, kernel.means(theta_dyn)[start:])

    def jacobian(theta_dyn: np.ndarray) -> np.ndarray:
        m, dm = kernel.gradient(theta_dyn)
        return np.where(m[start:, None] > 0.0, -dm[start:], 0.0)

    return residuals, jacobian


def _starts(series: CountSeries, p, q, r) -> list[np.ndarray]:
    """:func:`_moment_start` and eight jittered copies of it: CLADE's nine
    starts, and CLS's where the moment start's run is not accepted."""
    start = _moment_start(series, p, q, r)
    scale = 0.1 * (1.0 + np.abs(start))
    jitter_rng = np.random.default_rng(12345)
    return [start] + [
        start + scale * jitter_rng.standard_normal(start.shape)
        for _ in range(8)
    ]


def _fit_censored_deviation(series: CountSeries, orders, power: int, method: str) -> FitResult:
    """The CLADE (``power = 1``) or CLS (``power = 2``) fit from the
    :func:`_starts`.

    CLADE runs Nelder-Mead from each of the nine starts, the searches in
    lockstep (:func:`_nelder_mead`): each round evaluates every unfinished
    search's next trial point in one batched call of
    :func:`_censored_objective`, and each search's result is the one it
    reaches alone.  The best result by ``(objective, |theta|)`` is kept.

    CLS runs Gauss-Newton (``least_squares``' ``trf``) on
    :func:`_censored_residuals` from the moment start, and returns that
    run's point when it reports success, is inside stationarity and stops
    at a first-order point: ``|J'r|`` at most ``_GN_FIRST_ORDER (1 +
    objective)`` in every coordinate.  Otherwise it runs the other eight
    starts too, skipping a start past stationarity and dropping a result
    past it, and keeps the best by ``(objective, |theta|)``; when no result
    is left it runs CLADE's lockstep multi-start on the squared deviations.
    ``converged`` is the chosen run's success flag and ``iterations`` sums
    every run's iterations (Jacobian evaluations for Gauss-Newton, one
    run's on the accepted path).  The intercept-only model has a closed
    form.
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
        for i, x0 in enumerate(starts):
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
                if i == 0 and res.success and res.optimality <= _GN_FIRST_ORDER * (1.0 + value):
                    break  # the moment start's run reached a first-order point
    if not runs:
        searches = [_simplex_search(x0, fatol=1e-9) for x0 in starts]
        for res in _nelder_mead(objective, searches):
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
    are mandatory); the nine searches share one batched mean solve per
    round, and each ends where it would alone.  No dispersion estimate, no
    standard errors and no ``spec`` are produced; the attained objective
    value is reported instead.
    Raises ``ValueError`` when no count after the conditioning prefix is
    positive.
    """
    return _fit_censored_deviation(series, orders, power=1, method="clade")


def fit_cls(series: CountSeries, orders=(1, 0)) -> FitResult:
    """Censored conditional least squares, ``sum (X_t - max(0, M_t))^2``.

    The objective is continuous in the parameters, but ``max(0, M_t)``
    makes its slope jump where a mean crosses zero and the objective is not
    convex.  Gauss-Newton runs from the moment start, and its point is kept
    when it stops at a first-order point inside stationarity; otherwise the
    fit falls back to the same nine starts as :func:`fit_clade` (see
    :func:`_fit_censored_deviation`), and it has the same refusal.
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


def _repeated(methods: Sequence[str]) -> list[str]:
    """The names that occur more than once in ``methods``, sorted."""
    return sorted({name for name in methods if methods.count(name) > 1})


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
    Per-replication estimation failures are tallied, not raised.  At most
    ``min(jobs, replications)`` worker processes run, taking the
    replications in chunks of about a quarter of a worker's share.  An
    unknown or repeated name in ``methods`` raises ``ValueError``.  The
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
    repeated = _repeated(methods)
    if repeated:
        raise ValueError(f"methods named more than once: {repeated}")
    orders = (dgp.p, dgp.q)
    streams = np.random.SeedSequence(seed).spawn(replications)
    tasks = [
        (dgp, n, methods, scenario, streams[i], orders)
        for i in range(replications)
    ]
    if jobs > 1 and replications > 1:
        import concurrent.futures as futures

        workers = min(jobs, replications)
        # about four chunks per worker, so that no worker is dealt most of
        # the replications; a fork-started pool launches all its workers at
        # the first submit
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, replications // (4 * workers))
            results = list(pool.map(_mc_one_replication, tasks, chunksize=chunksize))
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
