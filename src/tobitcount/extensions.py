"""Model variants beyond the unbounded STINGARCH core.

* Poisson Tobit INARS(1): signed binomial thinning plus Poisson innovations,
  censored at zero, with transition-probability likelihood and its
  analytic gradient and Hessian.
* Skellam Tobit bounded INGARCH (STBINGARCH): the latent variable is clipped
  into {0..N} and the conditional law may carry extra one-inflation mass.
  That law is a :class:`ModelSpec` with ``bound`` and ``kappa`` like any
  other, so :func:`~tobitcount.stingarch.conditional_pmf`, ``simulate``,
  :func:`~tobitcount.estimation.loglik` and the fit driver serve it; this
  module keeps its moments and its fit's checks.

Covariates need no code here: :class:`CountSeries` carries them into every estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln, pdtr, xlog1py, xlogy

from . import skellam
from .diagnostics import sample_acf
from .estimation import EstimationScenario, FitResult, _fit, _fit_spec
from .stingarch import CountSeries, ModelSpec, _positive_bound

__all__ = [
    "TinarsSpec",
    "signed_binomial_thinning",
    "simulate_tinars1",
    "tinars1_transition",
    "tinars_conditional_moments",
    "fit_tinars1_mle",
    "stbingarch_conditional_moments",
    "fit_stbingarch_mle",
]


@dataclass(frozen=True)
class TinarsSpec:
    """First-order signed-thinning autoregression with Poisson innovations."""

    alpha1: float
    innovation_mean: float

    def __post_init__(self) -> None:
        if not (-1.0 < self.alpha1 < 1.0):
            raise ValueError(f"alpha1 must lie in (-1, 1), got {self.alpha1!r}")
        if not (self.innovation_mean > 0.0):
            raise ValueError("innovation mean must be positive")


def _sgn(value: float) -> int:
    # the convention used throughout: sgn(0) = 1
    return 1 if value >= 0 else -1


def signed_binomial_thinning(
    alpha: float, x: int, rng: np.random.Generator
) -> int:
    """One draw of the signed binomial thinning ``alpha (.) x``.

    The conditional law is ``sgn(alpha) sgn(x) Bin(|x|, |alpha|)``, which
    reduces to ordinary binomial thinning for positive arguments.
    """
    if not (-1.0 < alpha < 1.0):
        raise ValueError(f"thinning coefficient must lie in (-1, 1), got {alpha!r}")
    draw = int(rng.binomial(abs(int(x)), abs(alpha)))
    return _sgn(alpha) * _sgn(x) * draw


def simulate_tinars1(
    spec: TinarsSpec,
    n: int,
    burn_in: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> CountSeries:
    """Simulate ``X_t = max(0, alpha1 (.) X_{t-1} + eps_t)`` with Poi innovations."""
    if rng is None:
        rng = np.random.default_rng()
    x = int(round(spec.innovation_mean))
    out = np.empty(n, dtype=np.int64)
    for t in range(burn_in + n):
        latent = signed_binomial_thinning(spec.alpha1, x, rng) + int(
            rng.poisson(spec.innovation_mean)
        )
        x = latent if latent > 0 else 0
        if t >= burn_in:
            out[t - burn_in] = x
    return CountSeries(out)


def _transition_arr(prev: np.ndarray, nxt: np.ndarray, spec: TinarsSpec, order: int = 0):
    """``P(X_t = nxt[i] | X_{t-1} = prev[i])`` for every pair ``i``, and with
    ``order = 2`` also its first and second derivatives.

    Each probability sums over the thinning outcome ``j``: the binomial
    weight ``C(prev, j) |a|^j (1 - |a|)^(prev - j)`` times the innovation
    term at ``k = nxt - sgn(a) j``, which is the Poisson pmf at ``k`` for a
    positive target and the Poisson cdf ``pdtr(k, lambda)`` for the zero
    target (every latent value at or below zero is censored to it).  The
    weights sit on a (distinct prev, j) grid and the innovation terms on a
    (j, distinct nxt) grid, so one matrix product gives every pair.  Cells
    with ``j > prev`` or ``k < 0`` are masked after their indices are
    clipped, so no ``inf`` or ``nan`` reaches the product.

    ``order`` is 0 or 2.  With 2 the result is ``(P, dP, d2P)``: ``dP[i]``
    holds the derivatives in ``(innovation_mean, alpha1)`` and ``d2P[i]``
    their 2 x 2 matrix.  They come from differences on the same layout:
    ``dBin(j; x, |a|)/d|a| = x [Bin(j - 1; x - 1) - Bin(j; x - 1)]``,
    ``dpois(k)/dlambda = pois(k - 1) - pois(k)`` and ``dpdtr(k)/dlambda =
    -pois(k)``, each taken once more for the second derivatives, and
    ``d/dalpha1 = sgn(a) d/d|a|``.  At ``alpha1 = 0`` they are those of the
    ``sgn(0) = 1`` side.
    """
    a, sgn, rate = abs(spec.alpha1), _sgn(spec.alpha1), spec.innovation_mean
    prevs, row = np.unique(prev, return_inverse=True)
    nxts, col = np.unique(nxt, return_inverse=True)
    j = np.arange(prevs[-1] + 1)
    log_fact = gammaln(np.arange(1, prevs[-1] + nxts[-1] + 2))
    # order 2 stacks the weights of Bin(.; prev - 1) and Bin(.; prev - 2) below
    n = prevs if order == 0 else np.concatenate([prevs, prevs - 1, prevs - 2])
    rest = n[:, None] - j
    kept = np.maximum(rest, 0)
    log_w = (
        log_fact[np.maximum(n, 0)][:, None] - log_fact[j] - log_fact[kept]
        + xlogy(j, a) + xlog1py(kept, -a)
    )
    weights = np.where(rest >= 0, np.exp(log_w), 0.0)
    k = nxts - sgn * j[:, None]
    k_c = np.maximum(k, 0)
    terms = np.exp(xlogy(k_c, rate) - rate - log_fact[k_c])
    zero = nxts == 0
    terms[:, zero] = pdtr(k_c[:, zero], rate)
    terms = np.where(k >= 0, terms, 0.0)
    if order == 0:
        return (weights @ terms)[row, col]
    # pois(k - 2), pois(k - 1) and pois(k) from one table led by two zeros
    ks = np.arange(k.max() + 1)
    pois = np.concatenate([[0.0, 0.0], np.exp(xlogy(ks, rate) - rate - log_fact[ks])])
    at = np.maximum(k + 2, 0)
    p2, p1, p0 = pois[np.maximum(at - 2, 0)], pois[np.maximum(at - 1, 0)], pois[at]
    terms_l = np.where(zero, -p0, p1 - p0)
    terms_ll = np.where(zero, p0 - p1, p2 - 2.0 * p1 + p0)
    # the differences in j, on the zero-led lower grids
    weights, once, twice = np.split(np.hstack([np.zeros((n.size, 2)), weights]), 3)
    weights_a = prevs[:, None] * (once[:, 1:-1] - once[:, 2:])
    weights_aa = (prevs * (prevs - 1))[:, None] * (
        twice[:, :-2] - 2.0 * twice[:, 1:-1] + twice[:, 2:]
    )
    grid = np.vstack([weights[:, 2:], weights_a, weights_aa]) @ np.hstack([terms, terms_l, terms_ll])
    # grid[i, d, e]: the d-th |a| and e-th lambda derivative of pair i
    grid = grid.reshape(3, prevs.size, 3, nxts.size)[:, row, :, col]
    signs = np.array([[1.0, sgn], [sgn, 1.0]])
    return (
        grid[:, 0, 0],
        grid[:, [0, 1], [1, 0]] * signs[0],
        grid[:, [[0, 1], [1, 2]], [[2, 1], [1, 0]]] * signs,
    )


def tinars1_transition(x_next: int, x_prev: int, spec: TinarsSpec) -> float:
    """Markov transition probability ``P(X_t = x_next | X_{t-1} = x_prev)``.

    One pair through :func:`_transition_arr`.  For a positive target the
    thinning outcome is convolved with the Poisson innovation; the zero
    state collects the innovation mass at or below the negated thinning
    outcome (for ``alpha1 >= 0`` only ``j = 0`` reaches it).
    """
    x_next, x_prev = int(x_next), int(x_prev)
    if x_next < 0 or x_prev < 0:
        raise ValueError("counts are nonnegative")
    return float(_transition_arr(np.array([x_prev]), np.array([x_next]), spec)[0])


def tinars_conditional_moments(
    spec: TinarsSpec, x_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and variance of ``X_t`` given ``X_{t-1} = x_prev``.

    For ``alpha1 >= 0`` the latent value ``alpha1 (.) x + eps`` is never
    negative, so censoring never acts: the mean is ``alpha1 x + lambda`` and
    the variance ``alpha1 (1 - alpha1) x + lambda``.  For ``alpha1 < 0`` the
    latent value is at most ``eps``, so the kernel's rows for the distinct
    ``x_prev`` are summed over ``0..cap`` with
    ``cap = ceil(lambda + 12 sqrt(lambda + 1)) + 10``, whatever ``x_prev``;
    a row that leaves more than 1e-13 of its mass above ``cap`` raises
    ``ArithmeticError``.  An empty ``x_prev`` gives empty arrays for either
    sign.
    """
    x_prev = np.asarray(x_prev, dtype=np.int64)
    alpha, rate = spec.alpha1, spec.innovation_mean
    if alpha >= 0.0 or x_prev.size == 0:
        return alpha * x_prev + rate, alpha * (1.0 - alpha) * x_prev + rate
    prevs, row = np.unique(x_prev, return_inverse=True)
    ys = np.arange(int(math.ceil(rate + 12.0 * math.sqrt(rate + 1.0))) + 11)
    probs = _transition_arr(
        np.repeat(prevs, ys.size), np.tile(ys, prevs.size), spec
    ).reshape(prevs.size, ys.size)
    if np.any(1.0 - probs.sum(axis=1) > 1e-13):
        raise ArithmeticError("transition row truncation left too much mass")
    means = probs @ ys
    variances = np.sum(probs * (ys - means[:, None]) ** 2, axis=1)
    return means[row], variances[row]


def _transition_pair_counts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.unique(np.stack([x[:-1], x[1:]], axis=1), axis=0, return_counts=True)


def _tinars_loglik_pairs(spec: TinarsSpec, pairs: np.ndarray, counts: np.ndarray) -> float:
    """Conditional log-likelihood of the Markov chain given ``X_1``.

    ``pairs`` holds the distinct ``(previous, next)`` transitions of the
    sample and ``counts`` how often each occurs, so the likelihood is
    ``counts @ log(p)`` over one kernel call; it is ``-inf`` when some
    observed transition has probability zero.
    """
    probs = _transition_arr(pairs[:, 0], pairs[:, 1], spec)
    if not np.all(probs > 0.0):
        return -math.inf
    return float(counts @ np.log(probs))


def _tinars_score_hessian(spec: TinarsSpec, pairs: np.ndarray, counts: np.ndarray):
    """Gradient ``sum c P_i / P`` and Hessian ``sum c (P_ij / P - P_i P_j / P^2)``
    of :func:`_tinars_loglik_pairs` in ``(innovation_mean, alpha1)``, from
    one :func:`_transition_arr` call of order 2.  Raises ``ArithmeticError``
    where an observed transition has probability zero."""
    probs, first, second = _transition_arr(pairs[:, 0], pairs[:, 1], spec, order=2)
    if not np.all(probs > 0.0):
        raise ArithmeticError("an observed transition has probability zero")
    weights = counts / probs
    ratios = first / probs[:, None]
    hess = (weights @ second.reshape(-1, 4)).reshape(2, 2) - ratios.T @ (counts[:, None] * ratios)
    return weights @ first, hess


def fit_tinars1_mle(series: CountSeries) -> FitResult:
    """Conditional MLE of the Tobit INARS(1) model.

    Runs the stages of :func:`~tobitcount.estimation._fit` on ``log
    innovation_mean`` and ``atanh alpha1``, so both constraints are
    automatic, from the lag-1 autocorrelation and the mean it implies.  The
    Newton stages run on the analytic gradient and Hessian of
    :func:`_tinars_score_hessian`.  ``converged`` is true when the
    log-likelihood Hessian certifies the returned point as a maximum or the
    resumed simplex reports success; that Hessian is the analytic one where
    ``alpha1 != 0`` and a central-difference one at the kink ``alpha1 = 0``
    of the sign convention.  Standard errors come from the same Hessian.
    ``spec`` holds the fitted :class:`TinarsSpec`.  Raises ``ValueError`` when the search drives
    ``alpha1`` to ``-1`` or ``1`` in floating point: the likelihood then has
    no interior maximum.
    """
    x = series.counts
    if len(series) < 3:
        raise ValueError("series too short")

    pairs, counts = _transition_pair_counts(x)

    def spec(theta: np.ndarray) -> TinarsSpec:
        return TinarsSpec(alpha1=theta[1], innovation_mean=theta[0])

    rho1 = float(np.clip(sample_acf(x.astype(float), 1)[0], -0.9, 0.9)) if x.std() else 0.0
    mean0 = max(float(x.mean()) * (1.0 - rho1), 0.1)
    return _fit(
        lambda theta: _tinars_loglik_pairs(spec(theta), pairs, counts),
        np.array([mean0, rho1]),
        ("positive", "signed"),
        ("innovation_mean", "alpha1"),
        "mle-tinars1",
        x[1:],
        spec=spec,
        derivatives=lambda theta: _tinars_score_hessian(spec(theta), pairs, counts),
        kink_free=lambda theta: bool(theta[1] != 0.0),
    )


# ---------------------------------------------------------------------------
# bounded one-inflated model
# ---------------------------------------------------------------------------


def stbingarch_conditional_moments(
    m_path: np.ndarray, spec: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean/variance of the bounded law by finite summation of
    :func:`skellam._log_obs_arr` over the support ``0..N``."""
    support = np.arange(spec.bound + 1)
    m_path = np.asarray(m_path, dtype=float)[:, None]
    probs = np.exp(skellam._log_obs_arr(support, m_path, spec.delta, spec.bound, spec.kappa))
    means = probs @ support
    variances = probs @ support**2 - means**2
    return means, np.maximum(variances, 0.0)


def fit_stbingarch_mle(
    series: CountSeries,
    orders=(1, 1),
    bound: int = 5,
    delta: float = 0.01,
) -> FitResult:
    """Scenario-1 MLE of the bounded one-inflated model.

    Runs the stages of :func:`~tobitcount.estimation._fit` on the dynamics
    and the one-inflation weight, the latter on the logit scale from 0.1,
    so ``kappa`` approaches 0 continuously and ``loglik`` is the likelihood
    at the reported ``kappa``.  ``converged`` is true when the
    log-likelihood Hessian certifies the returned point as a maximum or the
    resumed simplex reports success; that Hessian is the analytic one where
    every conditional mean is positive and a central-difference one
    elsewhere.  Standard errors come from the same Hessian and are withheld
    for ``kappa`` within 1e-5 of 0 or 1.  ``delta`` is the
    fixed dispersion and must be positive and finite; ``bound`` must be an
    integer >= 1 and no count may exceed it.
    """
    scenario = EstimationScenario.fixed(delta)
    bound = _positive_bound(bound)
    if np.any(series.counts > bound):
        raise ValueError("series exceeds the declared bound")
    return _fit_spec(series, orders, scenario, bound)
