"""The Skellam distribution and its left-censored partial moments.

Two parametrizations are supported: the classic Poisson-difference pair
``(lambda1, lambda2)`` and the mean/dispersion pair ``(mu, delta)`` with the
additive variance decomposition ``sigma^2 = |mu| + delta``.  Besides the
PMF/CDF/sampler, the module provides the Stein-identity test harness and the
closed-form first and second partial moments of ``max(0, X*)``, which drive
every censored-moment computation elsewhere in the package.

Each quantity has one array kernel over ``(mu, delta)``: the log-pmf
(:func:`_log_pmf_arr`), the upper tail (:func:`_survival_arr`), the
censored zero mass (:func:`_cdf0_arr`) and the censored moments
(:func:`_censored_moments_arr`).  The scalar public functions are thin
wrappers over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# ``log_bessel_i`` stays importable from this module, as the profiling
# harness wraps it here.
from .specialfn import _log_bessel_i_arr, _poisson_mixture, log_bessel_i  # noqa: F401

__all__ = [
    "SkellamParams",
    "SkellamStar",
    "CensoredMoments",
    "pmf",
    "log_pmf",
    "cdf",
    "sample",
    "stein_lhs_rhs",
    "censored_moments",
    "chernoff_tail_radius",
]


@dataclass(frozen=True)
class SkellamParams:
    """Poisson-difference parametrization ``X* = Poi(lambda1) - Poi(lambda2)``."""

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        if not (self.lambda1 > 0.0 and math.isfinite(self.lambda1)):
            raise ValueError(f"lambda1 must be positive, got {self.lambda1!r}")
        if not (self.lambda2 > 0.0 and math.isfinite(self.lambda2)):
            raise ValueError(f"lambda2 must be positive, got {self.lambda2!r}")

    @property
    def mean(self) -> float:
        return self.lambda1 - self.lambda2

    @property
    def variance(self) -> float:
        return self.lambda1 + self.lambda2


@dataclass(frozen=True)
class SkellamStar:
    """Mean/dispersion parametrization with ``sigma^2 = |mu| + delta``.

    ``delta = 0`` is the Poisson boundary case (a signed Poisson variate);
    it is accepted only by :func:`censored_moments`, which handles the
    boundary explicitly — :meth:`to_params` requires ``delta > 0``.
    """

    mu: float
    delta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be >= 0, got {self.delta!r}")

    def to_params(self) -> SkellamParams:
        if self.delta == 0.0:
            raise ValueError(
                "delta == 0 is the Poisson boundary case and has no "
                "(lambda1, lambda2) representation"
            )
        lam1 = 0.5 * (abs(self.mu) + self.mu + self.delta)
        lam2 = 0.5 * (abs(self.mu) - self.mu + self.delta)
        return SkellamParams(lam1, lam2)


@dataclass(frozen=True)
class CensoredMoments:
    """First two moments of ``max(0, X*)`` plus the point mass at zero."""

    mean: float
    second_moment: float
    variance: float
    prob_zero_or_less: float


def _star(params: SkellamParams) -> tuple[float, float]:
    # (mu, delta) for the array kernels; delta = 2 min(lambda1, lambda2)
    return params.mean, 2.0 * min(params.lambda1, params.lambda2)


def log_pmf(x: int, params: SkellamParams) -> float:
    """Log of ``P(X* = x)``, evaluated fully in the log domain."""
    return float(_log_pmf_arr(int(x), *_star(params)))


def pmf(x: int, params: SkellamParams) -> float:
    """``P(X* = x)`` for integer ``x`` (any sign)."""
    return math.exp(log_pmf(x, params))


def cdf(x: int, params: SkellamParams) -> float:
    """``P(X* <= x)`` via the noncentral chi-square connection.

    For ``x <= 0`` this is the upper tail of ``-X*`` at ``-x``, accurate in
    the far lower tail; for ``x >= 1`` it is the complement of the upper tail
    of ``X*`` at ``x + 1``.
    """
    x = int(x)
    mu, delta = _star(params)
    if x <= 0:
        return float(_survival_arr(-x, -mu, delta))
    return max(0.0, 1.0 - float(_survival_arr(x + 1, mu, delta)))


def sample(params: SkellamParams, rng: np.random.Generator, size=None):
    """Draw ``Poi(lambda1) - Poi(lambda2)`` with independent components.

    numpy's generator uses exact Poisson sampling (sequential inversion for
    small means, transformed rejection for large ones), so Monte Carlo
    oracles built on this sampler are unbiased.
    """
    draw = rng.poisson(params.lambda1, size=size) - rng.poisson(
        params.lambda2, size=size
    )
    if size is None:
        return int(draw)
    return draw


def chernoff_tail_radius(params: SkellamParams, eps: float = 1e-13) -> int:
    """Smallest radius ``R`` with Chernoff bounds ``P(X* >= R)`` and
    ``P(X* <= -R)`` both below ``eps``.

    The optimal exponent has the closed form
    ``t* = ln((R + sqrt(R^2 + 4 lam1 lam2)) / (2 lam1))`` for the upper tail;
    the lower tail follows by swapping the rates.
    """

    def upper_bound(r: float, lam_a: float, lam_b: float) -> float:
        if r <= lam_a - lam_b:
            return 1.0
        et = (r + math.sqrt(r * r + 4.0 * lam_a * lam_b)) / (2.0 * lam_a)
        t = math.log(et)
        cumulant = lam_a * (et - 1.0) + lam_b * (1.0 / et - 1.0)
        return math.exp(cumulant - t * r)

    radius = int(math.ceil(abs(params.mean) + 4.0 * math.sqrt(params.variance))) + 4
    for _ in range(10_000):
        hi = upper_bound(radius, params.lambda1, params.lambda2)
        lo = upper_bound(radius, params.lambda2, params.lambda1)
        if hi < eps and lo < eps:
            return radius
        radius += max(1, radius // 8)
    raise RuntimeError("tail radius search did not terminate")


def stein_lhs_rhs(
    f: Callable[[int], float],
    params: SkellamParams,
    support_radius: int,
) -> tuple[float, float]:
    """Both sides of the Stein identity
    ``E[X* f(X*)] = lambda1 E[f(X* + 1)] - lambda2 E[f(X* - 1)]``
    by direct truncated summation over ``[-R, R]``.

    Raises if the truncated support leaves more than 1e-12 probability mass
    outside, since the identity check would then be meaningless.
    """
    radius = int(support_radius)
    xs = np.arange(-radius, radius + 1)
    probs = np.exp(_log_pmf_arr(xs, *_star(params)))
    outside = 1.0 - probs.sum()
    if outside > 1e-12:
        raise ValueError(
            f"support radius {radius} leaves tail mass {outside:.3e} > 1e-12"
        )
    fx = np.array([f(int(x)) for x in xs])
    f_up = np.array([f(int(x) + 1) for x in xs])
    f_down = np.array([f(int(x) - 1) for x in xs])
    lhs = float(np.sum(xs * fx * probs))
    rhs = float(params.lambda1 * np.sum(f_up * probs) - params.lambda2 * np.sum(f_down * probs))
    return lhs, rhs


def censored_moments(star: SkellamStar) -> CensoredMoments:
    """Partial mean and second moment of ``max(0, X*)`` for ``X* ~ Sk*(mu, delta)``.

    See :func:`_censored_moments_arr` for the closed forms; ``delta == 0``
    is the Poisson boundary.
    """
    mean, second, variance, prob_zero = _censored_moments_arr(star.mu, star.delta)
    return CensoredMoments(
        mean=float(mean),
        second_moment=float(second),
        variance=float(variance),
        prob_zero_or_less=float(prob_zero),
    )


# ---------------------------------------------------------------------------
# array kernels over the (mu, delta) parametrization
# ---------------------------------------------------------------------------


def _lambdas(mu: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mu, dtype=float)
    lam1 = 0.5 * (np.abs(mu) + mu + delta)
    lam2 = 0.5 * (np.abs(mu) - mu + delta)
    return lam1, lam2


def _log_pmf_arr(x: np.ndarray, mu: np.ndarray, delta: float) -> np.ndarray:
    """Vectorized ``ln P(X* = x)`` for ``X* ~ Sk*(mu, delta)``, ``delta > 0``."""
    x = np.asarray(x)
    lam1, lam2 = _lambdas(mu, delta)
    z = 2.0 * np.sqrt(lam1 * lam2)
    return (
        -lam1
        - lam2
        + 0.5 * x * (np.log(lam1) - np.log(lam2))
        + _log_bessel_i_arr(np.abs(x), z)
    )


def _survival_arr(x: int, mu: np.ndarray, delta: float) -> np.ndarray:
    """Vectorized ``P(X* >= x)`` for fixed integer ``x >= 0``, ``delta > 0``."""
    lam1, lam2 = _lambdas(mu, delta)
    return _poisson_mixture(int(x), lam1, lam2)


def _cdf0_arr(mu: np.ndarray, delta: float) -> np.ndarray:
    """Vectorized ``P(X* <= 0)`` (the censored zero probability).

    This is ``P(-X* >= 0)`` with ``-X* ~ Sk*(-mu, delta)``.
    """
    return _survival_arr(0, np.negative(mu), delta)


def _censored_moments_arr(mu: np.ndarray, delta: float):
    """Vectorized ``(mean, second moment, variance, P(X* <= 0))`` of ``max(0, X*)``.

    Uses the closed forms

    * ``E[X* 1{X*>0}] = mu P(X* >= 0) + lambda2 (p(0) + p(1))``
    * ``E[(X*)^2 1{X*>0}] = (sigma^2 + mu^2) P(X* >= 1)
      + lambda2 mu p(1) + lambda1 (1 + mu) p(0)``

    with ``P(X* >= 1)`` from the Poisson-mixture kernel, which stays
    accurate in the far-left-mean regime (``mu << 0``); the closed forms
    cancel there and keep about eleven significant digits at ``mu = -60``.
    ``delta == 0`` turns ``Sk*(mu, delta)`` into ``sgn(mu) Poi(|mu|)``:
    censoring leaves a plain Poisson for ``mu > 0`` and a point mass at zero
    otherwise.
    """
    mu = np.asarray(mu, dtype=float)
    if delta == 0.0:
        rate = np.maximum(mu, 0.0)
        return rate, rate + rate * rate, rate, np.exp(-rate)
    lam1, lam2 = _lambdas(mu, delta)
    orders = np.arange(2).reshape((2,) + (1,) * mu.ndim)
    p0, p1 = np.exp(_log_pmf_arr(orders, mu, delta))
    surv1 = _survival_arr(1, mu, delta)
    mean = mu * (surv1 + p0) + lam2 * (p0 + p1)
    second = (lam1 + lam2 + mu * mu) * surv1 + lam2 * mu * p1 + lam1 * (1.0 + mu) * p0
    variance = np.maximum(second - mean * mean, 0.0)
    return mean, second, variance, np.maximum(1.0 - surv1, 0.0)
