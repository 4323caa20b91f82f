"""Independent numpy evaluation of the quantities the CLI reports.

The package computes Skellam probabilities through Bessel functions and the
noncentral chi-square distribution.  This module uses the definition
``X* = A - B`` with independent Poisson ``A`` and ``B`` instead and sums the
convolution over the variable with the small rate (``delta / 2``), so a
defect in the package's special-function layer cannot hide in the check.
Each function handles the orders the benchmark fits: ``p = 1`` and
``q`` in ``{0, 1}``.
"""

from __future__ import annotations

import math

import numpy as np

_TABLE = np.zeros(1)


def _log_factorial(k: np.ndarray) -> np.ndarray:
    global _TABLE
    top = int(np.max(k, initial=0))
    if _TABLE.shape[0] <= top:
        grid = np.arange(1, max(2 * top, 512) + 1, dtype=float)
        _TABLE = np.concatenate([[0.0], np.cumsum(np.log(grid))])
    return _TABLE[k]


def _poisson_log_pmf(k: np.ndarray, rate) -> np.ndarray:
    k = np.asarray(k, dtype=np.int64)
    return k * np.log(rate) - rate - _log_factorial(np.maximum(k, 0))


def _span(rate: float) -> int:
    """Support length beyond which a Poisson(rate) tail is below 1e-18."""
    return int(math.ceil(rate + 14.0 * math.sqrt(rate + 1.0))) + 40


def _rates(m: np.ndarray, delta: float):
    small = 0.5 * delta
    return small, np.abs(m) + small


def skellam_log_pmf(x: np.ndarray, m: np.ndarray, delta: float) -> np.ndarray:
    """Elementwise ``ln P(X* = x)`` for ``X* ~ Sk*(m, delta)``.

    For ``m >= 0`` the big-rate variable is ``A``; for ``m < 0`` it is ``B``
    and ``P(X* = x) = P(A' - B' = -x)`` with the roles swapped.
    """
    x = np.asarray(x, dtype=np.int64)
    m = np.asarray(m, dtype=float)
    small, big = _rates(m, delta)
    y = np.where(m >= 0.0, x, -x)[:, None]
    k = np.arange(_span(small))[None, :]
    idx = y + k
    terms = np.where(
        idx >= 0,
        _poisson_log_pmf(k, small) + _poisson_log_pmf(idx, big[:, None]),
        -np.inf,
    )
    peak = terms.max(axis=1)
    # a row with no admissible term lies beyond the truncated support
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))


def zero_mass(m: np.ndarray, delta: float) -> np.ndarray:
    """Elementwise ``P(X* <= 0)``, the censored zero probability."""
    m = np.asarray(m, dtype=float)
    small, big = _rates(m, delta)
    k = np.arange(_span(small))
    w = np.exp(_poisson_log_pmf(k, small))[None, :]
    top = int(np.max(k))
    grid = np.arange(top + 1)
    cdf = np.cumsum(np.exp(_poisson_log_pmf(grid[None, :], big[:, None])), axis=1)
    # m >= 0: P(A <= B) = sum_k P(B = k) P(A <= k)
    pos = (w * cdf).sum(axis=1)
    # m < 0: 1 - P(A >= B + 1) = 1 - sum_k P(A = k) P(B <= k - 1)
    shifted = np.concatenate([np.zeros((cdf.shape[0], 1)), cdf[:, :-1]], axis=1)
    neg = 1.0 - (w * shifted).sum(axis=1)
    return np.where(m >= 0.0, pos, neg)


def upper_mass(level: int, m: np.ndarray, delta: float) -> np.ndarray:
    """Elementwise ``P(X* >= level)`` for an integer ``level >= 1``."""
    m = np.asarray(m, dtype=float)
    top = level + _span(float(np.max(np.abs(m), initial=0.0)) + delta)
    xs = np.arange(level, top + 1)
    logs = skellam_log_pmf(
        np.repeat(xs[None, :], m.shape[0], axis=0).ravel(),
        np.repeat(m, xs.shape[0]),
        delta,
    )
    return np.exp(logs).reshape(m.shape[0], xs.shape[0]).sum(axis=1)


def mean_path(x: np.ndarray, alpha0: float, alpha1: float, beta1: float) -> np.ndarray:
    """``M_0 = alpha0``, ``M_t = alpha0 + alpha1 X_{t-1} + beta1 M_{t-1}``."""
    x = np.asarray(x, dtype=float)
    m = np.empty(x.shape[0])
    m[0] = alpha0
    if beta1 == 0.0:
        m[1:] = alpha0 + alpha1 * x[:-1]
        return m
    prev = alpha0
    xs = x.tolist()
    for t in range(1, x.shape[0]):
        prev = alpha0 + alpha1 * xs[t - 1] + beta1 * prev
        m[t] = prev
    return m


def stingarch_loglik(x, alpha0, alpha1, beta1, delta) -> float:
    """Conditional log-likelihood given ``X_0``, as in ``tobitcount fit``."""
    x = np.asarray(x, dtype=np.int64)
    m = mean_path(x, alpha0, alpha1, beta1)[1:]
    obs = x[1:]
    pos = obs > 0
    total = float(skellam_log_pmf(obs[pos], m[pos], delta).sum())
    return total + float(np.log(zero_mass(m[~pos], delta)).sum())


def stbingarch_loglik(x, alpha0, alpha1, beta1, kappa, bound, delta) -> float:
    """Log-likelihood of the bounded one-inflated model given ``X_0``."""
    x = np.asarray(x, dtype=np.int64)
    m = mean_path(x, alpha0, alpha1, beta1)[1:]
    obs = x[1:]
    base = np.empty(obs.shape[0])
    zero, top = obs == 0, obs == bound
    mid = ~zero & ~top
    base[zero] = zero_mass(m[zero], delta)
    base[top] = upper_mass(bound, m[top], delta)
    base[mid] = np.exp(skellam_log_pmf(obs[mid], m[mid], delta))
    lik = (1.0 - kappa) * base + kappa * (obs == 1)
    return float(np.log(lik).sum())


def tinars_loglik(x, innovation_mean: float, alpha1: float) -> float:
    """Markov-chain log-likelihood of the Tobit INARS(1) model given ``X_0``."""
    x = np.asarray(x, dtype=np.int64)
    pairs, counts = np.unique(np.stack([x[:-1], x[1:]], axis=1), axis=0, return_counts=True)
    sign = 1 if alpha1 >= 0.0 else -1
    prob = abs(alpha1)
    total = 0.0
    for (prev, nxt), count in zip(pairs.tolist(), counts.tolist()):
        j = np.arange(prev + 1)
        log_binom = (
            _log_factorial(np.array(prev))
            - _log_factorial(j)
            - _log_factorial(prev - j)
            + j * math.log(prob)
            + (prev - j) * math.log1p(-prob)
        )
        weight = np.exp(log_binom)
        if nxt > 0:
            eps = nxt - sign * j
            ok = eps >= 0
            lik = float(np.sum(weight[ok] * np.exp(_poisson_log_pmf(eps[ok], innovation_mean))))
        else:
            # the innovation must not lift the thinned value above zero
            cut = -sign * j
            grid = np.arange(max(int(cut.max()), 0) + 1)
            cdf = np.cumsum(np.exp(_poisson_log_pmf(grid, innovation_mean)))
            ok = cut >= 0
            lik = float(np.sum(weight[ok] * cdf[cut[ok]]))
        total += count * math.log(lik)
    return total


def censored_moments(m: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of ``max(0, X*)`` for each ``m``, by direct summation."""
    m = np.asarray(m, dtype=float)
    uniq, inverse = np.unique(m, return_inverse=True)
    top = _span(float(np.max(np.abs(uniq), initial=0.0)) + delta)
    xs = np.arange(1, top + 1)
    probs = np.exp(
        skellam_log_pmf(
            np.tile(xs, uniq.shape[0]), np.repeat(uniq, xs.shape[0]), delta
        )
    ).reshape(uniq.shape[0], xs.shape[0])
    mean = probs @ xs
    second = probs @ (xs * xs)
    return mean[inverse], (second - mean * mean)[inverse]


def residual_summary(x, alpha0, alpha1, beta1, delta, max_lag: int) -> dict:
    """Pearson-residual mean, variance and ACF as ``tobitcount diagnose`` reports them."""
    x = np.asarray(x, dtype=np.int64)
    m = mean_path(x, alpha0, alpha1, beta1)[1:]
    mean, var = censored_moments(m, delta)
    res = (x[1:] - mean) / np.sqrt(var)
    centered = res - res.mean()
    denom = float(centered @ centered)
    acf = [float(centered[h:] @ centered[:-h]) / denom for h in range(1, max_lag + 1)]
    return {"mean": float(res.mean()), "variance": float(res.var(ddof=1)), "acf": acf}
