"""Model adequacy tooling: Pearson residuals, sample ACF/PACF, AIC/BIC."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``censored_moments`` stays importable from this module, as the profiling
# harness wraps it here.
from .skellam import _censored_moments_arr, censored_moments  # noqa: F401

__all__ = [
    "ResidualReport",
    "pearson_residuals",
    "sample_acf_pacf",
    "sample_acf",
    "information_criteria",
]


@dataclass(frozen=True)
class ResidualReport:
    """Standardized Pearson residuals with their summary statistics."""

    residuals: np.ndarray
    mean: float
    variance: float
    acf: np.ndarray


def sample_acf(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 1..max_lag.

    Lag-h autocovariances are normalized by ``n`` (not ``n - h``), which
    keeps the estimated sequence positive semidefinite and hence yields a
    valid PACF through Durbin-Levinson.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n <= max_lag:
        raise ValueError(f"series length {n} must exceed max_lag {max_lag}")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise ValueError("ACF undefined for a constant series")
    out = np.empty(max_lag)
    for h in range(1, max_lag + 1):
        out[h - 1] = float(centered[h:] @ centered[:-h]) / denom
    return out


def sample_acf_pacf(series, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ACF and Durbin-Levinson PACF of a count series (or array)."""
    from .stingarch import pacf_from_acf

    x = series.counts if hasattr(series, "counts") else np.asarray(series)
    acf = sample_acf(x, max_lag)
    return acf, pacf_from_acf(acf)


def information_criteria(loglik: float, k: int, n_effective: int) -> tuple[float, float]:
    """``AIC = -2 l + 2k`` and ``BIC = -2 l + k ln(n_effective)``."""
    if n_effective <= 0:
        raise ValueError("n_effective must be positive")
    aic = -2.0 * loglik + 2.0 * k
    bic = -2.0 * loglik + k * math.log(n_effective)
    return aic, bic


def _conditional_moments(spec, m_path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean/variance of the observed count given each M_t."""
    if spec.bound is not None:
        from .extensions import stbingarch_conditional_moments

        return stbingarch_conditional_moments(m_path, spec)
    if not np.all(np.isfinite(m_path)):
        raise ValueError("conditional means must be finite")
    means, _, variances, _ = _censored_moments_arr(m_path, spec.delta)
    return means, variances


def pearson_residuals(spec, series, max_lag: int = 5) -> ResidualReport:
    """Standardized Pearson residuals ``(X_t - E[X_t|F_{t-1}]) / sd(X_t|F_{t-1})``.

    Residuals start at ``t = max(p, q) + 1`` to match the conditional
    likelihood.  ``spec`` may be a :class:`~tobitcount.stingarch.ModelSpec`
    (unbounded or bounded variant) or a
    :class:`~tobitcount.extensions.TinarsSpec`; conditional moments come
    from the censored-moment formulas, finite summation over the bounded
    support, or truncated transition summation respectively.
    """
    if hasattr(spec, "innovation_mean"):
        from .extensions import tinars_conditional_moments

        x = series.counts if hasattr(series, "counts") else np.asarray(series)
        means, variances = tinars_conditional_moments(spec, x[:-1])
        obs = x[1:].astype(float)
    else:
        from .stingarch import conditional_mean_path

        m_path = conditional_mean_path(spec, series)
        start = max(spec.p, spec.q)
        n = len(series)
        m_used = m_path[start:n]
        means, variances = _conditional_moments(spec, m_used)
        obs = series.counts[start:].astype(float)
    if np.any(variances <= 0.0):
        raise ValueError("degenerate model: zero conditional variance encountered")
    residuals = (obs - means) / np.sqrt(variances)
    acf = sample_acf(residuals, max_lag)
    return ResidualReport(
        residuals=residuals,
        mean=float(residuals.mean()),
        variance=float(residuals.var(ddof=1)),
        acf=acf,
    )
