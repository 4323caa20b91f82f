"""Benchmark-owned input series, generated with numpy alone.

The generators follow the model definitions directly instead of calling
``tobitcount.stingarch.simulate``, so a change to the package's simulator
leaves the benchmark's inputs exactly as they were.  Series ``i`` of a
workload is drawn from ``SeedSequence([workload_seed, i])``: consecutive
indices under the workload seed, never a seed picked for its timing.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

BURN_IN = 500


def series_rng(workload_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([workload_seed, index]))


def derived_seed(workload_seed: int, index: int) -> int:
    """A 32-bit seed for a CLI call that draws its own randomness."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


def stingarch_series(
    rng: np.random.Generator,
    n: int,
    alpha0: float,
    alpha1: float,
    beta1: float,
    delta: float,
    bound: int | None = None,
    kappa: float = 0.0,
) -> np.ndarray:
    """STINGARCH(1,1) path: ``X_t = max(0, X*_t)``, ``X*_t ~ Sk*(M_t, delta)``.

    ``M_t = alpha0 + alpha1 X_{t-1} + beta1 M_{t-1}``.  ``Sk*(m, delta)`` is
    ``Poi(m + delta/2) - Poi(delta/2)`` for ``m >= 0`` and
    ``Poi(delta/2) - Poi(-m + delta/2)`` otherwise.  With ``bound`` the count
    is clipped at the bound and set to 1 with probability ``kappa``.
    """
    total = BURN_IN + n
    half = 0.5 * delta
    shared = rng.poisson(half, size=total).tolist()
    inflate = (rng.random(total) < kappa).tolist() if kappa > 0.0 else None
    poisson = rng.poisson
    linear_mean = alpha0 / (1.0 - alpha1 - beta1)
    x_prev = max(0, round(linear_mean))
    m_prev = alpha0
    out = [0] * total
    for t in range(total):
        m = alpha0 + alpha1 * x_prev + beta1 * m_prev
        if m >= 0.0:
            xstar = int(poisson(m + half)) - shared[t]
        else:
            xstar = shared[t] - int(poisson(half - m))
        x = xstar if xstar > 0 else 0
        if bound is not None:
            x = min(x, bound)
            if inflate[t]:
                x = 1
        out[t] = x
        x_prev, m_prev = x, m
    return np.asarray(out[BURN_IN:], dtype=np.int64)


def tinars_series(
    rng: np.random.Generator, n: int, alpha1: float, innovation_mean: float
) -> np.ndarray:
    """Tobit INARS(1) path: ``X_t = max(0, alpha1 (.) X_{t-1} + eps_t)``.

    ``alpha (.) x = sgn(alpha) Bin(x, |alpha|)`` and ``eps_t ~ Poi(innovation_mean)``.
    """
    total = BURN_IN + n
    eps = rng.poisson(innovation_mean, size=total).tolist()
    sign = 1 if alpha1 >= 0.0 else -1
    prob = abs(alpha1)
    binomial = rng.binomial
    x = round(innovation_mean)
    out = [0] * total
    for t in range(total):
        latent = sign * int(binomial(x, prob)) + eps[t]
        x = latent if latent > 0 else 0
        out[t] = x
    return np.asarray(out[BURN_IN:], dtype=np.int64)


def write_csv(path: str, counts: np.ndarray) -> dict:
    """Write a one-column count CSV and return its record for the results."""
    text = "count\n" + "\n".join(map(str, counts.tolist())) + "\n"
    data = text.encode("ascii")
    with open(path, "wb") as handle:
        handle.write(data)
    return {
        "file": os.path.basename(path),
        "n": int(counts.shape[0]),
        "zero_share": float(np.mean(counts == 0)),
        "max_count": int(counts.max()),
        "sha256": hashlib.sha256(data).hexdigest(),
    }

