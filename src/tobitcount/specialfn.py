"""Special functions behind the Skellam layer, one array kernel per quantity.

* :func:`_log_bessel_i_arr` evaluates ``ln I_n(z)`` for integer orders from
  the power series, without overflow for any admissible argument.
* :func:`_poisson_mixture` evaluates the Poisson mixture
  ``F(a0, g, m) = sum_j Pois(j; m) P(a0 + j, g)`` of regularized lower
  incomplete gamma functions.  It is the noncentral chi-square CDF and, for
  integer ``a0``, the Skellam tail ``P(Poi(g) - Poi(m) >= a0)``.

The public functions validate their scalar arguments and make one call to
an array kernel (or to ``scipy.special.gammainc``); the likelihood,
transition and moment layers call the kernels directly on whole arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

__all__ = [
    "PrecisionError",
    "log_bessel_i",
    "bessel_recurrence_residual",
    "reg_incomplete_gamma_lower",
    "noncentral_chisq_cdf",
]

# Bessel term grid: the last term must fall below 1e-16 of the sum
_LOG_REL_TOL = math.log(1e-16)
# Poisson-mixture window: half-width in standard deviations of the terms
# plus a pad for their heavier-than-Gaussian tails, so that the terms left
# out stay below 1e-17 of the sum (the edge terms are checked on every call);
# chunks of 2^16 cells keep each temporary at 512 KB
_WINDOW_SDS = 10.0
_WINDOW_PAD = 4.0
_CHUNK_CELLS = 1 << 16
# stands in for a zero mixing mean inside log(): every term past j = 0 vanishes
_TINY = 1e-300


class PrecisionError(ArithmeticError):
    """A series or summation window failed to reach its target accuracy."""


def log_bessel_i(n: int, z: float) -> float:
    """Return ``ln I_|n|(z)`` for integer order ``n`` and ``z >= 0``.

    Negative orders use the symmetry ``I_{-n} = I_n``; ``I_n(0)`` with
    ``n != 0`` is an exact zero and returns ``-inf``.
    """
    if not math.isfinite(z) or z < 0.0:
        raise ValueError(f"Bessel argument must be finite and >= 0, got {z!r}")
    return float(_log_bessel_i_arr(abs(int(n)), z))


def bessel_recurrence_residual(n: int, z: float) -> float:
    """Residual of the three-term recurrence ``I_{n+1} - I_{n-1} + (2n/z) I_n``.

    Exposed for test harnesses only; the recurrence is numerically unstable
    in the forward direction and is never used to *compute* Bessel values.
    """
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"recurrence residual requires finite z > 0, got {z!r}")
    n = int(n)
    i_down, i_mid, i_up = np.exp(_log_bessel_i_arr(np.abs([n - 1, n, n + 1]), z))
    return float(i_up - i_down + (2.0 * n / z) * i_mid)


def reg_incomplete_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma function ``P(s, x)``."""
    if not (s > 0.0) or not math.isfinite(s):
        raise ValueError(f"gamma shape must be positive and finite, got {s!r}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"gamma argument must be finite and >= 0, got {x!r}")
    return float(gammainc(s, x))


def noncentral_chisq_cdf(x: float, nu: float, tau: float) -> float:
    """CDF of the noncentral chi-square law with ``nu`` d.o.f. and noncentrality ``tau``.

    This is the ``Poisson(tau/2)``-weighted mixture of central chi-square
    CDFs with ``nu + 2j`` degrees of freedom, ``F(nu/2, x/2, tau/2)``.
    """
    if not (nu > 0.0) or not math.isfinite(nu):
        raise ValueError(f"degrees of freedom must be positive, got {nu!r}")
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError(f"noncentrality must be finite and >= 0, got {tau!r}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"chi-square argument must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    return float(_poisson_mixture(0.5 * nu, 0.5 * x, 0.5 * tau))


# ---------------------------------------------------------------------------
# array kernels (private; used by the likelihood / transition layers)
# ---------------------------------------------------------------------------

_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(m: int) -> np.ndarray:
    """Cached ``ln k!`` table for k = 0..m (grown on demand).

    A running sum of logs, good to about 1e-13 at k = 100.
    """
    global _LOG_FACTORIALS
    if _LOG_FACTORIALS.size <= m:
        new_size = max(m + 1, 2 * _LOG_FACTORIALS.size, 256)
        ks = np.arange(new_size, dtype=float)
        ks[0] = 1.0
        _LOG_FACTORIALS = np.cumsum(np.log(ks))
        _LOG_FACTORIALS[0] = 0.0
    return _LOG_FACTORIALS


def _log_bessel_i_arr(orders: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized ``ln I_n(z)`` for nonnegative integer orders.

    Sums the power series ``sum_k (z/2)^{n+2k} / (k! (k+n)!)``.  For
    moderate arguments the tail factor ``sum_k (z/2)^{2k} n! / (k! (k+n)!)``
    stays below ``e^z`` and is accumulated by a scaled linear-domain
    recurrence; very large arguments fall back to a shared log-domain term
    grid.
    """
    orders = np.asarray(orders, dtype=np.int64)
    z = np.asarray(z, dtype=float)
    orders, z = np.broadcast_arrays(orders, z)
    if np.any(orders < 0):
        raise ValueError("vectorized Bessel expects nonnegative orders")
    if np.any(z < 0.0):
        raise ValueError("Bessel argument must be >= 0")
    out = np.full(orders.shape, -math.inf, dtype=float)
    zero_z = z == 0.0
    out[zero_z & (orders == 0)] = 0.0
    active = ~zero_z
    if not np.any(active):
        return out
    n_act = orders[active].ravel()
    z_act = z[active].ravel()
    z_max = float(z_act.max())
    if not z_max < 2.0**53:  # the term count is sized from z
        raise PrecisionError(f"Bessel series cannot be indexed at argument {z_max!r}")
    half_max = 0.5 * z_max
    kmax = int(math.ceil(half_max + 12.0 * math.sqrt(half_max + 1.0))) + 30
    lf = _log_factorials(kmax + int(n_act.max()) + 1)
    if z_max <= 600.0:
        quarter_sq = 0.25 * z_act * z_act
        n_f = n_act.astype(float)
        term = np.ones_like(z_act)
        total = np.ones_like(z_act)
        converged = False
        for k in range(kmax):
            term = term * quarter_sq / ((k + 1.0) * (k + 1.0 + n_f))
            total += term
            # total >= 1, so an absolute threshold bounds the relative one
            if float(term.max()) < 1e-17:
                converged = True
                break
        if not converged and np.any(term > 1e-13 * total):
            raise PrecisionError("vectorized Bessel recurrence did not converge")
        out[active] = n_f * np.log(0.5 * z_act) - lf[n_act] + np.log(total)
        return out
    k = np.arange(kmax + 1)
    lhalf = np.log(0.5 * z_act)[:, None]
    log_terms = (
        (n_act[:, None] + 2.0 * k[None, :]) * lhalf
        - lf[k][None, :]
        - lf[n_act[:, None] + k[None, :]]
    )
    peak = log_terms.max(axis=1)
    summed = peak + np.log(np.exp(log_terms - peak[:, None]).sum(axis=1))
    if np.any(log_terms[:, -1] - summed > _LOG_REL_TOL + math.log(10.0)):
        raise PrecisionError("vectorized Bessel term grid too short")
    out[active] = summed
    return out


def _poisson_mixture(a0: float, g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Array kernel for ``F(a0, g, m) = sum_j Pois(j; m) P(a0 + j, g)``.

    ``P`` is the regularized lower incomplete gamma function, so that
    ``F(nu/2, x/2, tau/2)`` is the noncentral chi-square CDF and, for
    integer ``a0``, ``F`` is the Skellam tail ``P(Poi(g) - Poi(m) >= a0)``.
    ``a0 >= 0`` is a scalar; ``g > 0`` and ``m >= 0`` broadcast.

    The terms are log-concave in ``j`` and peak no later than
    ``min(m, j*)`` with ``j* (j* + a0) = m g``, which is far below the
    Poisson mode in the far tail.  Each element sums a window around that
    centre.  The Poisson weights are evaluated term by term in the log
    domain, so ``exp(-m)`` never underflows on its own.  ``P(a0 + j, g)``
    is one ``gammainc`` call at the window top plus a reverse cumulative
    sum of the positive terms ``g^n e^-g / Gamma(n + 1)`` below it, so
    nothing is computed by subtraction.  Elements are processed in chunks of
    a fixed cell count to bound the working set.
    """
    a0 = int(a0) if float(a0).is_integer() else float(a0)
    g, m = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(m, dtype=float))
    shape = g.shape
    g, m = g.ravel(), m.ravel()
    centre = np.minimum(m, 0.5 * (np.sqrt(a0 * a0 + 4.0 * m * g) - a0))
    half = _WINDOW_SDS * np.sqrt(centre + 1.0) + _WINDOW_PAD
    top = centre + half
    # past 2^53 a float no longer holds every index of the window
    if not top.max(initial=0.0) < 2.0**53:
        bad = float(m[~(top < 2.0**53)][0])
        raise PrecisionError(f"Poisson-mixture window cannot be indexed at mixing mean {bad!r}")
    lo = np.maximum(centre - half, 0.0).astype(np.int64)
    width = int(np.max(top - lo, initial=0.0)) + 2
    rows = max(1, _CHUNK_CELLS // width)
    out = np.empty(g.shape)
    for first in range(0, g.size, rows):
        part = slice(first, first + rows)
        out[part] = _mixture_window(a0, g[part], m[part], lo[part], width)
    return out.reshape(shape)


def _mixture_window(a0, g, m, lo, width):
    # window offset on the first axis: the cumulative sums run over rows
    j = np.arange(width)[:, None] + lo
    n = j + a0
    top = n[-1]
    # ln k! from gammaln: the running sum of _log_factorials drifts by 1e-13
    ln_fact = gammaln(np.arange(1.0, top.max() + 2.0))
    weights = np.exp(j * np.log(np.maximum(m, _TINY)) - m - ln_fact[j])
    ln_gamma = ln_fact[n] if isinstance(a0, int) else gammaln(n + 1.0)
    tail = np.exp(n * np.log(g) - g - ln_gamma)
    tail[-1] = gammainc(top, g)
    tail = np.cumsum(tail[::-1], axis=0)[::-1]  # P(a0 + j, g)
    terms = weights * tail
    total = terms.sum(axis=0)
    edge = np.where(lo > 0, terms[0], 0.0) + terms[-1]
    if np.any(edge > 1e-16 * total):
        raise PrecisionError("Poisson-mixture window too narrow")
    return total
