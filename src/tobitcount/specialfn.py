"""Special functions behind the Skellam layer, one array kernel per quantity.

* :func:`_log_bessel_i_arr` evaluates ``ln I_n(z)`` for integer orders from
  the power series, by one recurrence rescaled against overflow, for every
  argument.
* :func:`_poisson_mixture` evaluates the Poisson mixture
  ``F(a0, g, m) = sum_j Pois(j; m) P(a0 + j, g)`` of regularized lower
  incomplete gamma functions.  It is the noncentral chi-square CDF and, for
  integer ``a0``, the Skellam tail ``P(Poi(g) - Poi(m) >= a0)``.

Every array is sized by what it indexes: the terms of one element and the
``ln k!`` of its orders or window.  ``ln k!`` has two sources: the Bessel
kernel reads a fixed table for orders up to 4096 and takes ``gammaln`` above
it, and the mixture takes ``gammaln`` over each chunk's window.  An element
that needs more than ``_CHUNK_CELLS`` (2^16) terms raises
:class:`PrecisionError` before anything is allocated: a Bessel argument above
about 1.25e5, or a mixture centred above about 1.07e7.

The public functions, :func:`log_bessel_i` and :func:`noncentral_chisq_cdf`,
validate their scalar arguments and make one call to an array kernel; the
likelihood, transition and moment layers call the kernels directly on whole
arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

__all__ = [
    "PrecisionError",
    "log_bessel_i",
    "noncentral_chisq_cdf",
]

# Bessel recurrence: its running total lies in [1, e^z]; past z = 830 ln 2
# (about 575) a total above 2^830 (about 1e250) is divided by it, exactly
_RESCALE_AT = 2.0**830
_LOG_RESCALE = math.log(_RESCALE_AT)
# Poisson-mixture window: half-width in standard deviations of the terms
# plus a pad for their heavier-than-Gaussian tails, so that the terms left
# out stay below 1e-17 of the sum (the edge terms are checked on every call);
# chunks of 2^16 cells keep each temporary at 512 KB, and an element of
# either kernel that needs more terms than one chunk holds is refused
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

# ln k! for k = 0..2^12 as a running sum of logs, whose bits the small orders
# keep (gammaln is 1.2 ulp off ln 60!).  The sum drifts: about 1e-13 at
# k = 100, 2.4e-11 at k = 3000 and 5e-10 at k = 65,536, where gammaln, which
# the orders above the table take, is off by 8e-11.
_LN_FACTORIAL_TABLE = np.cumsum(np.log(np.maximum(np.arange(4097.0), 1.0)))


def _log_bessel_i_arr(orders: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized ``ln I_n(z)`` for nonnegative integer orders.

    Sums the power series ``sum_k (z/2)^{n+2k} / (k! (k+n)!)`` for every
    argument by one scaled linear-domain recurrence on the tail factor
    ``sum_k (z/2)^{2k} n! / (k! (k+n)!)``, which lies in ``[1, e^z]``.  Past
    ``z = 830 ln 2`` (about 575) an element whose running total passes
    ``2^830`` is rescaled by ``2^-830`` (exact in binary) and the count of
    shifts joins its logarithm.  ``ln n!`` comes from one of two sources,
    chosen by order: a fixed running-sum table for ``n <= 4096`` and
    ``gammaln(n + 1)`` above it, so no array is sized by an order.  The
    series needs ``z/2 + 12 sqrt(z/2 + 1) + 30`` terms; a ``PrecisionError``
    refuses, before any allocation, an argument that needs more than
    ``_CHUNK_CELLS`` (about ``z > 1.25e5``).
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
    half_max = 0.5 * z_max
    span = half_max + 12.0 * math.sqrt(half_max + 1.0)
    if not span + 30.0 <= _CHUNK_CELLS:
        raise PrecisionError(f"Bessel series cannot be indexed at argument {z_max!r}")
    kmax = int(math.ceil(span)) + 30
    tabled = n_act < _LN_FACTORIAL_TABLE.size
    ln_fact = _LN_FACTORIAL_TABLE[np.where(tabled, n_act, 0)]
    if not tabled.all():
        ln_fact[~tabled] = gammaln(n_act[~tabled] + 1.0)
    quarter_sq = 0.25 * z_act * z_act
    n_f = n_act.astype(float)
    term = np.ones_like(z_act)
    total = np.ones_like(z_act)
    shifts = np.zeros(z_act.shape, dtype=np.int64)
    rescale = z_max > _LOG_RESCALE
    for k in range(kmax):
        term = term * quarter_sq / ((k + 1.0) * (k + 1.0 + n_f))
        total += term
        if rescale:
            big = total > _RESCALE_AT
            if big.any():
                total[big] /= _RESCALE_AT
                term[big] /= _RESCALE_AT
                shifts[big] += 1
        # total >= 1, so an absolute threshold bounds the relative one
        if float(term.max()) < 1e-17:
            break
    else:
        if np.any(term > 1e-13 * total):
            raise PrecisionError("vectorized Bessel recurrence did not converge")
    out[active] = n_f * np.log(0.5 * z_act) - ln_fact + np.log(total) + shifts * _LOG_RESCALE
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
    # the window clipped at j = 0 holds min(top, 2 half) + 2 terms
    cells = np.minimum(top, 2.0 * half) + 2.0
    if not cells.max(initial=0.0) <= _CHUNK_CELLS:
        bad = float(m[~(cells <= _CHUNK_CELLS)][0])
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
    # ln k! from gammaln, for k from the chunk's lowest window index: the
    # running sum of _LN_FACTORIAL_TABLE drifts by 1e-13
    base = int(lo.min())
    ln_fact = gammaln(np.arange(base + 1.0, top.max() + 2.0))
    weights = np.exp(j * np.log(np.maximum(m, _TINY)) - m - ln_fact[j - base])
    ln_gamma = ln_fact[n - base] if isinstance(a0, int) else gammaln(n + 1.0)
    tail = np.exp(n * np.log(g) - g - ln_gamma)
    tail[-1] = gammainc(top, g)
    tail = np.cumsum(tail[::-1], axis=0)[::-1]  # P(a0 + j, g)
    terms = weights * tail
    total = terms.sum(axis=0)
    edge = np.where(lo > 0, terms[0], 0.0) + terms[-1]
    if np.any(edge > 1e-16 * total):
        raise PrecisionError("Poisson-mixture window too narrow")
    return total
