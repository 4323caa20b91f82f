"""Reference helpers the tests share; the package itself never calls them."""

import math
from typing import Callable

import numpy as np
from scipy.special import gammainc

from tobitcount import estimation, skellam
from tobitcount.skellam import SkellamParams
from tobitcount.specialfn import _log_bessel_i_arr


def chernoff_tail_radius(params: SkellamParams, eps: float = 1e-13) -> int:
    """Smallest radius ``R`` with Chernoff bounds on ``P(X* >= R)`` and
    ``P(X* <= -R)`` below ``eps``, at the optimal exponent
    ``t* = ln((R + sqrt(R^2 + 4 lam1 lam2)) / (2 lam1))`` (rates swapped below)."""

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
    ``E[X* f(X*)] = lambda1 E[f(X* + 1)] - lambda2 E[f(X* - 1)]`` summed over
    ``[-R, R]``; raises if more than 1e-12 of the mass lies outside."""
    radius = int(support_radius)
    xs = np.arange(-radius, radius + 1)
    probs = np.exp(skellam._log_pmf_arr(xs, *skellam._star(params)))
    outside = 1.0 - probs.sum()
    if outside > 1e-12:
        raise ValueError(f"support radius {radius} leaves tail mass {outside:.3e} > 1e-12")
    fx = np.array([f(int(x)) for x in xs])
    f_up = np.array([f(int(x) + 1) for x in xs])
    f_down = np.array([f(int(x) - 1) for x in xs])
    lhs = float(np.sum(xs * fx * probs))
    rhs = float(params.lambda1 * np.sum(f_up * probs) - params.lambda2 * np.sum(f_down * probs))
    return lhs, rhs


def bessel_recurrence_residual(n: int, z: float) -> float:
    """Residual of the recurrence ``I_{n+1} - I_{n-1} + (2n/z) I_n``, a check only:
    the recurrence is unstable forward, so nothing computes Bessel values by it."""
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


def hook_likelihood(monkeypatch, **wrappers) -> None:
    """Patch ``estimation._likelihood`` so that every likelihood it builds, a
    fit's included, has each named closure replaced by
    ``wrappers[name](closure)``."""
    build = estimation._likelihood

    def hooked(*args, **kwargs):
        likelihood = build(*args, **kwargs)
        return likelihood._replace(
            **{name: wrap(getattr(likelihood, name)) for name, wrap in wrappers.items()}
        )

    monkeypatch.setattr(estimation, "_likelihood", hooked)
