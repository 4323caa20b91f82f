"""The Skellam-Tobit INGARCH (STINGARCH) process.

A latent integer variable with conditional mean following the linear
INGARCH recursion is left-censored at zero:

    X_t = max(0, X*_t),   X*_t ~ Sk*(M_t, delta),
    M_t = alpha0 + sum_i alpha_i X_{t-i} + sum_j beta_j M_{t-j}
          + sum_k gamma_k z_{t,k}.

The module owns the model specification and series containers, the
conditional-mean recursion, simulation, the one-step conditional
distribution, and three routes to marginal moments: exact (Markov chain,
first-order autoregression only), simulated, and the linear
Yule-Walker-style approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import skellam
from .skellam import SkellamStar, censored_moments
from .specialfn import _log_factorials

__all__ = [
    "ModelSpec",
    "CountSeries",
    "MomentSummary",
    "StationarityCheck",
    "check_stationarity",
    "conditional_mean_path",
    "conditional_pmf",
    "simulate",
    "exact_moments_stinarch1",
    "linear_approx_moments",
    "simulated_moments",
    "pacf_from_acf",
]


@dataclass(frozen=True)
class ModelSpec:
    """STINGARCH(p, q) parameter set.

    ``alphas`` and ``betas`` are the feedback coefficients on past counts
    and past conditional means; both may be negative.  ``gammas`` are
    optional covariate coefficients.  ``bound``/``kappa`` switch on the
    bounded (clipped) variant with one-inflation.
    """

    alpha0: float
    alphas: tuple[float, ...] = ()
    betas: tuple[float, ...] = ()
    delta: float = 0.25
    gammas: tuple[float, ...] = ()
    bound: Optional[int] = None
    kappa: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha0", float(self.alpha0))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if not math.isfinite(self.alpha0):
            raise ValueError("alpha0 must be finite")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be >= 0, got {self.delta!r}")
        if self.bound is not None and self.bound < 1:
            raise ValueError(f"bound must be a positive integer, got {self.bound!r}")
        if self.kappa is not None:
            if self.bound is None:
                raise ValueError("one-inflation kappa requires a bounded model")
            if not (0.0 <= self.kappa < 1.0):
                raise ValueError(f"kappa must lie in [0, 1), got {self.kappa!r}")

    @property
    def p(self) -> int:
        return len(self.alphas)

    @property
    def q(self) -> int:
        return len(self.betas)

    @property
    def r(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class CountSeries:
    """Observed counts plus optional covariate columns."""

    counts: np.ndarray
    covariates: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a nonempty 1-d sequence")
        if not np.issubdtype(counts.dtype, np.integer):
            rounded = np.rint(np.asarray(counts, dtype=float))
            if not np.allclose(counts, rounded, atol=0.0):
                raise ValueError("counts must be integers")
            counts = rounded.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts.astype(np.int64))
        if self.covariates is not None:
            z = np.asarray(self.covariates, dtype=float)
            if z.ndim == 1:
                z = z[:, None]
            if z.shape[0] != counts.shape[0]:
                raise ValueError(
                    f"covariate rows ({z.shape[0]}) must match series length "
                    f"({counts.shape[0]})"
                )
            object.__setattr__(self, "covariates", z)

    def __len__(self) -> int:
        return int(self.counts.shape[0])


@dataclass(frozen=True)
class MomentSummary:
    """Marginal mean, dispersion ratio and ACF/PACF at lags 1..max_lag.

    ``acf[h-1]`` and ``pacf[h-1]`` hold the lag-``h`` values; ``method``
    records how the numbers were obtained (``exact-markov``, ``simulated``
    or ``linear-approx``).
    """

    mean: float
    dispersion_ratio: float
    acf: np.ndarray
    pacf: np.ndarray
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "acf", np.asarray(self.acf, dtype=float))
        object.__setattr__(self, "pacf", np.asarray(self.pacf, dtype=float))


class StationarityCheck(NamedTuple):
    is_stationary: bool
    margin: float


def check_stationarity(spec: ModelSpec) -> StationarityCheck:
    """Sufficient condition ``sum_i max(0, alpha_i) + sum_j |beta_j| < 1``.

    Returns the verdict and the slack ``1 - sum``; a nonpositive margin
    means the condition fails.
    """
    total = sum(max(0.0, a) for a in spec.alphas) + sum(abs(b) for b in spec.betas)
    margin = 1.0 - total
    return StationarityCheck(margin > 0.0, margin)


def linear_mean(spec: ModelSpec) -> float:
    """Mean of the uncensored linear recursion, ``alpha0 / (1 - sum a - sum b)``."""
    denom = 1.0 - sum(spec.alphas) - sum(spec.betas)
    if denom <= 0.0:
        raise ValueError("linear mean undefined: coefficient sum >= 1")
    return spec.alpha0 / denom


def _mean_recursion(
    alpha0: float,
    alphas: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
    counts: np.ndarray,
    covariates: Optional[np.ndarray],
    extend: bool,
    presample_mean: float,
) -> np.ndarray:
    """Conditional means M_1..M_n (plus M_{n+1} when ``extend``).

    The first ``max(p, q)`` entries are pinned to ``presample_mean``;
    afterwards the recursion only touches observed counts and previously
    computed means.
    """
    p, q, r = len(alphas), len(betas), len(gammas)
    n = counts.shape[0]
    m_start = max(p, q)
    total = n + 1 if extend else n
    out = np.empty(total, dtype=float)
    out[: min(m_start, total)] = presample_mean
    if q == 0 and r == 0 and total > m_start:
        # no feedback: fully vectorizable
        vals = np.full(total - m_start, alpha0)
        for i, a in enumerate(alphas, start=1):
            vals += a * counts[m_start - i : total - i]
        out[m_start:] = vals
        return out
    for t in range(m_start, total):
        m = alpha0
        for i, a in enumerate(alphas, start=1):
            m += a * counts[t - i]
        for j, b in enumerate(betas, start=1):
            m += b * out[t - j]
        if r:
            if t >= n:
                raise ValueError("covariates unavailable beyond the sample")
            row = covariates[t]
            for k, g in enumerate(gammas):
                m += g * row[k]
        out[t] = m
    return out


def conditional_mean_path(
    spec: ModelSpec, series: CountSeries, m_init: str = "alpha0"
) -> np.ndarray:
    """Conditional-mean path ``M_1..M_{n+1}`` given the observed counts.

    The first ``max(p, q)`` values are initialization values: ``alpha0``
    under the default rule (the simulation-study convention) or the
    unconditional linear mean under ``m_init="unconditional"``.  The final
    entry is the one-step-ahead mean following the last observation; it is
    omitted (the path then has length ``n``) when covariates are present,
    since the next covariate row is unknown.
    """
    if spec.r:
        if series.covariates is None or series.covariates.shape[1] != spec.r:
            raise ValueError(
                f"spec declares {spec.r} covariate coefficients but the series "
                "does not carry matching covariate columns"
            )
    if m_init == "alpha0":
        presample = spec.alpha0
    elif m_init == "unconditional":
        presample = linear_mean(spec)
    else:
        raise ValueError(f"unknown m_init rule {m_init!r}")
    return _mean_recursion(
        spec.alpha0,
        spec.alphas,
        spec.betas,
        spec.gammas,
        series.counts,
        series.covariates,
        extend=spec.r == 0,
        presample_mean=presample,
    )


def conditional_pmf(x: int, m: float, spec: ModelSpec) -> float:
    """One-step conditional probability ``P(X_t = x | M_t = m)`` (unbounded).

    ``x = 0`` collects the whole nonpositive mass of the latent variable;
    ``delta == 0`` is the censored-Poisson boundary with conditional law
    ``Poi(max(0, m))``.
    """
    if spec.bound is not None:
        raise ValueError("bounded models use stbingarch_conditional_pmf")
    x = int(x)
    if x < 0:
        raise ValueError(f"counts are nonnegative, got {x}")
    if spec.delta == 0.0:
        rate = max(0.0, m)
        if rate == 0.0:
            return 1.0 if x == 0 else 0.0
        return math.exp(-rate + x * math.log(rate) - math.lgamma(x + 1))
    star = SkellamStar(m, spec.delta)
    params = star.to_params()
    if x == 0:
        return skellam.cdf(0, params)
    return skellam.pmf(x, params)


def simulate(
    spec: ModelSpec,
    n: int,
    burn_in: int = 500,
    rng: Optional[np.random.Generator] = None,
    covariates: Optional[np.ndarray] = None,
    warn_nonstationary: bool = True,
) -> CountSeries:
    """Simulate a path of length ``n`` after discarding ``burn_in`` steps.

    Pre-sample conditional means start at ``alpha0`` and pre-sample counts
    at the rounded censored unconditional mean.  Covariate rows, when given,
    apply to the emitted segment only (the burn-in runs covariate-free).
    A nonstationary specification triggers a warning, not an error.
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError("burn-in must be >= 0")
    if rng is None:
        rng = np.random.default_rng()
    if warn_nonstationary and not check_stationarity(spec).is_stationary:
        import warnings

        warnings.warn("simulating a specification outside the stationarity region")
    if spec.r:
        if covariates is None:
            raise ValueError("spec has covariate coefficients; pass covariates")
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        if covariates.shape != (n, spec.r):
            raise ValueError(f"covariates must have shape ({n}, {spec.r})")
    p, q = spec.p, spec.q
    try:
        x0 = int(round(max(0.0, linear_mean(spec))))
    except ValueError:
        x0 = int(round(max(0.0, spec.alpha0)))
    x_hist = [x0] * max(p, 1)
    m_hist = [spec.alpha0] * max(q, 1)
    total = burn_in + n
    half = 0.5 * spec.delta
    shared = rng.poisson(half, size=total) if spec.delta > 0.0 else np.zeros(total, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    bound = spec.bound
    kappa = spec.kappa if spec.kappa is not None else 0.0
    for t in range(total):
        m = spec.alpha0
        for i in range(p):
            m += spec.alphas[i] * x_hist[-1 - i]
        for j in range(q):
            m += spec.betas[j] * m_hist[-1 - j]
        if spec.r and t >= burn_in:
            m += float(np.dot(spec.gammas, covariates[t - burn_in]))
        if spec.delta > 0.0:
            # Sk*(m, delta) as a Poisson difference; the delta/2 component is
            # parameter-free and pre-drawn
            if m >= 0.0:
                xstar = rng.poisson(m + half) - shared[t]
            else:
                xstar = shared[t] - rng.poisson(-m + half)
        else:
            xstar = rng.poisson(m) if m > 0.0 else 0
        x = xstar if xstar > 0 else 0
        if bound is not None:
            if x > bound:
                x = bound
            if kappa > 0.0 and rng.random() < kappa:
                x = 1
        if p:
            x_hist.append(x)
            del x_hist[0]
        if q:
            m_hist.append(m)
            del m_hist[0]
        if t >= burn_in:
            out[t - burn_in] = x
    return CountSeries(out, covariates=covariates if spec.r else None)


# ---------------------------------------------------------------------------
# marginal moments
# ---------------------------------------------------------------------------


def pacf_from_acf(acf: np.ndarray) -> np.ndarray:
    """Partial autocorrelations from ``acf[h-1] = rho(h)`` via Durbin-Levinson."""
    acf = np.asarray(acf, dtype=float)
    h_max = acf.shape[0]
    pacf = np.zeros(h_max)
    if h_max == 0:
        return pacf
    phi_prev = np.array([acf[0]])
    pacf[0] = acf[0]
    v = 1.0 - acf[0] ** 2
    for h in range(2, h_max + 1):
        if v <= 1e-15:
            pacf[h - 1 :] = 0.0
            break
        num = acf[h - 1] - float(np.dot(phi_prev, acf[h - 2 :: -1]))
        phi_hh = num / v
        phi_new = np.empty(h)
        phi_new[: h - 1] = phi_prev - phi_hh * phi_prev[::-1]
        phi_new[h - 1] = phi_hh
        v *= 1.0 - phi_hh**2
        pacf[h - 1] = phi_hh
        phi_prev = phi_new
    return pacf


def _poisson_log_pmf_grid(rates: np.ndarray, kmax: int) -> np.ndarray:
    """Matrix of ``ln Poi(k; rate)`` for k = 0..kmax (rows follow rates)."""
    lf = _log_factorials(kmax)
    ks = np.arange(kmax + 1)
    rates = np.asarray(rates, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -rates + ks[None, :] * np.log(rates) - lf[ks][None, :]
    zero = rates[:, 0] == 0.0
    if np.any(zero):
        out[zero, :] = -np.inf
        out[zero, 0] = 0.0
    return out


def _transition_matrix(spec: ModelSpec, cap: int) -> np.ndarray:
    """Row-stochastic transition matrix of the STINARCH(1) chain on {0..cap}.

    The true law on {0, 1, ...} is clipped at ``cap``: the column ``cap``
    absorbs the entire upper tail, so rows sum to one exactly and the
    approximation error is confined to paths that ever exceed the cap.
    """
    states = np.arange(cap + 1)
    means = spec.alpha0 + spec.alphas[0] * states
    T = np.empty((cap + 1, cap + 1), dtype=float)
    if spec.delta == 0.0:
        rates = np.maximum(0.0, means)
        log_p = _poisson_log_pmf_grid(rates, cap)
        T[:, :cap] = np.exp(log_p[:, :cap])
        T[:, cap] = np.maximum(0.0, 1.0 - T[:, :cap].sum(axis=1))
        return T
    orders = np.broadcast_to(np.abs(states[None, 1:cap]), (cap + 1, cap - 1))
    mus = np.broadcast_to(means[:, None], (cap + 1, cap - 1))
    T[:, 1:cap] = np.exp(skellam._log_pmf_arr(states[None, 1:cap], mus, spec.delta))
    T[:, 0] = skellam._cdf0_arr(means, spec.delta)
    T[:, cap] = skellam._survival_arr(cap, means, spec.delta)
    # row sums deviate from one only by accumulated roundoff
    T /= T.sum(axis=1, keepdims=True)
    return T


def _stationary_distribution(T: np.ndarray) -> np.ndarray:
    """Stationary law by power iteration (L1 tol 1e-13), direct solve fallback."""
    size = T.shape[0]
    pi = np.full(size, 1.0 / size)
    for _ in range(200_000):
        nxt = pi @ T
        if np.abs(nxt - pi).sum() < 1e-13:
            return nxt / nxt.sum()
        pi = nxt
    if size <= 2000:
        a = np.vstack([T.T - np.eye(size), np.ones(size)])
        b = np.zeros(size + 1)
        b[-1] = 1.0
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        sol = np.maximum(sol, 0.0)
        return sol / sol.sum()
    raise ArithmeticError("stationary distribution did not converge")


def exact_moments_stinarch1(
    spec: ModelSpec,
    max_lag: int = 3,
    state_cap: Optional[int] = None,
    tail_tol: float = 1e-12,
) -> MomentSummary:
    """Exact marginal moments of the first-order autoregressive case.

    Builds the one-step transition matrix on a truncated state space,
    solves for the stationary distribution, and reads off mean, variance
    and lag-h autocovariances through matrix powers; the PACF follows by
    Durbin-Levinson.  The cap grows by doubling until the stationary mass
    near the boundary falls below ``tail_tol``.
    """
    if spec.q != 0 or spec.p != 1 or spec.r != 0 or spec.bound is not None:
        raise ValueError("exact moments are available for STINARCH(1) only")
    if not check_stationarity(spec).is_stationary:
        raise ValueError("exact moments require the stationarity condition")
    anchor = max(linear_mean(spec), spec.alpha0, 1.0)
    cap = state_cap or int(math.ceil(anchor + 12.0 * math.sqrt(anchor + spec.delta))) + 5
    for _ in range(6):
        T = _transition_matrix(spec, cap)
        pi = _stationary_distribution(T)
        if pi[-3:].sum() < tail_tol:
            break
        cap *= 2
    else:
        raise ArithmeticError("state cap doubling did not meet the tail criterion")
    states = np.arange(cap + 1, dtype=float)
    mean = float(pi @ states)
    centered = states - mean
    var = float(pi @ centered**2)
    acf = np.empty(max_lag)
    v = centered.copy()
    for h in range(1, max_lag + 1):
        v = T @ v
        acf[h - 1] = float(pi @ (centered * v)) / var
    return MomentSummary(
        mean=mean,
        dispersion_ratio=var / mean,
        acf=acf,
        pacf=pacf_from_acf(acf),
        method="exact-markov",
    )


def linear_approx_moments(spec: ModelSpec, max_lag: int = 3) -> MomentSummary:
    """Linear (Yule-Walker style) approximation of the marginal moments.

    The process is matched to an uncensored linear count model whose
    dispersion parameter equals the censored variance/mean ratio of
    ``Sk*(mu, delta)`` at the linear mean ``mu``.  Supported orders are
    (1,0) and (1,1), plus the degenerate i.i.d. case where the exact
    censored mean is reported and the ACF vanishes.
    """
    if spec.bound is not None or spec.r:
        raise ValueError("linear approximation covers unbounded covariate-free models")
    if not check_stationarity(spec).is_stationary:
        raise ValueError("linear approximation requires the stationarity condition")
    dynamic = any(a != 0.0 for a in spec.alphas) or any(b != 0.0 for b in spec.betas)
    if not dynamic:
        cm = censored_moments(SkellamStar(spec.alpha0, spec.delta))
        if cm.mean <= 0.0:
            raise ValueError("degenerate model: censored mean is zero")
        zeros = np.zeros(max_lag)
        return MomentSummary(
            mean=cm.mean,
            dispersion_ratio=cm.variance / cm.mean,
            acf=zeros,
            pacf=zeros.copy(),
            method="linear-approx",
        )
    mu = linear_mean(spec)
    cm = censored_moments(SkellamStar(mu, spec.delta))
    eta = cm.variance / cm.mean
    if (spec.p, spec.q) == (1, 0):
        a1 = spec.alphas[0]
        ratio = eta / (1.0 - a1 * a1)
        acf = a1 ** np.arange(1, max_lag + 1)
        pacf = np.zeros(max_lag)
        pacf[0] = a1
    elif (spec.p, spec.q) == (1, 1):
        a1, b1 = spec.alphas[0], spec.betas[0]
        s = a1 + b1
        ratio = eta * (1.0 - s * s + a1 * a1) / (1.0 - s * s)
        rho1 = a1 * (1.0 - b1 * s) / (1.0 - s * s + a1 * a1)
        acf = rho1 * s ** np.arange(max_lag)
        pacf = pacf_from_acf(acf)
    else:
        raise ValueError(
            f"linear approximation implemented for orders (1,0) and (1,1), "
            f"got ({spec.p},{spec.q})"
        )
    return MomentSummary(
        mean=mu,
        dispersion_ratio=ratio,
        acf=acf,
        pacf=pacf,
        method="linear-approx",
    )


def simulated_moments(
    spec: ModelSpec,
    n: int,
    max_lag: int = 3,
    rng: Optional[np.random.Generator] = None,
    burn_in: int = 10_000,
) -> MomentSummary:
    """Sample moments from one simulated path of length ``n``."""
    from .diagnostics import sample_acf_pacf

    series = simulate(spec, n, burn_in=burn_in, rng=rng)
    x = series.counts.astype(float)
    mean = float(x.mean())
    var = float(x.var())
    acf, pacf = sample_acf_pacf(series, max_lag)
    return MomentSummary(
        mean=mean,
        dispersion_ratio=var / mean,
        acf=acf,
        pacf=pacf,
        method="simulated",
    )
