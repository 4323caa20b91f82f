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
Yule-Walker-style approximation.  The recursion, its gradient and the
beta rows of its Hessian are one kernel (:func:`_mean_kernel`), built for
a series and an order and shared by every estimator; each is a banded
triangular solve of the feedback ``1 - sum_j beta_j B^j``.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dtbtrs

from . import skellam
from .skellam import SkellamStar, censored_moments

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


def _positive_bound(bound) -> int:
    """``bound`` as an ``int``; ``ValueError`` unless it is an integer >= 1
    (``True`` is not a bound)."""
    if isinstance(bound, bool) or not isinstance(bound, numbers.Integral) or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")
    return int(bound)


@dataclass(frozen=True)
class ModelSpec:
    """STINGARCH(p, q) parameter set.

    ``alphas`` and ``betas`` are the feedback coefficients on past counts
    and past conditional means; both may be negative.  ``gammas`` are
    optional covariate coefficients.  ``bound`` switches on the bounded
    (clipped) variant and ``kappa`` its one-inflation weight on 1, in
    ``[0, 1)``; ``kappa = 0`` means no inflation, the only value an
    unbounded model takes.
    """

    alpha0: float
    alphas: tuple[float, ...] = ()
    betas: tuple[float, ...] = ()
    delta: float = 0.25
    gammas: tuple[float, ...] = ()
    bound: Optional[int] = None
    kappa: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha0", float(self.alpha0))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if not math.isfinite(self.alpha0):
            raise ValueError("alpha0 must be finite")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be >= 0, got {self.delta!r}")
        if self.bound is not None:
            object.__setattr__(self, "bound", _positive_bound(self.bound))
        if not (0.0 <= self.kappa < 1.0):
            raise ValueError(f"kappa must lie in [0, 1), got {self.kappa!r}")
        if self.kappa > 0.0 and self.bound is None:
            raise ValueError("one-inflation kappa requires a bounded model")

    @property
    def p(self) -> int:
        return len(self.alphas)

    @property
    def q(self) -> int:
        return len(self.betas)

    @property
    def r(self) -> int:
        return len(self.gammas)


# 2**53 is the first integer whose successor a float cannot hold
_EXACT_INT_LIMIT = 2.0**53


@dataclass(frozen=True)
class CountSeries:
    """Observed counts plus optional covariate columns; float counts must be
    integers below 2**53 in magnitude and covariates finite."""

    counts: np.ndarray
    covariates: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a nonempty 1-d sequence")
        if not np.issubdtype(counts.dtype, np.integer):
            counts = np.asarray(counts, dtype=float)
            bad = counts[~(np.abs(counts) < _EXACT_INT_LIMIT)]  # NaN included
            if bad.size:
                raise ValueError(f"counts must be below 2**53 in magnitude, got {bad[:3]}")
            rounded = np.rint(counts)
            if not np.array_equal(counts, rounded):
                raise ValueError("counts must be integers")
            counts = rounded.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts.astype(np.int64))
        if self.covariates is not None:
            z = np.asarray(self.covariates, dtype=float)
            bad = z[~np.isfinite(z)]
            if bad.size:
                raise ValueError(f"covariates must be finite, got {bad[:3]}")
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


def _stationarity_sum(alphas: Sequence[float], betas: Sequence[float]) -> float:
    """``sum_i max(0, alpha_i) + sum_j |beta_j|``, on plain sequences so that
    per-call objectives need not build a spec."""
    return sum(max(0.0, a) for a in alphas) + sum(abs(b) for b in betas)


def check_stationarity(spec: ModelSpec) -> StationarityCheck:
    """Sufficient condition ``sum_i max(0, alpha_i) + sum_j |beta_j| < 1``.

    Returns the verdict and the slack ``1 - sum``; a nonpositive margin
    means the condition fails.
    """
    margin = 1.0 - _stationarity_sum(spec.alphas, spec.betas)
    return StationarityCheck(margin > 0.0, margin)


def linear_mean(spec: ModelSpec) -> float:
    """Mean of the uncensored linear recursion, ``alpha0 / (1 - sum a - sum b)``."""
    denom = 1.0 - sum(spec.alphas) - sum(spec.betas)
    if denom <= 0.0:
        raise ValueError("linear mean undefined: coefficient sum >= 1")
    return spec.alpha0 / denom


def _ar_filter(rhs: np.ndarray, betas, start: int, band: np.ndarray) -> np.ndarray:
    """Solve ``(1 - sum_j beta_j B^j) y = rhs`` down every column of ``rhs``.

    ``betas`` holds the q coefficients, or a ``(K, q)`` block of rows of
    them; ``rhs`` then stacks K series of equal length along its first axis,
    and row i filters the i-th.  In each series rows ``t < start`` are
    pinned, ``y_t = rhs_t``.  The unit lower-triangular band of the stacked
    series goes to one LAPACK triangular banded solve, which substitutes
    forward without pivoting, as the recursion does.  Its coefficients are
    zero at each series' pinned prefix and in each series' last q columns,
    which would reach into the next series, so each series is the same
    forward substitution as a solve of its own.  ``band`` is the storage of
    shape ``(q + 1, len(rhs))`` in Fortran order, zero where no coefficient
    is written, that :func:`_mean_kernel` keeps across the solves of a fit:
    every solve of a series of this length writes the same entries.
    Returns ``rhs`` when q = 0.
    """
    betas = np.asarray(betas, dtype=float)
    q = betas.shape[-1]
    if q == 0:
        return rhs
    coefficients = -betas.reshape(-1, q, 1)
    rows = coefficients.shape[0]
    n = rhs.shape[0] // rows
    blocks = band.reshape(q + 1, rows, n)
    for j in range(1, q + 1):
        # column c of a series holds the coefficient of y_c in its row c + j
        blocks[j, :, max(start - j, 0) : max(n - j, 0)] = coefficients[:, j - 1]
    y, info = dtbtrs(band, rhs, uplo="L", diag="U")
    if info != 0:
        raise np.linalg.LinAlgError(f"banded solve failed with LAPACK info {info}")
    return y


_MeanKernel = namedtuple("_MeanKernel", "means gradient beta_rows")


def _mean_kernel(series: CountSeries, p: int, q: int, r: int, extend: bool = False) -> _MeanKernel:
    """The mean recursion of order ``(p, q, r)`` and its derivatives, with
    their parameter-free half built once.

    The float lag columns ``X_{t-i}``, the covariate columns and the band
    storage of the feedback ``1 - sum_j beta_j B^j`` are built here, and the
    three closures share them.  A fit that evaluates the means many times
    builds this once.  The first ``max(p, q)`` entries of each path are
    pinned to its ``alpha0``, and each closure runs one :func:`_ar_filter`
    solve:

    * ``means(theta)``: for a dynamics vector ``theta = (alpha0, alphas,
      betas, gammas)`` the conditional means M_1..M_n (plus M_{n+1} when
      ``extend``), and for a ``(K, 1 + p + q + r)`` block of such rows a
      ``(K, n)`` block of their means.  The rest filter ``u_t = alpha0 +
      sum_i alpha_i X_{t-i} + sum_k gamma_k z_{t,k}``, all K rows in one
      solve, whose band storage is kept for the largest block seen.
    * ``gradient(theta)``: ``(M, dM/dtheta)`` of a dynamics vector, shapes
      ``(n,)`` and ``(n, k)``.  ``dM`` obeys the recursion's own feedback,
      driven by the columns ``1, X_{t-i}, M_{t-j}, z_t``.
    * ``beta_rows(theta, dm)``: the beta rows of ``d2M/dtheta dtheta``,
      shape ``(n, q, k)``, given ``dm`` from ``gradient``.  ``d2M`` is
      nonzero only in the beta rows and columns; row ``beta_j`` is driven
      through the same feedback by ``dM_{t-j}`` plus, in column ``beta_l``,
      ``dM_{t-l}/dbeta_j``.
    """
    if extend and r:
        raise ValueError("covariates unavailable beyond the sample")
    start = max(p, q)
    total = len(series) + 1 if extend else len(series)
    k = 1 + p + q + r
    columns = []
    if total > start:
        columns = [series.counts[start - i : total - i].astype(float) for i in range(1, p + 1)]
        columns += [np.ascontiguousarray(series.covariates[start:total, c]) for c in range(r)]
    # the row entries of alpha_1..alpha_p and gamma_1..gamma_r, in column order
    slots = [*range(1, p + 1), *range(1 + p + q, k)]
    betas = slice(1 + p, 1 + p + q)
    band = np.zeros((q + 1, total), order="F")

    def solve(rhs: np.ndarray, coefficients) -> np.ndarray:
        nonlocal band
        if band.shape[1] < rhs.shape[0]:
            band = np.zeros((q + 1, rhs.shape[0]), order="F")
        return _ar_filter(rhs, coefficients, start, band[:, : rhs.shape[0]])

    def means(theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        rows = theta.reshape(-1, k)
        u = np.empty((rows.shape[0], total))
        u[:] = rows[:, :1]
        tail = u[:, start:]
        for slot, column in zip(slots, columns):
            tail += rows[:, slot : slot + 1] * column
        y = solve(u.reshape(rows.shape[0] * total), rows[:, betas])
        return y if theta.ndim == 1 else y.reshape(-1, total)

    def gradient(theta):
        theta = np.asarray(theta, dtype=float)
        m = means(theta)
        rhs = np.zeros((total, k))
        rhs[:, 0] = 1.0
        for slot, column in zip(slots, columns):
            rhs[start:, slot] = column
        for j in range(1, q + 1):
            rhs[start:, p + j] = m[start - j : total - j]
        return m, solve(rhs, theta[betas])

    def beta_rows(theta, dm: np.ndarray) -> np.ndarray:
        lagged = np.zeros((total, q, k))
        for j in range(1, q + 1):
            lagged[start:, j - 1] = dm[start - j : total - j]
        lagged[:, :, betas] += lagged[:, :, betas].transpose(0, 2, 1).copy()
        coefficients = np.asarray(theta, dtype=float)[betas]
        return solve(lagged.reshape(total, q * k), coefficients).reshape(total, q, k)

    return _MeanKernel(means, gradient, beta_rows)


def conditional_mean_path(spec: ModelSpec, series: CountSeries) -> np.ndarray:
    """Conditional-mean path ``M_1..M_{n+1}`` given the observed counts.

    The first ``max(p, q)`` values are pinned to ``alpha0``, the
    simulation-study convention that the estimators share.  The final entry
    is the one-step-ahead mean following the last observation; it is omitted
    (the path then has length ``n``) when covariates are present, since the
    next covariate row is unknown.
    """
    if spec.r:
        if series.covariates is None or series.covariates.shape[1] != spec.r:
            raise ValueError(
                f"spec declares {spec.r} covariate coefficients but the series "
                "does not carry matching covariate columns"
            )
    means = _mean_kernel(series, spec.p, spec.q, spec.r, extend=spec.r == 0).means
    return means([spec.alpha0, *spec.alphas, *spec.betas, *spec.gammas])


def conditional_pmf(x: int, m: float, spec: ModelSpec) -> float:
    """One-step conditional probability ``P(X_t = x | M_t = m)``.

    The observation law of ``spec`` from :func:`skellam._log_obs_arr`:
    ``max(0, X*)`` with ``X* ~ Sk*(m, delta)``, where ``x = 0`` collects the
    whole nonpositive mass of the latent variable and ``delta == 0`` is the
    censored-Poisson boundary ``Poi(max(0, m))``.  A bounded spec clips at
    ``N = bound`` (``x = N`` takes the upper tail), refuses ``x > N`` and
    mixes in ``kappa`` on 1: ``(1 - kappa) P + kappa [x = 1]``.
    """
    x = int(x)
    if x < 0:
        raise ValueError(f"counts are nonnegative, got {x}")
    if spec.bound is not None and x > spec.bound:
        raise ValueError(f"x must lie in 0..{spec.bound}, got {x}")
    if not math.isfinite(m):
        raise ValueError(f"conditional mean must be finite, got {m!r}")
    return math.exp(skellam._log_obs_arr(x, m, spec.delta, spec.bound, spec.kappa))


def simulate(
    spec: ModelSpec,
    n: int,
    burn_in: int = 500,
    rng: Optional[np.random.Generator] = None,
    covariates: Optional[np.ndarray] = None,
    warn_nonstationary: bool = True,
) -> CountSeries:
    """Simulate a path of length ``n`` after discarding ``burn_in`` steps.

    Pre-sample conditional means are ``alpha0``.  Pre-sample counts are the
    rounded linear mean ``alpha0 / (1 - sum alpha - sum beta)`` clipped at
    0, or the rounded ``max(0, alpha0)`` when that mean is undefined.
    Covariate rows, required exactly when the spec has covariate
    coefficients, apply to the emitted segment only (the burn-in runs
    covariate-free).  A nonstationary specification triggers a
    warning, not an error.

    Reproducibility contract: a seeded ``rng`` gives the same path on every
    run because the generator is called in a fixed order.  When
    ``delta > 0``, one vector draw of ``burn_in + n`` Poisson(delta/2)
    variates comes first.  Then each step makes one scalar Poisson call, and
    one ``rng.random()`` only when the model is bounded with ``kappa > 0``.
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
    r = spec.r
    if r:
        if covariates is None:
            raise ValueError("spec has covariate coefficients; pass covariates")
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        if covariates.shape != (n, r):
            raise ValueError(f"covariates must have shape ({n}, {r})")
    elif covariates is not None:
        raise ValueError("spec has no covariate coefficients; pass no covariates")
    try:
        x0 = int(round(max(0.0, linear_mean(spec))))
    except ValueError:
        x0 = int(round(max(0.0, spec.alpha0)))
    alpha0, gammas, bound, kappa = spec.alpha0, spec.gammas, spec.bound, spec.kappa
    alpha_lags = [(a, -i) for i, a in enumerate(spec.alphas, start=1)]
    beta_lags = [(b, -j) for j, b in enumerate(spec.betas, start=1)]
    poisson, uniform = rng.poisson, rng.random
    half = 0.5 * spec.delta
    # Sk*(m, delta) as a Poisson difference; the delta/2 component is
    # parameter-free and pre-drawn
    shared = rng.poisson(half, size=burn_in + n).tolist() if spec.delta > 0.0 else None
    xs = [x0] * spec.p  # pre-sample counts, then every drawn count
    ms = [alpha0] * spec.q  # the last q conditional means
    for t in range(burn_in + n):
        m = alpha0
        for a, lag in alpha_lags:
            m += a * xs[lag]
        for b, lag in beta_lags:
            m += b * ms[lag]
        if r and t >= burn_in:
            m += float(np.dot(gammas, covariates[t - burn_in]))
        if shared is not None:
            if m >= 0.0:
                x = poisson(m + half) - shared[t]
            else:
                x = shared[t] - poisson(-m + half)
            if x < 0:
                x = 0
        else:
            x = poisson(m) if m > 0.0 else 0
        if bound is not None:
            if x > bound:
                x = bound
            if kappa > 0.0 and uniform() < kappa:
                x = 1
        xs.append(x)
        if beta_lags:
            ms.append(m)
            del ms[0]
    out = np.array(xs[len(xs) - n :], dtype=np.int64)
    return CountSeries(out, covariates=covariates if r else None)


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


def _transition_matrix(spec: ModelSpec, cap: int) -> np.ndarray:
    """Row-stochastic transition matrix of the STINARCH(1) chain on {0..cap}.

    Row ``i`` is the observation law clipped at ``cap``,
    :func:`skellam._log_obs_arr` at ``M = alpha0 + alpha1 i``: the column
    ``cap`` absorbs the entire upper tail, so the approximation error is
    confined to paths that ever exceed the cap.  Rows are renormalized,
    since their sums deviate from one only by accumulated roundoff.
    """
    states = np.arange(cap + 1)
    means = spec.alpha0 + spec.alphas[0] * states
    T = np.exp(skellam._log_obs_arr(states, means[:, None], spec.delta, cap))
    T /= T.sum(axis=1, keepdims=True)
    return T


def _stationary_distribution(T: np.ndarray) -> np.ndarray:
    """Stationary law by power iteration (L1 tol 1e-13) from the uniform law.

    The rows of :func:`_transition_matrix` have full support, so the chain
    is aperiodic and the iteration converges; a chain on which it does not
    raises ``ArithmeticError``.
    """
    size = T.shape[0]
    pi = np.full(size, 1.0 / size)
    for _ in range(200_000):
        nxt = pi @ T
        if np.abs(nxt - pi).sum() < 1e-13:
            return nxt / nxt.sum()
        pi = nxt
    raise ArithmeticError("stationary distribution did not converge")


def exact_moments_stinarch1(
    spec: ModelSpec,
    max_lag: int = 3,
    state_cap: Optional[int] = None,
) -> MomentSummary:
    """Exact marginal moments of the first-order autoregressive case.

    Builds the one-step transition matrix on a truncated state space,
    solves for the stationary distribution, and reads off mean, variance
    and lag-h autocovariances through matrix powers; the PACF follows by
    Durbin-Levinson.  The cap grows by doubling until the stationary mass
    on the top three states falls below 1e-12.
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
        if pi[-3:].sum() < 1e-12:
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
) -> MomentSummary:
    """Sample moments from one simulated path of length ``n``, after a
    burn-in of 10,000 steps."""
    from .diagnostics import sample_acf_pacf

    series = simulate(spec, n, burn_in=10_000, rng=rng)
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
