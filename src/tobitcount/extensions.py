"""Model variants beyond the unbounded STINGARCH core.

* Poisson Tobit INARS(1): signed binomial thinning plus Poisson innovations,
  censored at zero, with transition-probability likelihood.
* Skellam Tobit bounded INGARCH (STBINGARCH): the latent variable is clipped
  into {0..N} and the conditional law may carry extra one-inflation mass.
* Covariate augmentation of the conditional-mean recursion (the pure
  regression case p = q = 0 included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from . import skellam
from .estimation import (
    EstimationScenario,
    FitResult,
    _mean_path,
    _nelder_mead,
    _orders,
    _param_names,
    _se_from_loglik_hessian,
    _stationarity_violation,
    numerical_hessian,
)
from .specialfn import _log_factorials
from .stingarch import CountSeries, ModelSpec

__all__ = [
    "TinarsSpec",
    "signed_binomial_thinning",
    "simulate_tinars1",
    "tinars1_transition",
    "tinars_conditional_moments",
    "fit_tinars1_mle",
    "stbingarch_conditional_pmf",
    "stbingarch_conditional_moments",
    "fit_stbingarch_mle",
    "covariate_design",
]

_PENALTY = 1e12


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


def _poisson_log_pmf(k: np.ndarray, rate: float) -> np.ndarray:
    lf = _log_factorials(int(k.max(initial=0)))
    with np.errstate(divide="ignore"):
        return -rate + k * math.log(rate) - lf[k]


def _binomial_pmf_vector(n: int, prob: float) -> np.ndarray:
    """PMF of Bin(n, prob) on 0..n (stable for the small n arising here)."""
    if n == 0:
        return np.ones(1)
    lf = _log_factorials(n)
    j = np.arange(n + 1)
    if prob == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    logs = (
        lf[n]
        - lf[j]
        - lf[n - j]
        + j * math.log(prob)
        + (n - j) * math.log1p(-prob)
    )
    return np.exp(logs)


def tinars1_transition(x_next: int, x_prev: int, spec: TinarsSpec) -> float:
    """Markov transition probability ``P(X_t = x_next | X_{t-1} = x_prev)``.

    For a positive target the thinning outcome is convolved with the
    Poisson innovation; the zero state collects the innovation mass at or
    below the negated thinning outcome (empty for positive ``alpha1`` and
    ``j >= 1``, taken literally).
    """
    x_next, x_prev = int(x_next), int(x_prev)
    if x_next < 0 or x_prev < 0:
        raise ValueError("counts are nonnegative")
    rate = spec.innovation_mean
    sgn_a = _sgn(spec.alpha1)
    bin_w = _binomial_pmf_vector(x_prev, abs(spec.alpha1))
    j = np.arange(x_prev + 1)
    if x_next > 0:
        eps = x_next - sgn_a * j
        valid = eps >= 0
        if not np.any(valid):
            return 0.0
        logs = _poisson_log_pmf(eps[valid].astype(np.int64), rate)
        return float(np.sum(bin_w[valid] * np.exp(logs)))
    # x_next == 0: innovation must not lift the thinned value above zero
    cut = -sgn_a * j
    total = 0.0
    for weight, c in zip(bin_w, cut):
        if c < 0:
            continue
        ks = np.arange(c + 1, dtype=np.int64)
        total += weight * float(np.exp(_poisson_log_pmf(ks, rate)).sum())
    return total


def _tinars_row(x_prev: int, spec: TinarsSpec, tail_tol: float = 1e-14) -> np.ndarray:
    """Transition row from ``x_prev`` truncated once the upper tail is negligible."""
    cap = int(
        math.ceil(
            spec.innovation_mean
            + x_prev
            + 12.0 * math.sqrt(spec.innovation_mean + x_prev + 1.0)
        )
    ) + 10
    row = np.array([tinars1_transition(y, x_prev, spec) for y in range(cap + 1)])
    if 1.0 - row.sum() > tail_tol * 10:
        raise ArithmeticError("transition row truncation left too much mass")
    return row


def tinars_conditional_moments(
    spec: TinarsSpec, x_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and variance by truncated transition summation."""
    x_prev = np.asarray(x_prev, dtype=np.int64)
    cache: dict[int, tuple[float, float]] = {}
    means = np.empty(x_prev.shape[0])
    variances = np.empty(x_prev.shape[0])
    for t, xp in enumerate(x_prev):
        xp = int(xp)
        if xp not in cache:
            row = _tinars_row(xp, spec)
            ys = np.arange(row.shape[0], dtype=float)
            mean = float(row @ ys)
            var = float(row @ ys**2) - mean * mean
            cache[xp] = (mean, var)
        means[t], variances[t] = cache[xp]
    return means, variances


def _transition_pair_counts(x: np.ndarray) -> dict[tuple[int, int], int]:
    pairs: dict[tuple[int, int], int] = {}
    for prev, nxt in zip(x[:-1], x[1:]):
        key = (int(prev), int(nxt))
        pairs[key] = pairs.get(key, 0) + 1
    return pairs


def _tinars_loglik_pairs(
    spec: TinarsSpec, pairs: dict[tuple[int, int], int]
) -> float:
    """Conditional log-likelihood of the Markov chain given ``X_1``.

    The sample visits few distinct ``(previous, next)`` pairs, so each
    transition probability is computed once per evaluation.
    """
    total = 0.0
    for (prev, nxt), count in pairs.items():
        prob = tinars1_transition(nxt, prev, spec)
        if prob <= 0.0:
            return -math.inf
        total += count * math.log(prob)
    return total


def fit_tinars1_mle(series: CountSeries) -> FitResult:
    """Conditional MLE of the Tobit INARS(1) model.

    The search runs on ``(log innovation_mean, atanh alpha1)`` so both
    constraints are automatic; standard errors come from the numerical
    Hessian in the natural parametrization.
    """
    x = series.counts
    n = len(series)
    if n < 3:
        raise ValueError("series too short")

    pairs = _transition_pair_counts(x)

    def natural(internal: np.ndarray) -> TinarsSpec:
        return TinarsSpec(
            alpha1=math.tanh(internal[1]), innovation_mean=math.exp(internal[0])
        )

    def objective(internal: np.ndarray) -> float:
        value = _tinars_loglik_pairs(natural(internal), pairs)
        return -value if math.isfinite(value) else _PENALTY

    from .diagnostics import sample_acf

    rho1 = float(np.clip(sample_acf(x.astype(float), 1)[0], -0.9, 0.9)) if x.std() else 0.0
    mean0 = max(float(x.mean()) * (1.0 - rho1), 0.1)
    x0 = np.array([math.log(mean0), math.atanh(rho1)])
    res = _nelder_mead(objective, x0)
    res = _nelder_mead(objective, res.x)
    spec_hat = natural(res.x)
    theta_hat = np.array([spec_hat.innovation_mean, spec_hat.alpha1])
    ll = -res.fun

    def natural_loglik(theta: np.ndarray) -> float:
        return _tinars_loglik_pairs(
            TinarsSpec(alpha1=theta[1], innovation_mean=theta[0]), pairs
        )

    steps = np.array(
        [
            min(1e-4 * (1.0 + theta_hat[0]), theta_hat[0] / 3.0),
            min(1e-4, (1.0 - abs(theta_hat[1])) / 3.0),
        ]
    )
    try:
        hess = numerical_hessian(natural_loglik, theta_hat, steps=steps)
        std_errors, invertible = _se_from_loglik_hessian(hess)
    except (np.linalg.LinAlgError, ValueError, ArithmeticError):
        std_errors, invertible = None, False
    from .diagnostics import information_criteria

    aic, bic = information_criteria(ll, 2, n - 1)
    return FitResult(
        estimates=theta_hat,
        param_names=("innovation_mean", "alpha1"),
        method="mle-tinars1",
        converged=bool(res.success),
        iterations=int(res.nit),
        n_effective=n - 1,
        spec=None,
        std_errors=std_errors,
        loglik=ll,
        aic=aic,
        bic=bic,
        hessian_invertible=invertible,
    )


# ---------------------------------------------------------------------------
# bounded one-inflated model
# ---------------------------------------------------------------------------


def stbingarch_conditional_pmf(x: int, m: float, spec: ModelSpec) -> float:
    """Conditional law on {0..N}: one-inflation mixed with the clipped latent law.

    ``kappa`` puts extra mass on 1; the remaining weight follows
    ``min(N, max(0, X*))`` with ``X* ~ Sk*(m, delta)``.
    """
    if spec.bound is None:
        raise ValueError("spec has no upper bound")
    bound = spec.bound
    x = int(x)
    if x < 0 or x > bound:
        raise ValueError(f"x must lie in 0..{bound}, got {x}")
    kappa = spec.kappa if spec.kappa is not None else 0.0
    params = skellam.SkellamStar(m, spec.delta).to_params()
    if x == 0:
        base = skellam.cdf(0, params)
    elif x == bound:
        base = float(skellam._survival_arr(bound, np.array([m]), spec.delta)[0])
    else:
        base = skellam.pmf(x, params)
    return kappa * (1.0 if x == 1 else 0.0) + (1.0 - kappa) * base


def stbingarch_conditional_moments(
    m_path: np.ndarray, spec: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean/variance of the bounded law by finite summation."""
    bound = spec.bound
    kappa = spec.kappa if spec.kappa is not None else 0.0
    m_path = np.asarray(m_path, dtype=float)
    support = np.arange(bound + 1, dtype=float)
    probs = np.empty((m_path.shape[0], bound + 1))
    probs[:, 0] = skellam._cdf0_arr(m_path, spec.delta)
    if bound >= 2:
        mids = np.arange(1, bound)
        probs[:, 1:bound] = np.exp(
            skellam._log_pmf_arr(mids[None, :], m_path[:, None], spec.delta)
        )
    probs[:, bound] = skellam._survival_arr(bound, m_path, spec.delta)
    probs *= 1.0 - kappa
    probs[:, 1] += kappa
    means = probs @ support
    variances = probs @ support**2 - means**2
    return means, np.maximum(variances, 0.0)


def _stbingarch_loglik(
    theta_dyn: np.ndarray,
    kappa: float,
    series: CountSeries,
    p: int,
    q: int,
    r: int,
    bound: int,
    delta: float,
) -> float:
    scenario = EstimationScenario.fixed(delta)
    m = _mean_path(theta_dyn, series, p, q, r, scenario)
    start = max(p, q)
    x = series.counts[start:]
    m = m[start:]
    base = np.empty(x.shape[0])
    at_zero = x == 0
    at_bound = x == bound
    mid = ~at_zero & ~at_bound
    if np.any(at_zero):
        base[at_zero] = skellam._cdf0_arr(m[at_zero], delta)
    if np.any(at_bound):
        base[at_bound] = skellam._survival_arr(bound, m[at_bound], delta)
    if np.any(mid):
        base[mid] = np.exp(skellam._log_pmf_arr(x[mid], m[mid], delta))
    lik = (1.0 - kappa) * base + kappa * (x == 1)
    if np.any(lik <= 0.0):
        return -math.inf
    return float(np.log(lik).sum())


def fit_stbingarch_mle(
    series: CountSeries,
    orders=(1, 1),
    bound: int = 5,
    delta: float = 0.01,
) -> FitResult:
    """Scenario-1 MLE of the bounded one-inflated model.

    Optimizes the dynamics plus the one-inflation weight, the latter on the
    logit scale; a logit below -12 is reported as the boundary value
    ``kappa = 0``.  Standard errors come from the numerical Hessian in the
    natural parametrization (suppressed at the kappa boundary).
    """
    p, q, r = _orders(orders, series)
    if np.any(series.counts > bound):
        raise ValueError("series exceeds the declared bound")
    n = len(series)
    n_eff = n - max(p, q)
    bound = int(bound)
    from .estimation import _moment_start

    start_dyn = _moment_start(series, p, q, r)
    x0 = np.concatenate([start_dyn, [math.log(0.1 / 0.9)]])
    k_dyn = start_dyn.shape[0]

    def objective(internal: np.ndarray) -> float:
        violation = _stationarity_violation(internal[:k_dyn], p, q)
        if violation >= 0.0:
            return _PENALTY * (1.0 + violation)
        kappa = 1.0 / (1.0 + math.exp(-internal[-1]))
        value = _stbingarch_loglik(
            internal[:k_dyn], kappa, series, p, q, r, bound, delta
        )
        return -value if math.isfinite(value) else _PENALTY

    res = _nelder_mead(objective, x0)
    res = _nelder_mead(objective, res.x)
    logit_kappa = res.x[-1]
    kappa_hat = 0.0 if logit_kappa < -12.0 else 1.0 / (1.0 + math.exp(-logit_kappa))
    theta_hat = np.concatenate([res.x[:k_dyn], [kappa_hat]])
    ll = -res.fun

    def natural_loglik(theta: np.ndarray) -> float:
        return _stbingarch_loglik(
            theta[:k_dyn], theta[-1], series, p, q, r, bound, delta
        )

    std_errors = None
    invertible = False
    if kappa_hat > 1e-5:
        steps = 1e-4 * (1.0 + np.abs(theta_hat))
        steps[-1] = min(steps[-1], kappa_hat / 3.0, (1.0 - kappa_hat) / 3.0)
        try:
            hess = numerical_hessian(natural_loglik, theta_hat, steps=steps)
            std_errors, invertible = _se_from_loglik_hessian(hess)
        except (np.linalg.LinAlgError, ValueError, ArithmeticError):
            std_errors, invertible = None, False
    from .diagnostics import information_criteria

    k_free = k_dyn + 1
    aic, bic = information_criteria(ll, k_free, n_eff)
    names = _param_names(p, q, r, with_delta=False) + ("kappa",)
    alphas = tuple(theta_hat[1 : 1 + p])
    betas = tuple(theta_hat[1 + p : 1 + p + q])
    return FitResult(
        estimates=theta_hat,
        param_names=names,
        method="mle-stbingarch",
        converged=bool(res.success),
        iterations=int(res.nit),
        n_effective=n_eff,
        spec=ModelSpec(
            alpha0=float(theta_hat[0]),
            alphas=alphas,
            betas=betas,
            delta=delta,
            bound=int(bound),
            kappa=float(kappa_hat),
        ),
        std_errors=std_errors,
        loglik=ll,
        aic=aic,
        bic=bic,
        hessian_invertible=invertible,
    )


def covariate_design(series: CountSeries, covariates) -> CountSeries:
    """Attach (and validate) covariate columns to a count series.

    The augmented series feeds every estimator; with ``p = q = 0`` this is
    the pure Tobit count regression case.
    """
    z = np.asarray(covariates, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if z.shape[0] != len(series):
        raise ValueError(
            f"covariate rows ({z.shape[0]}) do not match series length ({len(series)})"
        )
    return CountSeries(series.counts, covariates=z)
