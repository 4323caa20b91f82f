"""Tobit-censored count time series models.

Unbounded counts follow the Skellam-Tobit INGARCH construction (a latent
signed-integer variable with a linear conditional-mean recursion, censored
at zero); extensions cover signed-thinning autoregressions, bounded counts
with one-inflation, and covariate regression.  The package provides the
special-function layer, the Skellam distribution and its censored moments,
simulation, three estimators, diagnostics, and a batch CLI.
"""

from .diagnostics import (
    ResidualReport,
    information_criteria,
    pearson_residuals,
    sample_acf_pacf,
)
from .estimation import (
    EstimationScenario,
    FitResult,
    MCStudyResult,
    analytic_score_hessian,
    fit_clade,
    fit_cls,
    fit_mle,
    information_matrices,
    loglik,
    mc_study,
)
from .extensions import (
    TinarsSpec,
    fit_stbingarch_mle,
    fit_tinars1_mle,
    signed_binomial_thinning,
    simulate_tinars1,
    tinars1_transition,
)
from .skellam import (
    CensoredMoments,
    SkellamParams,
    SkellamStar,
    censored_moments,
)
from .stingarch import (
    CountSeries,
    ModelSpec,
    MomentSummary,
    check_stationarity,
    conditional_mean_path,
    conditional_pmf,
    exact_moments_stinarch1,
    linear_approx_moments,
    simulate,
    simulated_moments,
)

__version__ = "0.1.0"

__all__ = [
    "CensoredMoments",
    "CountSeries",
    "EstimationScenario",
    "FitResult",
    "MCStudyResult",
    "ModelSpec",
    "MomentSummary",
    "ResidualReport",
    "SkellamParams",
    "SkellamStar",
    "TinarsSpec",
    "analytic_score_hessian",
    "censored_moments",
    "check_stationarity",
    "conditional_mean_path",
    "conditional_pmf",
    "exact_moments_stinarch1",
    "fit_clade",
    "fit_cls",
    "fit_mle",
    "fit_stbingarch_mle",
    "fit_tinars1_mle",
    "information_criteria",
    "information_matrices",
    "linear_approx_moments",
    "loglik",
    "mc_study",
    "pearson_residuals",
    "sample_acf_pacf",
    "signed_binomial_thinning",
    "simulate",
    "simulate_tinars1",
    "simulated_moments",
    "tinars1_transition",
]
