"""Variance-minimizing offsets for asymmetric piecewise-linear loss.

When forecast errors are symmetric with a central peak but the cost of
overshooting differs from the cost of undershooting, a deliberate offset
added to every forecast lowers the expected cost -- and, less obviously,
the variance of the cost as well.  This package computes that offset,
prices both effects, and numerically certifies the inequality chain that
guarantees the variance never goes the wrong way.
"""

from .distributions import (
    SAMPLE_CHUNK,
    AssumptionDiagnostics,
    EmpiricalSymmetric,
    ErrorDistribution,
    Gaussian,
    GeneralizedGaussian,
    Laplace,
    MomentTable,
    Uniform,
    fit_empirical,
)
from .errors import (
    CrossCheckError,
    DegenerateDistributionError,
    DomainError,
    InsufficientDataError,
    NumericError,
    RangeError,
)
from .inequalities import (
    MARGIN_TOL,
    ExtremalBound,
    InequalityReport,
    alpha,
    beta,
    d_beta,
    extremal_bound,
    ggd_inequality_lhs,
    sweep,
    sweep_eq1,
)
from .loss_model import (
    LossParams,
    d_expected_loss,
    expected_loss,
    expected_loss_sq,
    loss,
    variance_of_loss,
)
from .montecarlo import McEstimate, estimate_loss_stats
from .solver import OffsetSolution, SavingsReport, savings_report, solve_offset

__version__ = "0.1.0"

__all__ = [
    "SAMPLE_CHUNK",
    "MARGIN_TOL",
    "AssumptionDiagnostics",
    "CrossCheckError",
    "DegenerateDistributionError",
    "DomainError",
    "EmpiricalSymmetric",
    "ErrorDistribution",
    "ExtremalBound",
    "Gaussian",
    "GeneralizedGaussian",
    "InequalityReport",
    "InsufficientDataError",
    "Laplace",
    "LossParams",
    "McEstimate",
    "MomentTable",
    "NumericError",
    "OffsetSolution",
    "RangeError",
    "SavingsReport",
    "Uniform",
    "alpha",
    "beta",
    "d_beta",
    "d_expected_loss",
    "estimate_loss_stats",
    "expected_loss",
    "expected_loss_sq",
    "extremal_bound",
    "fit_empirical",
    "ggd_inequality_lhs",
    "loss",
    "savings_report",
    "solve_offset",
    "sweep",
    "sweep_eq1",
    "variance_of_loss",
]
