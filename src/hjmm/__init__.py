"""Forward-rate solver and simulator for jump-driven term-structure models.

The package classifies Levy noise specifications into existence and
explosion regimes, simulates driving jump paths, solves the forward-rate
fixed-point equation by monotone iteration on a uniform grid, derives
bond prices, and validates solutions with martingale Monte Carlo and
strong-form residual checks.
"""

from .curves import (InitialCurve, affine_curve, constant_curve,
                     exp_decay_curve, table_curve)
from .errors import (ConfigError, DomainError, HjmmError, NonIntegrable,
                     NonPositiveFactor, NonPositiveInitialCurve,
                     NotTimeOnly, SecondMomentInfinite,
                     UnsupportedSpec)
from .grids import GridSpec, RateField, flat_extend
from .levy import (AssumptionReport, GrowthClassification, LevyModelSpec,
                   Rule, Verdict, check_assumptions, classify_growth,
                   drift_only, exponent, exponent_derivative,
                   fast_derivative, gamma_subordinator, log_growth_profile)
from .market import (BondSurface, MartingaleReport, bond_surface,
                     default_checkpoints, drift_identity_check,
                     martingale_test)
from .measures import (GammaLike, MeasureFamily, PointMasses, StableLike,
                       UserDensity)
from .paths import JumpPath, field_a, field_b, simulate_path
from .solver import (ContractionReport, SolverReport, StrongResidualReport,
                     apply_K, apriori_bound, solve_fixed_point,
                     strong_residual, timeline_norm,
                     uniqueness_contraction_check, weighted_norms)
from .volatility import (VolatilitySpec, constant_volatility,
                         grid_violations, time_affine_volatility)
from .config import RunConfig, load_config, parse_config
from .verification import VerificationReport, run_all

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "BondSurface", "ConfigError", "ContractionReport",
    "DomainError", "GammaLike", "GridSpec", "GrowthClassification",
    "HjmmError", "InitialCurve", "JumpPath", "LevyModelSpec",
    "MartingaleReport", "MeasureFamily", "NonIntegrable",
    "NonPositiveFactor", "NonPositiveInitialCurve", "NotTimeOnly",
    "PointMasses", "RateField", "Rule", "RunConfig",
    "SecondMomentInfinite", "SolverReport", "StableLike",
    "StrongResidualReport", "UnsupportedSpec", "UserDensity",
    "VerificationReport", "Verdict", "VolatilitySpec", "affine_curve",
    "apply_K", "apriori_bound", "bond_surface", "check_assumptions",
    "classify_growth", "constant_curve", "constant_volatility",
    "default_checkpoints", "drift_identity_check", "drift_only",
    "exp_decay_curve", "exponent", "exponent_derivative", "fast_derivative",
    "field_a", "field_b", "flat_extend", "gamma_subordinator",
    "grid_violations", "load_config", "log_growth_profile",
    "martingale_test", "parse_config", "run_all", "simulate_path",
    "solve_fixed_point", "strong_residual", "table_curve",
    "time_affine_volatility", "timeline_norm",
    "uniqueness_contraction_check", "weighted_norms",
]
