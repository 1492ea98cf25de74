"""The public names of hjmm: exactly these, each resolving and documented.

The classes that carry a run's data keep exactly the public methods and
properties listed here, so a helper cannot come back unnoticed.
"""

import dataclasses

import pytest

import hjmm

PUBLIC_NAMES = {
    "AssumptionReport", "BondSurface", "ConfigError", "ContractionReport",
    "DomainError", "GammaLike", "GridSpec", "GrowthClassification",
    "HjmmError", "InitialCurve", "JumpPath", "LevyModelSpec",
    "MartingaleReport", "MeasureFamily", "NonIntegrable",
    "NonPositiveFactor", "NonPositiveInitialCurve", "PointMasses",
    "RateField", "Rule", "RunConfig",
    "SecondMomentInfinite", "SolverReport", "StableLike",
    "StrongResidualReport", "UnsupportedSpec", "UserDensity", "Verdict",
    "VerificationReport", "VolatilitySpec", "affine_curve", "apply_K",
    "apriori_bound", "bond_surface", "check_assumptions",
    "classify_growth", "constant_curve", "constant_volatility",
    "default_checkpoints", "drift_identity_check", "drift_only",
    "exp_decay_curve", "exponent", "exponent_derivative",
    "fast_derivative", "field_a", "field_b", "flat_extend",
    "gamma_subordinator", "grid_violations", "load_config",
    "log_growth_profile", "martingale_test", "parse_config", "run_all",
    "simulate_path", "solve_fixed_point", "strong_residual", "table_curve",
    "time_affine_volatility", "timeline_norm",
    "uniqueness_contraction_check", "weighted_norms",
}

# public methods and properties, dataclass fields aside
PUBLIC_MEMBERS = {
    "BondSurface": set(),
    "JumpPath": {"n_jumps"},
    "RateField": {"musiela_slice", "short_rates", "x_nodes"},
    "VolatilitySpec": {"matrix", "on_grid", "time_only"},
}


def test_all_lists_exactly_the_public_names() -> None:
    assert len(hjmm.__all__) == len(set(hjmm.__all__)) == 63
    assert set(hjmm.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves_and_has_a_docstring() -> None:
    undocumented = []
    for name in hjmm.__all__:
        doc = getattr(hjmm, name).__doc__
        # a dataclass without a docstring gets its signature as __doc__
        if not doc or not doc.strip() or doc.startswith(name + "("):
            undocumented.append(name)
    assert not undocumented


@pytest.mark.parametrize("name", sorted(PUBLIC_MEMBERS))
def test_data_classes_keep_exactly_their_public_members(name) -> None:
    cls = getattr(hjmm, name)
    fields = {field.name for field in dataclasses.fields(cls)}
    members = {member for member in dir(cls)
               if not member.startswith("_") and member not in fields}
    assert members == PUBLIC_MEMBERS[name]
