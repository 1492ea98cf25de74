"""Invariant suites bundled behind the verify command."""

import dataclasses

import pytest

from hjmm.config import parse_config
from hjmm.levy import LevyModelSpec
from hjmm.measures import PointMasses
from hjmm.solver import solve_path, uniqueness_contraction_check
from hjmm.verification import (
    run_all,
    suite_exponent_monotone,
    suite_jump_factor_positive,
    suite_monotone_iterates,
    suite_norm_embeddings,
    suite_strong_residual,
    suite_two_start,
)
from hjmm.volatility import VolatilitySpec, constant_term, exp_decay_term


def _config(vol_terms=None, levy=None):
    doc = {
        "version": 1,
        "levy": {
            "drift_a": "subordinator",
            "measure": {"family": "gamma_like", "c": 0.5, "beta": 2.0},
        },
        "volatility": {
            "terms": vol_terms or [{"kind": "constant", "level": 0.2}],
        },
        "initial_curve": {"family": "exponential_decay", "level": 0.08,
                          "rate": 0.4},
        "grid": {"delta": 0.125, "t_star": 1.0, "t_max": 2.0, "gamma": 1.0},
    }
    if levy is not None:
        doc["levy"] = levy
    return parse_config(doc)


@pytest.fixture(scope="module")
def base_config():
    return _config()


def test_monotone_iterates_suite(base_config) -> None:
    result = suite_monotone_iterates(base_config, seed=0)
    assert result.passed
    assert result.details["min_increment"] >= -1e-12


def test_norm_embeddings_suite(base_config) -> None:
    result = suite_norm_embeddings(base_config, seed=0)
    assert result.passed
    assert result.details["failures"] == 0
    assert result.details["worst_margin"] >= -1e-12


def test_exponent_monotone_suite(base_config) -> None:
    result = suite_exponent_monotone(base_config)
    assert result.passed
    assert result.details["fast_vs_quadrature_rel"] < 1e-8


def test_jump_factor_suite(base_config) -> None:
    result = suite_jump_factor_positive(base_config, seed=0)
    assert result.passed
    assert result.details["min_b"] > 0.0


def test_strong_residual_suite(base_config) -> None:
    result = suite_strong_residual(base_config, seed=0)
    assert result.passed
    assert result.details["ratio"] >= 1.5


@pytest.mark.parametrize("terms", [
    [{"kind": "exp_decay", "level": 0.2, "rate": 0.3}],
    [{"kind": "constant", "level": 0.1},
     {"kind": "exp_decay", "level": 0.15, "rate": 0.5}],
], ids=["exp_decay", "constant+exp_decay"])
def test_strong_residual_runs_for_maturity_dependent_volatility(terms) -> None:
    config = _config(vol_terms=terms)
    assert not config.volatility.time_only
    result = suite_strong_residual(config, seed=0)
    assert result.passed and not result.note
    assert result.details["ratio"] >= 1.5
    assert result.details["jump_relation_max_error"] < 1e-10
    report = run_all(config, seed=0)
    assert report.all_passed
    assert not any(s.note for s in report.suites)


def test_hand_built_constant_volatility_gets_the_strong_suite() -> None:
    # built from constant terms, with no word about time-only: its
    # maturity factors are unit_factor, so the strong form applies
    config = dataclasses.replace(_config(), volatility=VolatilitySpec(
        terms=(constant_term(0.2),), lambda_lower=0.2, lambda_upper=0.2))
    assert config.volatility.time_only
    result = suite_strong_residual(config, seed=0)
    assert result.passed and not result.note
    assert result.details["ratio"] >= 1.5
    report = run_all(config, seed=0)
    assert report.all_passed
    strong, = (s for s in report.suites if s.name == "strong_residual")
    assert not strong.note


def test_two_start_suite(base_config) -> None:
    result = suite_two_start(base_config, seed=0)
    assert result.passed
    assert result.details["sup_distance"] < 1e-6


def test_two_start_gronwall_constant_takes_the_path_b_sup(base_config) -> None:
    _, b, _, report = solve_path(base_config.levy, base_config.volatility,
                                 base_config.curve, base_config.grid,
                                 [0, 3000], base_config.mc["eps"],
                                 **base_config.solver)
    b_sup = float(b.max())
    assert b_sup > 1.0
    check = uniqueness_contraction_check(
        report.final_field, report.final_field, base_config.levy,
        base_config.volatility, base_config.grid, b_sup=b_sup)
    result = suite_two_start(base_config, seed=0)
    assert result.details["gronwall_constant"] == pytest.approx(
        check.k_constant, rel=1e-12)


def test_run_all_aggregates(base_config) -> None:
    report = run_all(base_config, seed=0)
    assert report.all_passed
    names = [s.name for s in report.suites]
    assert len(names) == len(set(names))
    assert len(names) == 6


def test_run_all_skips_path_suites_for_a_gaussian_part() -> None:
    config = _config(levy={
        "drift_a": 0.0, "gaussian_q": 0.01,
        "measure": {"family": "gamma_like", "c": 0.5, "beta": 2.0}})
    report = run_all(config, seed=0)
    assert report.all_passed
    notes = {s.name: s.note for s in report.suites}
    skipped = ("skipped: simulation is restricted to drivers without a "
               "Gaussian part")
    for name in ("monotone_iterates", "jump_factor_positive",
                 "strong_residual", "two_start"):
        assert notes[name] == skipped
    assert notes["norm_embeddings"] == notes["exponent_monotone"] == ""


def test_run_all_fails_a_non_positive_jump_factor() -> None:
    # lambda(t, 0) = 0.25 - 1.35 = -1.1 (bounds not checked on a hand-built
    # config), so every jump of size 3 drives 1 + lambda*dL below zero
    config = dataclasses.replace(
        _config(),
        levy=LevyModelSpec(0.0, 0.0, PointMasses([(3.0, 5.0)])),
        volatility=VolatilitySpec(
            terms=(constant_term(0.25), exp_decay_term(-1.35, 40.0)),
            lambda_lower=0.01, lambda_upper=0.25))
    result = suite_jump_factor_positive(config, seed=0)
    assert not result.passed
    assert result.note.startswith("jump at t=")
    report = run_all(config, seed=0)
    assert not report.all_passed
    results = {s.name: s for s in report.suites}
    for name in ("monotone_iterates", "jump_factor_positive", "two_start"):
        assert not results[name].passed
        assert "drives a factor 1+lambda*dL to zero or below" in results[name].note
