"""The one policy for numeric arguments: errors.positive, nonnegative and
integer, and the public entries that check their numbers with them."""

import math
import re

import numpy as np
import pytest

from hjmm import (GammaLike, GridSpec, JumpPath, LevyModelSpec, PointMasses,
                  RateField, StableLike, UserDensity, VolatilitySpec,
                  apriori_bound, classify_growth, constant_curve,
                  constant_volatility, drift_only, exp_decay_curve, exponent,
                  exponent_derivative, field_a, gamma_subordinator,
                  log_growth_profile, martingale_test, simulate_path,
                  solve_fixed_point, time_affine_volatility, timeline_norm,
                  uniqueness_contraction_check)
from hjmm.errors import DomainError, integer, nonnegative, positive
from hjmm.volatility import constant_term

NAN, INF = math.nan, math.inf
_GRID = GridSpec(0.5, 1.0, 1.0, 1.0)
_SPEC = drift_only(1.0)
_GAMMA = gamma_subordinator(0.5, 2.0)
_VOL = constant_volatility(0.2)
_CURVE = constant_curve(0.05)
_ONES = np.ones(_GRID.shape)
_U = np.array([0.25, 0.5])
_RAGGED = [[1.0, 2.0, 3.0], [1.0, 2.0]]


def _solve(**controls):
    return solve_fixed_point(_ONES, _VOL, _SPEC, _GRID, **controls)


def _martingale(**counts):
    return martingale_test(_SPEC, _VOL, _CURVE, _GRID,
                           **{"n_paths": 4, "master_seed": 0} | counts)


def _uniqueness(b_sup=1.0, **n_iter):
    field = RateField(_ONES, _GRID)
    return uniqueness_contraction_check(field, field, _SPEC, _VOL, _GRID,
                                        b_sup=b_sup, **n_iter)


# id: (call, the argument its message must name)
CASES = {
    # each of these eight misbehaved before the policy: the curves and
    # jump sizes took NaN or inf, refine(0) divided by zero, refine(2.5)
    # built a grid whose nodes miss the original's, and a ragged list
    # failed inside numpy
    "constant_curve-level-nan": (lambda: constant_curve(NAN), "level"),
    "constant_curve-level-inf": (lambda: constant_curve(INF), "level"),
    "exp_decay_curve-rate-nan": (lambda: exp_decay_curve(1.0, NAN), "rate"),
    "GammaLike.jump_sizes-eps-nan": (
        lambda: GammaLike(0.5, 2.0).jump_sizes(_U, NAN),
        "truncation level eps"),
    "StableLike.jump_sizes-eps-nan": (
        lambda: StableLike(1.0, 1.5, 1.0).jump_sizes(_U, NAN),
        "truncation level"),
    "refine-factor-0": (lambda: _GRID.refine(0), "factor"),
    "refine-factor-2.5": (lambda: _GRID.refine(2.5), "factor"),
    "check_field-ragged": (lambda: _GRID.check_field(_RAGGED), "field"),
    # these five misbehaved too: n_iter = 0 passed vacuously and 2.5
    # failed inside range, the NaN end of an affine volatility was
    # dropped, and the log-growth profile took any t_star
    "uniqueness_contraction_check-n_iter-0": (lambda: _uniqueness(n_iter=0),
                                              "n_iter"),
    "uniqueness_contraction_check-n_iter-2.5": (
        lambda: _uniqueness(n_iter=2.5), "n_iter"),
    "time_affine_volatility-t_star-nan": (
        lambda: time_affine_volatility(0.2, 0.1, NAN), "t_star"),
    "log_growth_profile-t_star-nan": (
        lambda: log_growth_profile(_SPEC, 1.0, NAN, _U), "t_star"),
    "log_growth_profile-t_star-negative": (
        lambda: log_growth_profile(_SPEC, 1.0, -1.0, _U), "t_star"),
    # a NaN y gave NaN from these two families and 0 from point masses;
    # a user density raised already
    "GammaLike.tail_mass-y-nan": (
        lambda: GammaLike(0.5, 2.0).tail_mass(NAN), "y"),
    "StableLike.tail_mass-y-nan": (
        lambda: StableLike(1.0, 1.5, 1.0).tail_mass(NAN), "y"),
    "PointMasses.tail_mass-y-nan": (
        lambda: PointMasses([(0.5, 1.0)]).tail_mass(NAN), "y"),
    "UserDensity.tail_mass-y-nan": (
        lambda: UserDensity(density_fn=lambda y: np.exp(-2.0 * y) / y)
        .tail_mass(NAN), "truncation level"),
    # the other entries
    "field_a-ragged": (lambda: field_a(_CURVE, _RAGGED, _GRID), "field"),
    "RateField-ragged": (lambda: RateField(_RAGGED, _GRID), "field"),
    "timeline_norm-ragged": (lambda: timeline_norm(_RAGGED, _GRID), "field"),
    "solve_fixed_point-ragged": (
        lambda: solve_fixed_point(_RAGGED, _VOL, _SPEC, _GRID), "field"),
    "refine-factor-bool": (lambda: _GRID.refine(True), "factor"),
    "GridSpec-delta-nan": (lambda: GridSpec(NAN, 1.0, 1.0, 1.0), "delta"),
    "GridSpec-gamma-0": (lambda: GridSpec(0.5, 1.0, 1.0, 0.0), "gamma"),
    "constant_curve-level-0": (lambda: constant_curve(0.0), "level"),
    "exp_decay_curve-level-negative": (lambda: exp_decay_curve(-1.0, 0.4),
                                       "level"),
    "exp_decay_curve-rate-negative": (lambda: exp_decay_curve(1.0, -0.1),
                                      "rate"),
    "constant_volatility-level-nan": (lambda: constant_volatility(NAN),
                                      "level"),
    "VolatilitySpec-x_derivative_bound-nan": (
        lambda: VolatilitySpec((constant_term(0.2),), 0.2, 0.2, NAN),
        "x_derivative_bound"),
    "PointMasses-mass-nan": (lambda: PointMasses([(0.5, NAN)]), "atom mass"),
    "StableLike-c-negative": (lambda: StableLike(-1.0, 1.5), "c"),
    "StableLike-alpha-nan": (lambda: StableLike(1.0, NAN), "alpha"),
    "StableLike-alpha-2": (lambda: StableLike(1.0, 2.0), "alpha"),
    "StableLike-y_max-inf": (lambda: StableLike(1.0, 1.5, INF), "y_max"),
    "GammaLike-beta-0": (lambda: GammaLike(0.5, 0.0), "beta"),
    "GammaLike.jump_sizes-eps-inf": (
        lambda: GammaLike(0.5, 2.0).jump_sizes(_U, INF),
        "truncation level eps"),
    "LevyModelSpec-gaussian_q-nan": (
        lambda: LevyModelSpec(0.0, NAN, _GAMMA.measure), "gaussian_q"),
    "LevyModelSpec-gaussian_q-negative": (
        lambda: LevyModelSpec(0.0, -1.0, _GAMMA.measure), "gaussian_q"),
    "exponent-z-nan": (lambda: exponent(_SPEC, NAN), "z"),
    "exponent_derivative-z-negative": (
        lambda: exponent_derivative(_SPEC, -1.0), "z"),
    "classify_growth-lambda_bar-inf": (
        lambda: classify_growth(_SPEC, INF, 1.0), "lambda_bar"),
    "log_growth_profile-lambda_bar-0": (
        lambda: log_growth_profile(_SPEC, 0.0, 1.0, _U), "lambda_bar"),
    "JumpPath-horizon-nan": (lambda: JumpPath(NAN, 0.0, [], []), "horizon"),
    "simulate_path-t_star-negative": (
        lambda: simulate_path(_SPEC, -1.0, 0), "t_star"),
    "simulate_path-eps-0": (
        lambda: simulate_path(_GAMMA, 1.0, 0, eps=0.0),
        "truncation level eps"),
    "solve_fixed_point-tol-0": (lambda: _solve(tol=0.0), "tol"),
    "solve_fixed_point-explosion_threshold-inf": (
        lambda: _solve(explosion_threshold=INF), "explosion_threshold"),
    "solve_fixed_point-max_iter-float": (lambda: _solve(max_iter=2.0),
                                         "max_iter"),
    "solve_fixed_point-max_iter-bool": (lambda: _solve(max_iter=True),
                                        "max_iter"),
    "apriori_bound-r0_norm-nan": (
        lambda: apriori_bound(_SPEC, _VOL, _GRID, NAN, 1.0), "r0_norm"),
    "apriori_bound-b_sup-negative": (
        lambda: apriori_bound(_SPEC, _VOL, _GRID, 1.0, -1.0), "b_sup"),
    "uniqueness_contraction_check-b_sup-nan": (lambda: _uniqueness(NAN),
                                               "b_sup"),
    "martingale_test-n_paths-bool": (lambda: _martingale(n_paths=True),
                                     "n_paths"),
    "martingale_test-threads-0": (lambda: _martingale(threads=0), "threads"),
    "martingale_test-master_seed-float": (
        lambda: _martingale(master_seed=1.0), "master_seed"),
}


@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES.keys())
def test_bad_number_raises_domain_error_naming_it(call, name) -> None:
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must "):
        call()


@pytest.mark.parametrize("check", [positive, nonnegative])
@pytest.mark.parametrize("bad", [NAN, INF, -INF, -1.0])
def test_number_checks_refuse_nan_infinities_and_negatives(check,
                                                           bad) -> None:
    with pytest.raises(DomainError, match=f"^x must be .*, got {bad}$"):
        check("x", bad)


def test_number_checks_return_their_value() -> None:
    assert positive("x", 0.5) == 0.5
    assert nonnegative("x", 0.0) == 0.0
    assert integer("n", np.int64(3), 1) == 3
    with pytest.raises(DomainError, match="^x must be positive"):
        positive("x", 0.0)


@pytest.mark.parametrize("bad, message", [
    (True, "must be an integer, got True"),
    (2.0, "must be an integer, got 2.0"),
    ("2", "must be an integer, got '2'"),
    (0, "must be at least 1, got 0")])
def test_integer_refuses_bools_floats_and_small_counts(bad, message) -> None:
    with pytest.raises(DomainError, match=f"^n {re.escape(message)}$"):
        integer("n", bad, 1)
