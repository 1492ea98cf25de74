"""Separable volatility factors and their grid evaluation."""

import numpy as np
import pytest

from hjmm.errors import DomainError
from hjmm.grids import GridSpec
from hjmm.volatility import (
    VolatilitySpec,
    constant_term,
    constant_volatility,
    exp_decay_term,
    grid_violations,
    sample_bounds,
    time_affine_term,
    time_affine_volatility,
    unit_factor,
)

from _lambda_oracle import lambda_standard


def _grid() -> GridSpec:
    return GridSpec(0.125, 1.0, 2.0, 1.0)


def test_constant_factor_everywhere() -> None:
    vol = constant_volatility(0.2)
    assert lambda_standard(vol, 0.3, 1.7) == pytest.approx(0.2)
    assert vol.lambda_lower == pytest.approx(0.2)
    assert vol.lambda_upper == pytest.approx(0.2)


def test_time_affine_values() -> None:
    vol = time_affine_volatility(0.2, 0.1, 1.0)
    assert lambda_standard(vol, 0.5, 1.3) == pytest.approx(0.25)
    assert vol.time_only


def test_matrix_is_outer_product_of_factors() -> None:
    vol = time_affine_volatility(0.2, 0.1, 1.0)
    t = np.array([0.0, 0.5, 1.0])
    T = np.array([0.0, 1.0, 2.0])
    # a time-only lambda is one column, broadcast over the maturities
    assert vol.matrix(t, T).shape == (3, 1)
    m = np.broadcast_to(vol.matrix(t, T), (3, 3))
    for i, ti in enumerate(t):
        for j, Tj in enumerate(T):
            assert m[i, j] == pytest.approx(
                lambda_standard(vol, float(ti), float(Tj)))


def test_on_grid_matches_matrix() -> None:
    g = _grid()
    vol = time_affine_volatility(0.1, 0.05, 1.0)
    np.testing.assert_allclose(vol.on_grid(g),
                               vol.matrix(g.t_nodes(), g.T_nodes()))


@pytest.mark.parametrize("vol", [
    time_affine_volatility(0.1, 0.05, 1.0),
    VolatilitySpec(terms=(constant_term(0.2), exp_decay_term(0.1, 0.5)),
                   lambda_lower=0.2, lambda_upper=0.3,
                   x_derivative_bound=0.05),
], ids=["time_affine", "exp_decay"])
def test_on_grid_is_cached_and_read_only(vol) -> None:
    g = _grid()
    lam = vol.on_grid(g)
    assert vol.on_grid(g) is lam
    assert vol.on_grid(g.refine(2)) is not lam
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0, 0] = 1.0
    # a time-only lambda is one column, on the first maturity
    width = 1 if vol.time_only else g.n_cols + 1
    assert lam.shape == (g.n_t + 1, width)
    full = lambda_standard(vol, g.t_nodes()[:, None], g.T_nodes()[None, :])
    np.testing.assert_allclose(np.broadcast_to(lam, g.shape), full,
                               rtol=1e-15)
    # terms given as lists are kept as tuples, so the cache can hash them
    listed = VolatilitySpec(terms=[list(term) for term in vol.terms],
                            lambda_lower=vol.lambda_lower,
                            lambda_upper=vol.lambda_upper)
    assert listed.terms == vol.terms
    assert listed.on_grid(g).tobytes() == lam.tobytes()


def test_separable_maturity_factor() -> None:
    def a_fn(t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, 0.3) if t.ndim else 0.3

    def b_fn(T):
        return np.exp(-0.5 * np.asarray(T, dtype=float))

    vol = VolatilitySpec(terms=((a_fn, b_fn),),
                         lambda_lower=0.3 * np.exp(-1.5),
                         lambda_upper=0.3, x_derivative_bound=0.15)
    assert lambda_standard(vol, 0.2, 2.0) == pytest.approx(0.3 * np.exp(-1.0))
    assert not vol.time_only


def test_bounds_must_be_positive_and_ordered() -> None:
    def unit(v):
        v = np.asarray(v, dtype=float)
        return np.ones(v.shape) if v.ndim else 1.0

    with pytest.raises(ValueError):
        VolatilitySpec(terms=((unit, unit),), lambda_lower=0.0,
                       lambda_upper=1.0, x_derivative_bound=0.0)
    with pytest.raises(ValueError):
        VolatilitySpec(terms=((unit, unit),), lambda_lower=2.0,
                       lambda_upper=1.0, x_derivative_bound=0.0)


def _one(T):
    return np.ones_like(np.asarray(T, dtype=float))


@pytest.mark.parametrize("terms, time_only", [
    ((constant_term(0.25),), True),
    ((constant_term(0.25), time_affine_term(0.1, 0.2)), True),
    ((time_affine_term(0.1, 0.2), constant_term(0.25)), True),
    ((exp_decay_term(0.5, 2.0),), False),
    ((constant_term(0.25), exp_decay_term(0.5, 2.0)), False),
    ((exp_decay_term(0.5, 2.0), constant_term(0.25)), False),
    # rate 0 gives the factor 1 everywhere, but not the unit_factor
    ((exp_decay_term(0.25, 0.0),), False),
    # a hand-written unit factor is not the unit_factor either
    (((constant_term(0.25)[0], _one),), False),
    (((constant_term(0.25)[0], unit_factor),), True),
], ids=["constant", "constant+affine", "affine+constant", "exp_decay",
        "constant+exp_decay", "exp_decay+constant", "rate_0", "hand_written",
        "hand_built_unit"])
def test_time_only_exactly_when_every_factor_is_unit(terms, time_only) -> None:
    vol = VolatilitySpec(terms=terms, lambda_lower=0.25, lambda_upper=0.75,
                         x_derivative_bound=1.0)
    assert vol.time_only is time_only
    assert vol.time_only == all(b is unit_factor for _, b in vol.terms)
    with pytest.raises(AttributeError):
        vol.time_only = not time_only


def test_time_affine_rejects_sign_change() -> None:
    # slope -1 over horizon 2 drives the factor through zero
    with pytest.raises((DomainError, ValueError)):
        time_affine_volatility(0.5, -1.0, 2.0)


def test_grid_violations_empty_for_valid_spec() -> None:
    g = _grid()
    vol = time_affine_volatility(0.2, 0.1, 1.0)
    assert grid_violations(vol, g) == []


def test_grid_violations_flags_out_of_band_values() -> None:
    g = _grid()

    def a_fn(t):
        t = np.asarray(t, dtype=float)
        return np.ones(t.shape) if t.ndim else 1.0

    def b_fn(T):
        return 1.0 + np.asarray(T, dtype=float)

    # declared upper bound 1.0 is exceeded for every T > 0
    vol = VolatilitySpec(terms=((a_fn, b_fn),), lambda_lower=0.5,
                         lambda_upper=1.0, x_derivative_bound=10.0)
    assert grid_violations(vol, g)


def test_sample_bounds_of_one_decay_term() -> None:
    t = np.linspace(0.0, 1.0, 9)
    T = np.linspace(0.0, 2.0, 17)
    h = 1.0 / 128
    lo, hi, dbound = sample_bounds((exp_decay_term(0.2, 1.5),), t, T, h)
    assert lo == 0.2 * np.exp(-3.0)
    assert hi == 0.2
    # the centred difference at T = 0 is 0.2 * sinh(1.5 h) / h
    assert dbound == pytest.approx(0.2 * np.sinh(1.5 * h) / h, rel=1e-12)
    assert dbound >= 0.3

