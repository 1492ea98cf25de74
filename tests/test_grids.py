"""Grid geometry, flat extension, rate fields and the cached triangle."""

import dataclasses
import math

import numpy as np
import pytest

from hjmm.curves import exp_decay_curve
from hjmm.errors import DomainError
from hjmm.grids import (GridSpec, RateField, below_diagonal, cumtrapz,
                        flat_extend, slice_weights)
from hjmm.levy import gamma_subordinator
from hjmm.market import bond_surface
from hjmm.paths import field_a, field_b, simulate_path
from hjmm.solver import (_row_gradient, apply_K, solve_fixed_point,
                         timeline_norm, weighted_norms)
from hjmm.volatility import constant_volatility


def _grid(delta=0.25, t_star=1.0, t_max=2.0, gamma=1.0) -> GridSpec:
    return GridSpec(delta, t_star, t_max, gamma)


def test_node_counts_and_values() -> None:
    g = _grid()
    assert g.n_t == 4
    assert g.n_cols == 8
    np.testing.assert_allclose(g.t_nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.T_nodes()[-1] == 2.0


def test_index_lookup_roundtrip() -> None:
    g = _grid()
    for i, t in enumerate(g.t_nodes()):
        assert g.index_of_time(float(t)) == i
    for j, T in enumerate(g.T_nodes()):
        assert g.index_of_maturity(float(T)) == j
    with pytest.raises(DomainError):
        g.index_of_time(0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308])
def test_lookup_of_a_non_finite_node_is_a_domain_error(value) -> None:
    # round() of value / delta raised ValueError or OverflowError here
    g = _grid()
    for lookup, what in ((g.index_of_time, "time"),
                         (g.index_of_maturity, "maturity")):
        with pytest.raises(DomainError, match=f"^{what} .* is not a grid node"):
            lookup(value)
    with pytest.raises(DomainError, match="^time .* is not a grid node"):
        weighted_norms(RateField(np.zeros(g.shape), g), g, value)


@pytest.mark.parametrize("shape", [(33, 65), (5, 9), (3, 3), (9, 9), (2, 4),
                                   (129, 257)])
def test_row_gradient_is_numpys_gradient_of_each_slice(shape) -> None:
    values = np.random.default_rng(sum(shape)).normal(size=shape)
    dx = 1.0 / 32.0
    got = _row_gradient(values, dx)
    for i in range(min(shape[0], shape[1] - 2)):
        assert np.array_equal(got[i, i:],
                              np.gradient(values[i, i:], dx, edge_order=2))


def test_step_must_divide_horizons() -> None:
    with pytest.raises(DomainError):
        GridSpec(0.3, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(0.25, 1.0, 0.5, 1.0)


@pytest.mark.parametrize("field", ["delta", "t_star", "t_max", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_each_parameter_must_be_positive_and_finite(field, value) -> None:
    # t_star and t_max move together, so an infinite pair fails here too
    bad = {"t_star": value, "t_max": value} if field == "t_star" else {
        field: value}
    with pytest.raises(DomainError, match=f"^{field} must be positive and "
                                          "finite"):
        GridSpec(**{"delta": 1 / 32, "t_star": 1.0, "t_max": 2.0,
                    "gamma": 1.0, **bad})


def test_refine_preserves_horizons() -> None:
    g = _grid()
    fine = g.refine(2)
    assert fine.delta == g.delta / 2
    assert fine.t_star == g.t_star and fine.t_max == g.t_max
    assert fine.n_t == 2 * g.n_t


def test_flat_extend_copies_diagonal_down_columns() -> None:
    vals = np.arange(12.0).reshape(3, 4)
    out = flat_extend(vals)
    # column j below row j carries the diagonal value
    assert out[1, 0] == vals[0, 0] and out[2, 0] == vals[0, 0]
    assert out[2, 1] == vals[1, 1]
    # upper triangle untouched, input not mutated
    assert out[0, 3] == vals[0, 3]
    assert vals[2, 0] == 8.0


class TestRateField:
    def test_shape_validation(self) -> None:
        g = _grid()
        with pytest.raises(DomainError):
            RateField(np.zeros((3, 3)), g)

    def test_musiela_slice_and_x_nodes(self) -> None:
        g = _grid()
        field = RateField(np.ones((g.n_t + 1, g.n_cols + 1)), g)
        sl = field.musiela_slice(2)
        assert sl.shape == (g.n_cols - 2 + 1,)
        x = field.x_nodes(2)
        assert x[0] == 0.0 and x[-1] == g.t_max - 0.5

    def test_short_rates_follow_diagonal(self) -> None:
        g = _grid()
        vals = np.zeros((g.n_t + 1, g.n_cols + 1))
        for i in range(g.n_t + 1):
            vals[i, i] = 10.0 + i
        field = RateField(flat_extend(vals), g)
        np.testing.assert_allclose(field.short_rates(), 10.0 + np.arange(5.0))


# The triangle layout and the slice weights are cached per shape and per
# grid.  The oracles below are the per-call formulas they replace.

def _oracle_flat_extend(values):
    out = np.array(values, dtype=float, copy=True)
    rows, cols = np.tril_indices(out.shape[0], -1, out.shape[1])
    out[rows, cols] = out[cols, cols]
    return out


def _oracle_extension_defect(field):
    grid = field.grid
    rows, cols = np.tril_indices(grid.n_t + 1, -1, grid.n_cols + 1)
    return float(np.max(np.abs(field.values[rows, cols]
                               - field.values[cols, cols]), initial=0.0))


def _oracle_weights(grid):
    gap = np.arange(grid.n_cols + 1) - np.arange(grid.n_t + 1)[:, None]
    weight = np.where(gap >= 0, grid.delta
                      * np.exp(grid.gamma * (grid.delta * gap)), 0.0)
    weight[gap == 0] *= 0.5
    weight[:, -1] *= 0.5
    weight[grid.n_cols:] = 0.0
    return weight


def _oracle_timeline_norm(values, grid):
    upper = np.triu(values)
    if not np.all(np.isfinite(upper)):
        return math.inf
    return math.sqrt(float(np.max(np.sum(_oracle_weights(grid) * upper * upper,
                                         axis=1))))


def _oracle_weighted_norms(values, grid, t):
    i = grid.index_of_time(t)
    slice_vals = values[i, i:]
    n = slice_vals.size
    sup = float(np.max(np.abs(slice_vals)))
    if n < 2:
        return (0.0, 0.0, sup)
    weight = _oracle_weights(grid)[i, i:]
    deriv = (_row_gradient(values[i:i + 1, i:], grid.delta)[0] if n > 2
             else np.diff(slice_vals) / grid.delta)
    l2_sq = float(np.sum(weight * slice_vals * slice_vals))
    h1_sq = l2_sq + float(np.sum(weight * deriv * deriv))
    return (math.sqrt(l2_sq), math.sqrt(h1_sq), sup)


def _oracle_prices(values, grid):
    ct = cumtrapz(values, grid.delta, axis=1)
    prices = np.exp(-(ct - np.diagonal(ct)[:, None]))
    prices[np.tril_indices(values.shape[0], -1, values.shape[1])] = np.nan
    return prices, np.exp(-ct)


# t_max = t_star makes n_t = n_cols, so the last row is a one-node slice
CACHE_GRIDS = [GridSpec(delta, 1.0, t_max, 1.3)
               for delta in (0.125, 0.03125) for t_max in (1.0, 4.0)]


def _grid_id(grid):
    return f"delta={grid.delta}-t_max={grid.t_max}"


def _cached(grid):
    return (below_diagonal(grid.shape), slice_weights(grid))


def _random_field(grid, seed=3):
    rng = np.random.default_rng(seed)
    return RateField(flat_extend(rng.uniform(0.1, 2.0, size=grid.shape)),
                     grid)


@pytest.mark.parametrize("grid", CACHE_GRIDS, ids=_grid_id)
def test_cached_arrays_are_read_only(grid) -> None:
    for arr in _cached(grid):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    assert below_diagonal(grid.shape) is below_diagonal(grid.shape)
    equal = GridSpec(*dataclasses.astuple(grid))
    assert slice_weights(grid) is slice_weights(equal)


@pytest.mark.parametrize("grid", CACHE_GRIDS, ids=_grid_id)
def test_cached_layout_matches_per_call_formulas(grid) -> None:
    mask = below_diagonal(grid.shape)
    assert mask.dtype == bool
    assert np.array_equal(mask, np.tri(*grid.shape, -1, dtype=bool))
    # its cells, in row-major order, are the strict lower triangle
    rows, cols = np.nonzero(mask)
    expected = np.tril_indices(grid.n_t + 1, -1, grid.n_cols + 1)
    assert rows.tobytes() == expected[0].tobytes()
    assert cols.tobytes() == expected[1].tobytes()
    assert slice_weights(grid).tobytes() == _oracle_weights(grid).tobytes()


@pytest.mark.parametrize("grid", CACHE_GRIDS, ids=_grid_id)
def test_triangle_sites_bitwise_equal_to_per_call_formulas(grid) -> None:
    field = _random_field(grid)
    assert _oracle_extension_defect(field) == 0.0
    raw = np.random.default_rng(4).uniform(0.1, 2.0, size=grid.shape)
    assert _oracle_extension_defect(RateField(raw, grid)) > 0.0
    assert flat_extend(raw).tobytes() == _oracle_flat_extend(raw).tobytes()
    surface = bond_surface(field, grid)
    prices, discounted = _oracle_prices(field.values, grid)
    assert surface.prices.tobytes() == prices.tobytes()
    assert surface.discounted.tobytes() == discounted.tobytes()
    assert (timeline_norm(field.values, grid)
            == _oracle_timeline_norm(field.values, grid))
    for t in grid.t_nodes():
        got = weighted_norms(field, grid, float(t))
        assert ((got.l2_gamma, got.h1_gamma, got.sup)
                == _oracle_weighted_norms(field.values, grid, float(t)))


@pytest.mark.parametrize("grid", CACHE_GRIDS, ids=_grid_id)
def test_flat_extend_of_a_stack_is_each_fields_own(grid) -> None:
    # the masked copy on a (P, n_t+1, n_cols+1) stack, in place and not,
    # against the index formula on each field alone; t_max = t_star makes
    # the field square
    stack = np.random.default_rng(6).uniform(0.1, 2.0, size=(3, *grid.shape))
    stack[1, grid.n_t, 0] = math.nan
    stack[2, 0, 0] = math.inf
    extended = flat_extend(stack)
    in_place = stack.copy()
    assert flat_extend(in_place, out=in_place) is in_place
    for k, field in enumerate(stack):
        expected = _oracle_flat_extend(field).tobytes()
        assert extended[k].tobytes() == expected
        assert in_place[k].tobytes() == expected


@pytest.mark.parametrize("grid", CACHE_GRIDS, ids=_grid_id)
def test_returned_arrays_own_their_memory(grid) -> None:
    field = _random_field(grid)
    vol = constant_volatility(0.2)
    spec = gamma_subordinator(0.5, 2.0)
    path = simulate_path(spec, grid.t_star, [5, 0])
    a = field_a(exp_decay_curve(0.08, 0.4), field_b(vol, path, grid), grid)
    report = solve_fixed_point(a, vol, spec, grid)
    surface = bond_surface(report.final_field, grid)
    returned = [flat_extend(field.values), a, report.final_field.values,
                apply_K(field, a, vol, spec, grid).values, surface.prices,
                surface.discounted]
    for arr in returned:
        assert arr.flags.writeable
        for cached in _cached(grid):
            assert not np.shares_memory(arr, cached)


def _strided_cumtrapz(values, dx, axis):
    """The trapezoid prefix sums on strided views along ``axis``."""
    axis %= values.ndim
    lead = (slice(None),) * axis
    out = np.empty_like(values)
    steps = out[lead + (slice(1, None),)]
    np.add(values[lead + (slice(1, None),)],
           values[lead + (slice(None, -1),)], out=steps)
    np.multiply(0.5 * dx, steps, out=steps)
    np.cumsum(steps, axis=axis, out=steps)
    out[lead + (0,)] = 0.0
    return out


@pytest.mark.parametrize("shape", [(4, 9, 17), (9, 17), (1, 17), (9, 1),
                                   (3, 1, 17), (3, 9, 1), (1, 1)])
@pytest.mark.parametrize("axis", [-2, -1])
def test_cumtrapz_is_bitwise_the_strided_sums(shape, axis) -> None:
    rng = np.random.default_rng(11)
    values = rng.normal(size=shape) * np.exp(rng.uniform(-30, 30, shape))
    values.flat[::7] = -0.0
    expected = _strided_cumtrapz(values, 0.03125, axis)
    for out in (None, np.empty(shape)):
        result = cumtrapz(values, 0.03125, axis=axis, out=out)
        assert result.tobytes() == expected.tobytes()
    # a strided input (any but a single cell) is copied first
    wide = np.repeat(values, 2, axis=-1)[..., ::2]
    assert wide.flags.c_contiguous == (values.size == 1)
    assert cumtrapz(wide, 0.03125, axis).tobytes() == expected.tobytes()


def test_cumtrapz_adds_no_warning_across_lane_ends() -> None:
    # the last cell of a lane and the first of the next overflow, or give
    # inf - inf, when summed; no lane sums them, so no warning is raised
    # (pytest turns one into an error) and they do not leak
    for last, first in ((1.5e308, 1.5e308), (math.inf, -math.inf)):
        rows, fields = np.zeros((2, 3, 4)), np.zeros((2, 3, 4))
        lanes = rows.reshape(6, 4)
        lanes[0::2, -1], lanes[1::2, 0] = last, first
        fields[0, -1], fields[1, 0] = last, first
        for values, axis in ((rows, -1), (fields, -2)):
            expected = _strided_cumtrapz(values, 0.5, axis)
            assert (cumtrapz(values, 0.5, axis).tobytes()
                    == expected.tobytes())
