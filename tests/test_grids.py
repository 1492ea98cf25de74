"""Grid geometry, flat extension, and rate-field slicing."""

import math

import numpy as np
import pytest

from hjmm.errors import DomainError
from hjmm.grids import GridSpec, RateField, flat_extend


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


def test_step_must_divide_horizons() -> None:
    with pytest.raises(DomainError):
        GridSpec(0.3, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        GridSpec(0.25, 1.0, 0.5, 1.0)


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

    def test_sup_distance_symmetry(self) -> None:
        g = _grid()
        rng = np.random.default_rng(3)
        a = RateField(rng.uniform(size=(5, 9)), g)
        b = RateField(rng.uniform(size=(5, 9)), g)
        assert a.sup_distance(b) == b.sup_distance(a)
        assert a.sup_distance(a) == 0.0

    def test_from_triangle_applies_extension(self) -> None:
        g = _grid()
        rng = np.random.default_rng(5)
        field = RateField.from_triangle(rng.uniform(size=(5, 9)), g)
        assert field.extension_defect() == 0.0

    def test_extension_defect_reports_nan(self) -> None:
        g = _grid()
        rng = np.random.default_rng(5)
        field = RateField.from_triangle(rng.uniform(size=(5, 9)), g)
        field.values[3, 1] = math.nan
        assert math.isnan(field.extension_defect())
