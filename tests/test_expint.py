"""The numpy exponential integral E1 and the start of its inverse."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sc

from hjmm._expint import _PANEL_EDGES, e1, log_inverse_e1

# a log grid over [1e-300, 700], and dense samples around x = 1 (where the
# series hands over to the panels) and around every panel edge x = 1/t
_GRID = np.concatenate(
    [np.geomspace(1e-300, 700.0, 20001)]
    + [np.linspace(x * (1.0 - 1e-3), x * (1.0 + 1e-3), 401)
       for x in (1.0, *(1.0 / t for t in _PANEL_EDGES))]
    + [np.nextafter(1.0, [0.0, 2.0])])


def test_agrees_with_scipy() -> None:
    got, want = e1(_GRID), sc.exp1(_GRID)
    assert np.all(np.abs(got - want) <= 3e-15 * want)


def test_agrees_with_mpmath() -> None:
    mp = pytest.importorskip("mpmath")
    x = _GRID[::10]
    with mp.workdps(30):
        want = np.array([float(mp.e1(v)) for v in x])
    assert np.all(np.abs(e1(x) - want) <= 1.5e-15 * want)


def test_edge_values() -> None:
    x = np.array([np.inf, np.nan, 750.0, 1e300, 0.0, -0.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = e1(x)
    np.testing.assert_array_equal(
        got, [0.0, np.nan, 0.0, 0.0, np.inf, np.inf, np.nan])
    np.testing.assert_array_equal(got, sc.exp1(x))
    assert e1(0.5) == e1(np.array([0.5]))[0]


def test_each_element_is_its_value_alone() -> None:
    x = np.exp(np.random.default_rng(3).uniform(-8.0, 4.0, 85))
    together = e1(x)
    for k in range(x.size):
        assert e1(x[k:k + 1]).tobytes() == together[k:k + 1].tobytes()
    assert e1(x[:40]).tobytes() == together[:40].tobytes()


@pytest.mark.parametrize("log_x", [np.linspace(-24.0, 6.5, 100001),
                                   np.linspace(-60.0, -24.0, 1001)],
                         ids=["table", "above-table"])
def test_one_newton_step_settles_from_the_inverse_start(log_x) -> None:
    # the Newton step in ln x from the start, -(E1 - v) / (x E1'(x)), is
    # far below the 1e-9 at which the sampler settles a draw
    v = e1(np.exp(log_x))
    start = log_inverse_e1(v)
    step = (e1(np.exp(start)) - v) / np.exp(-np.exp(start))
    assert np.all(np.abs(step) <= 1e-10)
    assert np.all(np.abs(start - log_x) <= 1e-10)


def test_committed_coefficients_are_the_generators() -> None:
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "tools" / "e1_coefficients.py"
    spec = importlib.util.spec_from_file_location("e1_coefficients", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.committed_block() == tool.block()

