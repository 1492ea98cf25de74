"""Driver path simulation, pathwise integrals, and the jump factor field.

The factor field b(t, T) = exp(drift integral) * prod(1 + lambda dL) is the
stochastic exponential of the volatility-weighted driver; its algebraic
identities here are exact, not approximate.
"""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjmm.curves import InitialCurve, exp_decay_curve
from hjmm.errors import DomainError, NonPositiveFactor, UnsupportedSpec
from hjmm.grids import GridSpec, cumtrapz
from hjmm.levy import LevyModelSpec, drift_only, gamma_subordinator
from hjmm.measures import GammaLike, PointMasses, StableLike
from hjmm.market import martingale_test
from hjmm.paths import (
    TRUNCATION_EPS,
    JumpPath,
    factor_fields,
    field_a,
    field_b,
    jump_factor_error,
    simulate_path,
    simulate_paths,
)
from hjmm.volatility import (VolatilitySpec, constant_term,
                             constant_volatility, exp_decay_term,
                             time_affine_term, time_affine_volatility)

from _lambda_oracle import lambda_standard

PRODUCT_IDENTITY_RTOL = 1e-12
# absolute step of the drift part of the pathwise integral oracle
_ORACLE_STEP = 1.0 / 512.0


def _grid(delta=0.125) -> GridSpec:
    return GridSpec(delta, 1.0, 2.0, 1.0)


def _integrate_against_path(vol: VolatilitySpec, path: JumpPath, t: float,
                            x: float, *, t_lower: float = 0.0,
                            step: float = _ORACLE_STEP) -> float:
    """int_{t_lower}^{t} lambda(s, t - s + x) dL(s), an oracle for field_b.

    In standard coordinates the integrand is lambda(s, T) with the fixed
    maturity T = t + x, so the drift part is a deterministic integral
    evaluated by composite trapezoid on panels anchored at multiples of
    ``step`` (a global anchor, so splitting at an anchored point is exact),
    and the jump part is an exact sum over jump times in (t_lower, t].
    """
    if not 0.0 <= t_lower <= t <= path.horizon + 1e-12:
        raise DomainError(f"need 0 <= t_lower <= t <= horizon, got "
                          f"({t_lower}, {t}, {path.horizon})")
    if x < 0.0:
        raise DomainError(f"gap x must be >= 0, got {x}")
    T = t + x

    drift_term = 0.0
    if t > t_lower:
        first = math.ceil(t_lower / step - 1e-12)
        last = math.floor(t / step + 1e-12)
        interior = step * np.arange(first, last + 1)
        inside = (interior > t_lower + 1e-15) & (interior < t - 1e-15)
        nodes = np.concatenate(([t_lower], interior[inside], [t]))
        values = lambda_standard(vol, nodes, T)
        drift_term = path.drift_rate * float(np.trapezoid(values, nodes))

    lo = int(np.searchsorted(path.times, t_lower, side="right"))
    hi = int(np.searchsorted(path.times, t, side="right"))
    jump_term = 0.0
    if hi > lo:
        lam = np.asarray(lambda_standard(vol, path.times[lo:hi], T),
                         dtype=float)
        jump_term = float(np.dot(lam, path.sizes[lo:hi]))
    return drift_term + jump_term


class TestJumpPath:
    def test_keeps_its_jumps_as_float_arrays(self) -> None:
        path = JumpPath(horizon=1.0, drift_rate=2.0, times=[0.25, 0.75],
                        sizes=[1, -0.5])
        assert path.times.dtype == path.sizes.dtype == np.float64
        assert path.times.tolist() == [0.25, 0.75]
        assert path.sizes.tolist() == [1.0, -0.5]
        assert path.n_jumps == 2

    def test_validation(self) -> None:
        with pytest.raises(DomainError):
            JumpPath(horizon=1.0, drift_rate=0.0,
                     times=np.array([0.5, 0.5]), sizes=np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            JumpPath(horizon=1.0, drift_rate=0.0,
                     times=np.array([1.5]), sizes=np.array([1.0]))
        with pytest.raises(DomainError):
            JumpPath(horizon=1.0, drift_rate=0.0,
                     times=np.array([0.5]), sizes=np.array([0.0]))

    @pytest.mark.parametrize("times", [[0.5, np.nan], [np.nan, 0.5], [np.nan],
                                       [-np.inf, 0.5], [0.5, np.inf]])
    def test_non_finite_times_are_refused(self, times) -> None:
        # [0.5, nan] passed every check, and field_b then left out the
        # jump at nan
        with pytest.raises(DomainError, match=r"lie in \(0, horizon\]"):
            JumpPath(horizon=1.0, drift_rate=0.0, times=np.array(times),
                     sizes=np.ones(len(times)))


class TestSimulatePath:
    def test_default_truncation_level_is_the_paths_constant(self) -> None:
        for simulate in (simulate_path, simulate_paths, martingale_test):
            eps = inspect.signature(simulate).parameters["eps"]
            assert eps.default is TRUNCATION_EPS
        spec = LevyModelSpec(0.0, 0.0, StableLike(1.0, 0.5))
        path = simulate_path(spec, 1.0, [4, 0])
        assert path.truncation_eps == TRUNCATION_EPS
        same = simulate_path(spec, 1.0, [4, 0], eps=TRUNCATION_EPS)
        assert np.array_equal(path.sizes, same.sizes)

    def test_bitwise_deterministic(self) -> None:
        spec = gamma_subordinator(0.5, 2.0)
        p1 = simulate_path(spec, 1.0, [42, 0], eps=1e-3)
        p2 = simulate_path(spec, 1.0, [42, 0], eps=1e-3)
        np.testing.assert_array_equal(p1.times, p2.times)
        np.testing.assert_array_equal(p1.sizes, p2.sizes)
        assert p1.drift_rate == p2.drift_rate

    def test_different_seeds_differ(self) -> None:
        spec = gamma_subordinator(0.5, 2.0)
        p1 = simulate_path(spec, 1.0, [42, 0], eps=1e-3)
        p2 = simulate_path(spec, 1.0, [42, 1], eps=1e-3)
        assert p1.n_jumps != p2.n_jumps or not np.array_equal(p1.times, p2.times)

    def test_finite_activity_sampled_exactly(self) -> None:
        spec = LevyModelSpec(0.0, 0.0, PointMasses([(0.5, 3.0)]))
        path = simulate_path(spec, 1.0, 7)
        assert path.truncation_eps == 0.0
        assert np.all(path.sizes == 0.5)
        # compensator of the small atom shifts the drift by -y*c = -1.5
        assert path.drift_rate == pytest.approx(-1.5)

    def test_truncation_compensates_drift(self) -> None:
        spec = gamma_subordinator(1.0, 2.0)
        eps = 0.01
        path = simulate_path(spec, 1.0, 3, eps=eps)
        assert path.truncation_eps == eps
        assert np.all(path.sizes >= eps)
        # removed small-jump mean: int_0^eps y nu(dy) = c(1 - e^{-beta eps})/beta
        expected = 1.0 * (1.0 - math.exp(-2.0 * eps)) / 2.0
        assert path.drift_rate == pytest.approx(expected, rel=1e-12)

    def test_truncation_above_one_keeps_the_mean(self) -> None:
        # eps = 2: the jumps in [1, 2) are dropped, so the drift carries
        # their mean int_1^2 y nu (0.0293 here) and E L(1) = c / beta
        spec = gamma_subordinator(0.5, 2.0)
        n = 4000
        paths = simulate_paths(spec, 1.0, [[0, k] for k in range(n)], eps=2.0)
        # L(1): every jump lies in (0, 1]
        values = np.array([p.drift_rate + p.sizes.sum() for p in paths])
        stderr = values.std() / math.sqrt(n)
        assert abs(values.mean() - 0.25) < 4.0 * stderr

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_truncation_level_refused(self, eps) -> None:
        with pytest.raises(DomainError, match="truncation level"):
            simulate_path(gamma_subordinator(0.5, 2.0), 1.0, 0, eps=eps)

    def test_poisson_count_scale(self) -> None:
        # intensity = tail mass above eps; check the ensemble mean roughly
        spec = gamma_subordinator(1.0, 1.0)
        eps = 0.05
        intensity = spec.measure.tail_mass(eps)
        counts = [simulate_path(spec, 1.0, [5, k], eps=eps).n_jumps
                  for k in range(200)]
        assert abs(np.mean(counts) - intensity) < 0.5 * math.sqrt(intensity)

    def test_tied_jump_times_are_pulled_apart(self, monkeypatch) -> None:
        # a generator whose uniform times collide in pairs
        class Tied(np.random.Generator):
            def uniform(self, low=0.0, high=1.0, size=None):
                out = super().uniform(low, high, size)
                if size:
                    out[1::2] = out[:size - size % 2:2]
                return out

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Tied(np.random.PCG64(seed)))
        spec = LevyModelSpec(0.0, 0.0, PointMasses([(0.5, 6.0)]))
        path = simulate_path(spec, 1.0, 4)
        assert path.n_jumps >= 2
        assert np.all(np.diff(path.times) > 0.0)
        # each tie moved by one ulp
        assert np.all(path.times[1::2] == np.nextafter(
            path.times[:path.n_jumps - path.n_jumps % 2:2], np.inf))

    @pytest.mark.parametrize("spec, eps", [
        # 1e13 jumps per path: their draws alone would take 72 TiB
        (LevyModelSpec(0.0, 0.0, PointMasses([(0.1, 1e13)])), 1e-3),
        # the benchmark's explosive model truncated far too low
        (LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0)),
         1e-9),
    ])
    def test_huge_expected_jump_count_refused(self, spec, eps) -> None:
        with pytest.raises(DomainError, match="jumps per path expected"):
            simulate_paths(spec, 1.0, [[0, 0]], eps)

    def test_unsupported_specs_rejected(self) -> None:
        with pytest.raises(UnsupportedSpec):
            simulate_path(LevyModelSpec(0.0, 1.0, PointMasses(())), 1.0, 0)
        with pytest.raises(UnsupportedSpec):
            simulate_path(LevyModelSpec(0.0, 0.0, PointMasses([(-1.0, 1.0)])),
                          1.0, 0)
        with pytest.raises(DomainError):
            # infinite activity requires a strictly positive truncation level
            simulate_path(LevyModelSpec(1.0, 0.0,
                                        StableLike(c=1.0, alpha=1.5, y_max=1.0)),
                          1.0, 0, eps=-1.0)


class TestIntegrateAgainstPath:
    def test_drift_part_constant_vol(self) -> None:
        vol = constant_volatility(0.2)
        path = JumpPath(horizon=1.0, drift_rate=3.0, times=np.empty(0),
                        sizes=np.empty(0))
        got = _integrate_against_path(vol, path, 0.8, 0.5)
        assert got == pytest.approx(3.0 * 0.2 * 0.8, rel=1e-12)

    def test_drift_part_affine_vol_exact(self) -> None:
        # trapezoid is exact for an integrand linear in s
        vol = time_affine_volatility(0.2, 0.1, 1.0)
        path = JumpPath(horizon=1.0, drift_rate=2.0, times=np.empty(0),
                        sizes=np.empty(0))
        t = 0.75
        exact = 2.0 * (0.2 * t + 0.05 * t * t)
        assert _integrate_against_path(vol, path, t, 0.0) == pytest.approx(
            exact, rel=1e-12)

    def test_jump_part_exact_sum(self) -> None:
        vol = time_affine_volatility(0.2, 0.1, 1.0)
        path = JumpPath(horizon=1.0, drift_rate=0.0,
                        times=np.array([0.3, 0.6]),
                        sizes=np.array([1.0, 2.0]))
        t, x = 0.7, 0.25
        expected = (0.2 + 0.1 * 0.3) * 1.0 + (0.2 + 0.1 * 0.6) * 2.0
        assert _integrate_against_path(vol, path, t, x) == pytest.approx(
            expected, rel=1e-14)

    def test_additive_over_anchored_split(self) -> None:
        vol = time_affine_volatility(0.3, 0.2, 1.0)
        spec = gamma_subordinator(0.5, 2.0)
        path = simulate_path(spec, 1.0, [9, 0], eps=1e-3)
        t, x, s = 0.875, 0.5, 0.25
        whole = _integrate_against_path(vol, path, t, x)
        left = _integrate_against_path(vol, path, s, t - s + x)
        right = _integrate_against_path(vol, path, t, x, t_lower=s)
        assert whole == pytest.approx(left + right, rel=1e-12, abs=1e-14)


class TestFieldB:
    def test_trivial_path_gives_ones(self) -> None:
        g = _grid()
        path = simulate_path(drift_only(0.0), g.t_star, 0)
        b = field_b(constant_volatility(0.2), path, g)
        np.testing.assert_array_equal(b, np.ones((g.n_t + 1, g.n_cols + 1)))

    def test_pure_drift_closed_form(self) -> None:
        g = _grid()
        vol = constant_volatility(0.2)
        path = JumpPath(horizon=g.t_star, drift_rate=2.0, times=np.empty(0),
                        sizes=np.empty(0))
        b = field_b(vol, path, g)
        t = g.t_nodes()
        expected = np.exp(2.0 * 0.2 * t)[:, None] * np.ones(g.n_cols + 1)
        np.testing.assert_allclose(b, expected, rtol=1e-13)

    def test_zero_drift_product_identity(self) -> None:
        g = _grid()
        vol = time_affine_volatility(0.2, 0.1, 1.0)
        path = JumpPath(horizon=g.t_star, drift_rate=0.0,
                        times=np.array([0.3, 0.55, 0.9]),
                        sizes=np.array([0.8, 1.5, 0.4]))
        b = field_b(vol, path, g)
        T = g.T_nodes()
        for i, t in enumerate(g.t_nodes()):
            expected = np.ones(T.size)
            for s, dl in zip(path.times, path.sizes):
                if s <= t:
                    expected *= 1.0 + lambda_standard(vol, s, T) * dl
            np.testing.assert_allclose(b[i], expected,
                                       rtol=PRODUCT_IDENTITY_RTOL)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_product_identity_random_paths(self, seed: int) -> None:
        g = GridSpec(0.25, 1.0, 2.0, 1.0)
        vol = time_affine_volatility(0.2, 0.1, 1.0)
        spec = LevyModelSpec(0.0, 0.0, PointMasses([(0.5, 2.0), (1.5, 1.0)]))
        path = simulate_path(spec, g.t_star, seed)
        zero_drift = JumpPath(horizon=path.horizon, drift_rate=0.0,
                              times=path.times, sizes=path.sizes)
        b = field_b(vol, zero_drift, g)
        T = g.T_nodes()
        for i, t in enumerate(g.t_nodes()):
            expected = np.ones(T.size)
            for s, dl in zip(path.times, path.sizes):
                if s <= t:
                    expected *= 1.0 + lambda_standard(vol, s, T) * dl
            np.testing.assert_allclose(b[i], expected,
                                       rtol=PRODUCT_IDENTITY_RTOL)

    def test_log_factor_matches_pathwise_integral(self) -> None:
        # log b = int_0^t lambda(s, T) dL(s) + sum_{s_k <= t} [log1p(lambda dL)
        # - lambda dL]; _integrate_against_path is an independent route to the
        # integral, on drift and jumps together with maturity-dependent lambda
        g = GridSpec(1.0 / 16.0, 1.0, 2.0, 1.0)
        vol = VolatilitySpec(
            terms=((lambda t: 0.2 + 0.1 * np.asarray(t, dtype=float),
                    lambda T: np.exp(-0.3 * np.asarray(T, dtype=float))),),
            lambda_lower=0.2 * math.exp(-0.6), lambda_upper=0.3,
            x_derivative_bound=0.09)
        path = JumpPath(horizon=g.t_star, drift_rate=-0.37,
                        times=np.array([0.23, 0.61, 0.9]),
                        sizes=np.array([0.5, 1.2, 0.3]))
        log_b = np.log(field_b(vol, path, g))
        worst = 0.0
        for i, t in enumerate(g.t_nodes()):
            for j, T in enumerate(g.T_nodes()):
                if T < t:
                    continue
                a = np.array([lambda_standard(vol, s, T) * dl for s, dl
                              in zip(path.times, path.sizes) if s <= t])
                expected = (_integrate_against_path(vol, path, t, T - t)
                            + float(np.sum(np.log1p(a) - a)))
                worst = max(worst, abs(log_b[i, j] - expected))
        assert worst <= 1e-12

    def test_many_jump_field_matches_exact_sums(self) -> None:
        # ~660 jumps: each cell against c * Lambda plus an exactly rounded
        # sum of its ln(1 + lambda dL) terms, for a maturity-dependent
        # lambda and for a time-only one (one column of jump terms)
        g = GridSpec(1.0 / 16.0, 1.0, 2.0, 1.0)
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0))
        path = simulate_path(spec, g.t_star, 7, eps=1e-2)
        assert path.n_jumps > 500
        counts = np.searchsorted(path.times, g.t_nodes(), side="right")
        for vol in (VolatilitySpec(
                        terms=(constant_term(0.25), exp_decay_term(0.5, 2.0)),
                        lambda_lower=0.25, lambda_upper=0.75),
                    time_affine_volatility(0.25, 0.5, g.t_star)):
            b = field_b(vol, path, g)
            # a time-only lambda gives one column: broadcast it
            drift = np.broadcast_to(cumtrapz(vol.on_grid(g), g.delta, axis=0)
                                    * path.drift_rate, g.shape)
            logs = np.broadcast_to(np.log1p(
                vol.matrix(path.times, g.T_nodes()) * path.sizes[:, None]),
                (path.n_jumps, g.n_cols + 1))
            expected = np.exp([[drift[i, j] + math.fsum(logs[:k, j])
                                for j in range(g.n_cols + 1)]
                               for i, k in enumerate(counts)])
            np.testing.assert_allclose(b, expected, rtol=1e-13, atol=0.0)

    def test_time_only_column_matches_the_full_width_route(self) -> None:
        # the same values, time-only or not: an exp_decay term of rate 0
        # has the maturity factor exp(-0 T) = 1 exactly but is not
        # unit_factor, so its jump sum is full width; the one-column sum
        # and the full-width one give the same field, bitwise
        g = GridSpec(1.0 / 16.0, 1.0, 2.0, 1.0)
        column, full = (
            VolatilitySpec(terms=(first, time_affine_term(0.1, 0.2)),
                           lambda_lower=0.35, lambda_upper=0.55)
            for first in (constant_term(0.25), exp_decay_term(0.25, 0.0)))
        assert column.time_only and not full.time_only
        spec = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0))
        path = simulate_path(spec, g.t_star, 11, eps=1e-2)
        assert path.n_jumps > 500
        assert (field_b(column, path, g).tobytes()
                == field_b(full, path, g).tobytes())
        assert jump_factor_error(column, path, g) == jump_factor_error(full, path, g)

    def test_both_routes_name_the_same_non_positive_factor(self) -> None:
        # dL = -5 at lambda = 0.25 gives the factor 1 - 1.25 < 0
        g = _grid()
        path = JumpPath(horizon=g.t_star, drift_rate=0.0,
                        times=np.array([0.2, 0.4, 0.6]),
                        sizes=np.array([1.0, -5.0, 2.0]))
        messages = []
        for term in (constant_term(0.25), exp_decay_term(0.25, 0.0)):
            vol = VolatilitySpec(terms=(term,), lambda_lower=0.25,
                                 lambda_upper=0.25)
            with pytest.raises(NonPositiveFactor, match="t=0.4 ") as caught:
                field_b(vol, path, g)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_factor_at_minus_one_rejected(self) -> None:
        g = _grid()
        vol = constant_volatility(0.5)
        path = JumpPath(horizon=g.t_star, drift_rate=0.0,
                        times=np.array([0.5]), sizes=np.array([-2.0]))
        with pytest.raises(NonPositiveFactor):
            field_b(vol, path, g)


def test_field_a_scales_by_initial_curve() -> None:
    g = _grid()
    curve = exp_decay_curve(0.08, 0.4)
    b = np.full((g.n_t + 1, g.n_cols + 1), 2.0)
    a = field_a(curve, b, g)
    np.testing.assert_allclose(a[3], 2.0 * curve(g.T_nodes()), rtol=1e-14)


def test_field_a_rejects_nonpositive_curve() -> None:
    from hjmm.curves import affine_curve
    from hjmm.errors import NonPositiveInitialCurve

    g = _grid()
    b = np.ones((g.n_t + 1, g.n_cols + 1))
    with pytest.raises(NonPositiveInitialCurve):
        field_a(affine_curve(0.1, -0.2), b, g)


def test_field_a_evaluates_the_curve_once() -> None:
    g = _grid()
    calls = []

    def level(u):
        calls.append(u.size)
        return 0.08 * np.exp(-0.4 * u)

    b = np.random.default_rng(2).uniform(0.5, 2.0,
                                         size=(g.n_t + 1, g.n_cols + 1))
    a = field_a(InitialCurve(level), b, g)
    assert calls == [g.n_cols + 1]
    # bitwise the product of the curve on the maturity nodes and b
    assert a.tobytes() == (level(g.T_nodes())[None, :] * b).tobytes()


# negative near T = 0 (the declared bounds are not checked here), so that a
# large jump turns the factor 1 + lambda*dL non-positive
_DIPPING_VOL = VolatilitySpec(
    terms=(constant_term(0.25), exp_decay_term(-1.35, 40.0)),
    lambda_lower=0.01, lambda_upper=0.25)


def _reference_field_b(vol, path, grid):
    """b of one path as a whole-path expression, the oracle of the block."""
    T = grid.T_nodes()
    drift_cum = cumtrapz(vol.on_grid(grid), grid.delta, axis=0) * path.drift_rate
    logs = np.zeros((path.n_jumps + 1, T.size))
    if path.n_jumps:
        a = vol.matrix(path.times, T) * path.sizes[:, None]
        logs[1:] = np.cumsum(np.log1p(a), axis=0)
    counts = np.searchsorted(path.times, grid.t_nodes(), side="right")
    return np.exp(drift_cum + logs[counts])


def _mixed_paths():
    """Zero-jump paths, simulated stable-like paths and, mid-block, a path
    whose second jump meets lambda(t, 0) = -1.1 with dL = 0.95."""
    stable = LevyModelSpec(0.0, 0.0, StableLike(c=1.0, alpha=1.5, y_max=1.0))
    sim = simulate_paths(stable, 1.0, [[k, 0] for k in range(4)], eps=1e-2)
    quiet = JumpPath(horizon=1.0, drift_rate=-0.3, times=np.empty(0),
                     sizes=np.empty(0))
    fatal = JumpPath(horizon=1.0, drift_rate=0.1, times=np.array([0.2, 0.5]),
                     sizes=np.array([0.3, 0.95]))
    return [quiet, sim[0], quiet, fatal, sim[1], quiet, sim[2], sim[3], quiet]


class TestFactorFieldBlocks:
    """A block's factor fields are each path's own, bitwise."""

    @pytest.mark.parametrize("size", [1, 4, 9])
    @pytest.mark.parametrize("order_seed", [1, 50_000, 1 << 16])
    def test_block_gives_each_path_its_own_field(self, size,
                                                 order_seed) -> None:
        # the paths are blocked in a shuffled order, so each path meets
        # other neighbours in its block
        grid = GridSpec(1.0 / 16.0, 1.0, 2.0, 1.0)
        order = np.random.default_rng(order_seed).permutation(9)
        mixed = _mixed_paths()
        paths = [mixed[k] for k in order]
        faults = []
        fields = []
        for i in range(0, len(paths), size):
            b, block_faults = factor_fields(_DIPPING_VOL, paths[i:i + size], grid)
            assert b.shape == (block_faults.count(None), *grid.shape)
            faults += block_faults
            fields += list(b)
        fault_of = dict(zip(order.tolist(), faults))
        assert isinstance(fault_of[3], NonPositiveFactor)
        assert "t=0.5 " in str(fault_of[3])
        assert [fault_of[k] for k in range(3)] == [None] * 3
        fields = iter(fields)
        for path, fault in zip(paths, faults):
            if fault is not None:
                with pytest.raises(NonPositiveFactor,
                                   match=re.escape(str(fault))):
                    field_b(_DIPPING_VOL, path, grid)
                continue
            b = next(fields)
            assert b.tobytes() == field_b(_DIPPING_VOL, path, grid).tobytes()
            assert b.tobytes() == _reference_field_b(_DIPPING_VOL, path,
                                                     grid).tobytes()

    def test_field_a_of_a_stack_is_each_fields_own(self) -> None:
        grid = GridSpec(1.0 / 16.0, 1.0, 2.0, 1.0)
        b, _ = factor_fields(_DIPPING_VOL, _mixed_paths(), grid)
        curve = exp_decay_curve(0.08, 0.4)
        stacked = field_a(curve, b, grid)
        assert stacked.shape == b.shape
        for k in range(len(b)):
            assert stacked[k].tobytes() == field_a(curve, b[k], grid).tobytes()
        with pytest.raises(DomainError, match="does not match grid"):
            field_a(curve, b[:, :-1], grid)
        with pytest.raises(DomainError, match="does not match grid"):
            field_a(curve, b[None], grid)

    @pytest.mark.parametrize("vol", [
        constant_volatility(0.25), time_affine_volatility(0.2, 0.3, 1.0)],
        ids=["constant", "time_affine"])
    def test_time_only_block_matches_the_full_width_oracle(self, vol) -> None:
        # ln b and its exponential are built on one maturity column and
        # broadcast; the oracle builds every column
        grid = GridSpec(1.0 / 16.0, 1.0, 2.0, 1.0)
        assert vol.time_only
        paths = _mixed_paths()
        b, faults = factor_fields(vol, paths, grid)
        assert faults == [None] * len(paths)
        assert b.shape == (len(paths), *grid.shape)
        assert b.flags.c_contiguous and b.flags.writeable
        for path, field in zip(paths, b):
            assert field.tobytes() == _reference_field_b(vol, path,
                                                         grid).tobytes()

    def test_block_without_jumps_or_paths(self) -> None:
        grid = _grid()
        vol = constant_volatility(0.2)
        quiet = JumpPath(horizon=1.0, drift_rate=2.0, times=np.empty(0),
                         sizes=np.empty(0))
        b, faults = factor_fields(vol, [quiet, quiet], grid)
        assert faults == [None, None]
        assert b[1].tobytes() == _reference_field_b(vol, quiet, grid).tobytes()
        b, faults = factor_fields(vol, [], grid)
        assert b.shape == (0, *grid.shape) and faults == []
