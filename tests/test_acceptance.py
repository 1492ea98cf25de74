"""End-to-end acceptance checks at desk scale.

Each test prints one PASS/FAIL line with the measured quantity next to
its tolerance, bypassing capture so the summary is visible in plain
pytest runs.
"""

import math
import time

import numpy as np

from hjmm import (
    GridSpec,
    JumpPath,
    LevyModelSpec,
    PointMasses,
    RateField,
    StableLike,
    Verdict,
    VolatilitySpec,
    affine_curve,
    constant_curve,
    constant_volatility,
    drift_only,
    exp_decay_curve,
    exponent,
    exponent_derivative,
    classify_growth,
    field_a,
    field_b,
    gamma_subordinator,
    martingale_test,
    simulate_path,
    solve_fixed_point,
    strong_residual,
    time_affine_volatility,
    uniqueness_contraction_check,
)
from hjmm.curves import InitialCurve

CLOSED_FORM_BUDGET_S = 10.0
CLASSIFIER_BUDGET_S = 1.0
MC_BUDGET_S = 300.0
MONOTONE_SLACK = 1e-12
EXPONENT_RTOL = 1e-8
FD_RTOL = 1e-6
FD_STEP = 1e-6
TWO_START_TOL = 1e-6
JUMP_RELATION_TOL = 1e-10
PRODUCT_RTOL = 1e-12


def _announce(capsys, index: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"acceptance {index:2d}/10 {label}: {verdict} ({detail})")


def _separable_volatility() -> VolatilitySpec:
    # two separable terms, one maturity-dependent, both positive on the box
    def a1(t):
        return 0.1 + 0.05 * np.asarray(t, dtype=float)

    def b1(T):
        return np.exp(-0.2 * np.asarray(T, dtype=float))

    def a2(t):
        return np.full_like(np.asarray(t, dtype=float), 0.1)

    def b2(T):
        return np.ones_like(np.asarray(T, dtype=float))

    return VolatilitySpec(terms=((a1, b1), (a2, b2)), lambda_lower=0.05,
                          lambda_upper=0.35, x_derivative_bound=0.05,
                          time_only=False)


def _drift_path(grid: GridSpec, rate: float) -> JumpPath:
    return JumpPath(horizon=grid.t_star, drift_rate=rate, times=np.empty(0),
                    sizes=np.empty(0))


def _solve(spec, vol, curve, grid, path, **kwargs):
    b = field_b(vol, path, grid)
    a = field_a(curve, b, grid)
    return solve_fixed_point(a, vol, spec, grid, **kwargs)


def test_deterministic_driver_reproduces_translated_curve(capsys) -> None:
    grid = GridSpec(delta=1.0 / 64.0, t_star=1.0, t_max=2.0, gamma=1.0)
    spec = drift_only(2.0)
    vol = _separable_volatility()
    curve = affine_curve(1.0, 1.0)
    started = time.perf_counter()
    report = _solve(spec, vol, curve, grid, _drift_path(grid, 2.0), tol=1e-12)
    elapsed = time.perf_counter() - started
    values = report.final_field.values
    T = grid.T_nodes()
    worst = 0.0
    for i in range(grid.n_t + 1):
        # r(t_i, x) = f(t_i, t_i + x) lives on columns j >= i
        row_err = np.abs(values[i, i:] - (1.0 + T[i:]))
        worst = max(worst, float(np.max(row_err)))
    tol = 5.0 * grid.delta ** 2
    ok = report.converged and worst <= tol and elapsed < CLOSED_FORM_BUDGET_S
    _announce(capsys, 1, "deterministic closed form", ok,
              f"max|r-(1+t+x)| = {worst:.3e} vs {tol:.3e}, {elapsed:.2f} s")
    assert ok


def test_iterates_nondecreasing_over_seeded_runs(capsys) -> None:
    grid = GridSpec(delta=1.0 / 16.0, t_star=1.0, t_max=2.0, gamma=1.0)
    spec = gamma_subordinator(0.5, 2.0)
    vol = constant_volatility(0.2)
    curve = exp_decay_curve(0.08, 0.4)
    worst = math.inf
    all_converged = True
    for s in range(20):
        path = simulate_path(spec, grid.t_star, [1000 + s, 0])
        report = _solve(spec, vol, curve, grid, path, tol=1e-11)
        all_converged = all_converged and report.converged
        worst = min(worst, min(report.increment_mins))
    ok = all_converged and worst >= -MONOTONE_SLACK
    _announce(capsys, 2, "monotone iteration on 20 seeds", ok,
              f"min increment {worst:.3e} >= {-MONOTONE_SLACK:.0e}")
    assert ok


def test_growth_classifier_truth_table(capsys) -> None:
    started = time.perf_counter()
    gaussian = LevyModelSpec(drift_a=0.0, gaussian_q=1.0,
                             measure=PointMasses(()))
    negative_atom = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                                  measure=PointMasses(((-0.5, 1.0),)))
    stable_heavy = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                                 measure=StableLike(c=1.0, alpha=0.5,
                                                    y_max=1.0))
    stable_light = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                                 measure=StableLike(c=1.0, alpha=1.5,
                                                    y_max=1.0))
    cases = [
        (classify_growth(gaussian, 1.0, 1.0), Verdict.EXPLOSION, None),
        (classify_growth(negative_atom, 1.0, 1.0), Verdict.EXPLOSION, None),
        (classify_growth(gamma_subordinator(0.5, 2.0), 1.0, 1.0),
         Verdict.EXISTENCE, None),
        (classify_growth(stable_heavy, 1.0, 1.0), Verdict.EXISTENCE, 1.5),
        (classify_growth(stable_light, 1.0, 1.0), Verdict.EXPLOSION, 0.5),
    ]
    elapsed = time.perf_counter() - started
    verdicts_ok = all(got.verdict == want for got, want, _ in cases)
    rho_ok = all(rho is None or got.rho == rho for got, _, rho in cases)
    ok = verdicts_ok and rho_ok and elapsed < CLASSIFIER_BUDGET_S
    _announce(capsys, 3, "classifier truth table", ok,
              f"5/5 verdicts, {elapsed:.3f} s")
    assert ok


def test_exponent_oracle_and_finite_differences(capsys) -> None:
    spec = gamma_subordinator(1.0, 1.0)
    worst_value = 0.0
    for z in (0.5, math.e - 1.0, 10.0):
        expected = -math.log1p(z)
        rel = abs(exponent(spec, z) - expected) / abs(expected)
        worst_value = max(worst_value, rel)
    # the point z = e-1 has the exact value -1
    assert abs(exponent(spec, math.e - 1.0) + 1.0) <= EXPONENT_RTOL

    worst_fd = 0.0
    for z in np.linspace(0.1, 50.0, 25):
        h = FD_STEP
        fd1 = (exponent(spec, z + h) - exponent(spec, z - h)) / (2.0 * h)
        d1 = exponent_derivative(spec, z, 1)
        worst_fd = max(worst_fd, abs(fd1 - d1) / abs(d1))
        # second derivative from differencing the first; differencing J
        # twice would amplify quadrature noise past the tolerance
        fd2 = (exponent_derivative(spec, z + h, 1)
               - exponent_derivative(spec, z - h, 1)) / (2.0 * h)
        d2 = exponent_derivative(spec, z, 2)
        worst_fd = max(worst_fd, abs(fd2 - d2) / abs(d2))
    ok = worst_value <= EXPONENT_RTOL and worst_fd <= FD_RTOL
    _announce(capsys, 4, "exponent cross-checks", ok,
              f"value rel {worst_value:.2e} vs 1e-08, "
              f"fd rel {worst_fd:.2e} vs 1e-06")
    assert ok


def test_heavy_tail_model_explodes_within_budget(capsys) -> None:
    grid = GridSpec(delta=1.0 / 16.0, t_star=1.0, t_max=2.0, gamma=1.0)
    spec = LevyModelSpec(drift_a=0.0, gaussian_q=0.0,
                         measure=StableLike(c=1.0, alpha=1.5, y_max=1.0))
    vol = constant_volatility(0.25)
    curve = constant_curve(100.0)
    exploded = 0
    for s in range(20):
        path = simulate_path(spec, grid.t_star, [900 + s, 0], eps=1e-2)
        report = _solve(spec, vol, curve, grid, path, tol=1e-9, max_iter=50,
                        explosion_threshold=1e6)
        trace = np.asarray(report.norm_trace)
        finite = trace[np.isfinite(trace)]
        monotone = bool(np.all(np.diff(finite) >= 0.0))
        if report.status == "Exploded" and monotone:
            exploded += 1
    ok = exploded >= 18
    _announce(capsys, 5, "explosion demonstration", ok,
              f"{exploded}/20 seeds exceeded 1e6 monotonically")
    assert ok


def test_two_start_agreement_and_iterated_bound(capsys) -> None:
    grid = GridSpec(delta=1.0 / 16.0, t_star=1.0, t_max=2.0, gamma=1.0)
    spec = gamma_subordinator(0.5, 2.0)
    vol = constant_volatility(0.2)
    curve = exp_decay_curve(0.08, 0.4)
    path = simulate_path(spec, grid.t_star, [15, 0])
    b = field_b(vol, path, grid)
    a = field_a(curve, b, grid)
    first = solve_fixed_point(a, vol, spec, grid, tol=1e-11)
    doubled = RateField(2.0 * first.final_field.values, grid)
    second = solve_fixed_point(a, vol, spec, grid, tol=1e-11, initial=doubled)
    distance = float(np.max(np.abs(first.final_field.values
                                   - second.final_field.values)))

    level = 0.25
    low = RateField(np.full_like(a, 0.10), grid)
    high = RateField(np.full_like(a, 0.10 + level), grid)
    rep = uniqueness_contraction_check(low, high, spec, vol, grid, n_iter=5)
    uw = grid.t_star * grid.t_max
    closed_form_ok = True
    observed_ok = True
    for m, (bound, observed) in enumerate(zip(rep.analytic_bounds,
                                              rep.observed_sups), start=1):
        expected = (level * rep.k_constant ** m * uw ** m
                    / math.factorial(m) ** 2)
        closed_form_ok = closed_form_ok and math.isclose(
            bound, expected, rel_tol=1e-12)
        observed_ok = observed_ok and observed <= bound * (1.0 + 1e-9)
    ok = (first.converged and second.converged
          and distance < TWO_START_TOL and closed_form_ok and observed_ok)
    _announce(capsys, 6, "uniqueness two-start", ok,
              f"sup distance {distance:.3e} vs 1e-06, "
              f"factorial-squared bound pattern exact")
    assert ok


def test_discounted_prices_stay_centered(capsys) -> None:
    spec = gamma_subordinator(0.5, 4.0)
    vol = constant_volatility(0.2)
    curve = InitialCurve(
        func=lambda u: 0.08 + 0.175 * np.exp(-4.0 * np.asarray(u, dtype=float)),
        label="steep_decay")
    coarse = GridSpec(delta=1.0 / 32.0, t_star=1.0, t_max=2.0, gamma=1.0)
    fine = coarse.refine(2)
    started = time.perf_counter()
    rep_coarse = martingale_test(spec, vol, curve, coarse, n_paths=10_000,
                                 master_seed=424242)
    rep_fine = martingale_test(spec, vol, curve, fine, n_paths=10_000,
                               master_seed=424242)
    elapsed = time.perf_counter() - started
    ratio = rep_coarse.mean_abs_deviation / rep_fine.mean_abs_deviation
    ok = (rep_coarse.valid and rep_fine.valid
          and rep_coarse.n_excluded == 0 and rep_fine.n_excluded == 0
          and rep_coarse.max_abs_z <= 4.0 and rep_fine.max_abs_z <= 4.0
          and ratio >= 1.5 and elapsed < MC_BUDGET_S)
    _announce(capsys, 7, "martingale self-consistency", ok,
              f"max|z| {rep_coarse.max_abs_z:.2f}/{rep_fine.max_abs_z:.2f} "
              f"vs 4, deviation ratio {ratio:.2f} vs 1.5, {elapsed:.0f} s")
    assert ok


def test_strong_residual_shrinks_under_refinement(capsys) -> None:
    spec = gamma_subordinator(0.5, 2.0)
    vol = time_affine_volatility(0.2, 0.1, 1.0)
    curve = exp_decay_curve(0.08, 0.4)
    path = simulate_path(spec, 1.0, [31, 0])
    residuals = []
    jump_worst = 0.0
    for delta in (1.0 / 8.0, 1.0 / 16.0):
        grid = GridSpec(delta=delta, t_star=1.0, t_max=2.0, gamma=1.0)
        report = _solve(spec, vol, curve, grid, path, tol=1e-13)
        assert report.converged
        res = strong_residual(report.final_field, vol, spec, path, grid)
        residuals.append(res.time_residual_max)
        jump_worst = max(jump_worst, res.jump_relation_max_error)
    ratio = residuals[0] / residuals[1]
    ok = ratio >= 1.5 and jump_worst < JUMP_RELATION_TOL
    _announce(capsys, 8, "strong-form residual", ok,
              f"shrink ratio {ratio:.2f} vs 1.5, "
              f"jump relation {jump_worst:.2e} vs 1e-10")
    assert ok


def test_integral_and_sup_embeddings_hold(capsys) -> None:
    grid = GridSpec(delta=1.0 / 16.0, t_star=1.0, t_max=2.0, gamma=1.0)
    gamma = grid.gamma
    delta = grid.delta
    u = gamma * delta
    # trapezoid and left-endpoint weight sums exceed the integral of
    # e^{-gamma x} by these factors, which is the only slack needed
    kappa_int = math.sqrt((u / 2.0) / math.tanh(u / 2.0))
    kappa_sup = math.sqrt(u / -math.expm1(-u))
    x = np.arange(grid.n_cols + 1) * delta
    weight = np.exp(gamma * x)
    rng = np.random.default_rng(4242)
    held = 0
    for _ in range(100):
        coeffs = rng.normal(size=6)
        base = coeffs[0] + sum(
            c * np.cos((k + 1) * math.pi * x / grid.t_max)
            for k, c in enumerate(coeffs[1:]))
        h = base * base + rng.uniform(0.0, 0.5)
        integral = float(np.trapezoid(h, dx=delta))
        l2_sq = float(np.trapezoid(h * h * weight, dx=delta))
        fwd = np.diff(h) / delta
        h1 = math.sqrt(l2_sq + float(np.sum(delta * fwd * fwd * weight[:-1])))
        bound_int = kappa_int * math.sqrt(l2_sq) / math.sqrt(gamma)
        bound_sup = float(h[0]) + kappa_sup * h1 / math.sqrt(gamma)
        if (integral <= bound_int + 1e-12
                and float(np.max(h)) <= bound_sup + 1e-12):
            held += 1
    ok = held == 100
    _announce(capsys, 9, "norm embeddings", ok,
              f"{held}/100 random curves satisfied both inequalities")
    assert ok


def test_jump_factor_equals_explicit_product(capsys) -> None:
    grid = GridSpec(delta=1.0 / 16.0, t_star=1.0, t_max=2.0, gamma=1.0)
    vol = _separable_volatility()
    t_nodes = grid.t_nodes()
    T_nodes = grid.T_nodes()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        gaps = rng.uniform(0.05, 0.30, size=n)
        times = np.cumsum(gaps)
        times = times[times <= grid.t_star]
        if times.size == 0:
            times = np.array([float(rng.uniform(0.1, 0.9))])
        sizes = rng.uniform(0.2, 2.0, size=times.size)
        path = JumpPath(horizon=grid.t_star, drift_rate=0.0, times=times,
                        sizes=sizes)
        b = field_b(vol, path, grid)
        manual = np.ones_like(b)
        for s, y in zip(times, sizes):
            factor = 1.0 + vol.standard(s, T_nodes) * y
            manual[t_nodes >= s, :] *= factor[None, :]
        rel = np.max(np.abs(b - manual) / manual)
        worst = max(worst, float(rel))
    ok = worst <= PRODUCT_RTOL
    _announce(capsys, 10, "jump factor product identity", ok,
              f"worst relative error {worst:.2e} vs 1e-12 on 1000 paths")
    assert ok
