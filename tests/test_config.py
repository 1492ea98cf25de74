"""Run-configuration parsing and assumption gating."""

import copy
import inspect
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from hjmm import config, market, paths, solver
from hjmm.config import (
    SCHEMA_VERSION,
    load_config,
    parse_config,
)
from hjmm.errors import ConfigError
from hjmm.levy import gamma_subordinator
from hjmm.measures import GammaLike, PointMasses, StableLike, UserDensity
from hjmm.volatility import (constant_volatility, grid_violations,
                             time_affine_volatility)

from _lambda_oracle import lambda_standard


def _base_doc() -> dict:
    return {
        "version": 1,
        "levy": {
            "drift_a": "subordinator",
            "measure": {"family": "gamma_like", "c": 0.5, "beta": 2.0},
        },
        "volatility": {
            "terms": [{"kind": "constant", "level": 0.2}],
        },
        "initial_curve": {"family": "exponential_decay", "level": 0.08,
                          "rate": 0.4},
        "grid": {"delta": 0.125, "t_star": 1.0, "t_max": 2.0, "gamma": 1.0},
    }


def test_minimal_document_parses() -> None:
    cfg = parse_config(_base_doc())
    assert isinstance(cfg.levy.measure, GammaLike)
    assert cfg.levy.subordinator
    assert cfg.grid.delta == 0.125
    assert cfg.volatility.time_only
    assert cfg.solver["tol"] == 1e-9
    assert cfg.mc["n_paths"] == 100
    assert cfg.mc["master_seed"] == 0


def test_defaults_are_the_owning_modules_constants() -> None:
    # the solver section takes the solver's defaults and mc.eps the path
    # simulator's, the very objects that their signatures default to
    cfg = parse_config(_base_doc())
    assert cfg.solver == {"tol": solver.TOL, "max_iter": solver.MAX_ITER,
                          "explosion_threshold": solver.EXPLOSION_THRESHOLD}
    stack = inspect.signature(solver._solve_stack).parameters
    for key, value in cfg.solver.items():
        assert stack[key].default is value
    assert cfg.mc["eps"] is paths.TRUNCATION_EPS


def test_subordinator_drift_matches_small_jump_mean() -> None:
    cfg = parse_config(_base_doc())
    expected = gamma_subordinator(0.5, 2.0)
    assert cfg.levy.drift_a == pytest.approx(expected.drift_a, rel=1e-12)


def test_version_gate() -> None:
    doc = _base_doc()
    doc["version"] = 2
    with pytest.raises(ConfigError, match="version"):
        parse_config(doc)
    del doc["version"]
    with pytest.raises(ConfigError):
        parse_config(doc)
    assert SCHEMA_VERSION == 1


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_version_is_the_json_integer_one(version) -> None:
    doc = _base_doc()
    doc["version"] = version
    with pytest.raises(ConfigError, match="config.version must be the integer 1"):
        parse_config(doc)


@pytest.mark.parametrize("delta", [1e-300, 1e-310, 2.0 ** -11])
def test_too_fine_grid_is_a_config_error(delta, monkeypatch) -> None:
    # the cap is checked before the grid or any array is built
    def no_grid(*args):
        raise AssertionError("GridSpec built")

    monkeypatch.setattr(config, "GridSpec", no_grid)
    doc = _base_doc()
    doc["grid"]["delta"] = delta
    with pytest.raises(ConfigError, match="grid.delta .* more than 4194304 cells"):
        parse_config(doc)


def test_grid_below_the_cell_cap_parses() -> None:
    # 1025 x 2049 cells at delta = 1/1024 on t_star = 1, t_max = 2
    doc = _base_doc()
    doc["grid"]["delta"] = 2.0 ** -10
    assert parse_config(doc).grid.n_cols == 2048


def test_missing_sections_reported_by_name() -> None:
    for key in ("levy", "volatility", "initial_curve", "grid"):
        doc = _base_doc()
        del doc[key]
        with pytest.raises(ConfigError, match=key):
            parse_config(doc)


def test_a1_violation_names_the_assumption() -> None:
    doc = _base_doc()
    doc["initial_curve"] = {"family": "affine", "intercept": 0.1,
                            "slope": -0.2}
    with pytest.raises(ConfigError, match=r"\(A1\)"):
        parse_config(doc)


def test_a2_violation_names_the_assumption() -> None:
    # atom at -6 against lambda_upper = 0.2 breaks the support condition
    doc = _base_doc()
    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "point_masses",
                               "atoms": [[-6.0, 1.0]]}}
    with pytest.raises(ConfigError, match=r"\(A2\)"):
        parse_config(doc)


def test_a3_violation_names_the_assumption() -> None:
    doc = _base_doc()
    doc["volatility"] = {"terms": [{"kind": "time_affine", "intercept": 0.1,
                                    "slope": -0.5}]}
    with pytest.raises(ConfigError, match=r"\(A3\)"):
        parse_config(doc)


def test_a4_violation_names_the_assumption() -> None:
    # alpha >= 1 with unbounded support fails the tail moment; emulate a
    # heavy tail with a user density ~ y^-2
    doc = _base_doc()
    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "user_density",
                               "expression": "1.0 / (1.0 + y)**2"}}
    with pytest.raises(ConfigError, match=r"\(A4\)"):
        parse_config(doc)


def test_a4_divergent_small_jumps_name_the_assumption() -> None:
    # y^2 * y^-3.5 is not integrable at 0: the quadrature of the
    # small-jump part gives up, which is an (A4) failure, not a crash
    doc = _base_doc()
    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "user_density",
                               "expression": "y**(-3.5)*exp(-y)"}}
    with pytest.raises(ConfigError, match=r"\(A4\).*small-jump part inf"):
        parse_config(doc)


def test_measure_families_constructed() -> None:
    doc = _base_doc()
    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "stable_like", "c": 1.0,
                               "alpha": 0.5, "y_max": 1.0}}
    cfg = parse_config(doc)
    assert isinstance(cfg.levy.measure, StableLike)

    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "point_masses",
                               "atoms": [[0.5, 1.0], [2.0, 0.5]]}}
    cfg = parse_config(doc)
    assert isinstance(cfg.levy.measure, PointMasses)


def test_missing_measure_means_no_jumps() -> None:
    doc = _base_doc()
    doc["levy"] = {"drift_a": 1.5}
    cfg = parse_config(doc)
    assert isinstance(cfg.levy.measure, PointMasses)
    assert cfg.levy.measure.atoms == ()


def test_unknown_measure_family_rejected() -> None:
    doc = _base_doc()
    doc["levy"]["measure"] = {"family": "cauchy"}
    with pytest.raises(ConfigError, match="cauchy"):
        parse_config(doc)


class TestUserDensityExpression:
    def _doc(self, expression: str) -> dict:
        doc = _base_doc()
        doc["levy"] = {"drift_a": 0.0,
                       "measure": {"family": "user_density",
                                   "expression": expression,
                                   "a4_certified": True}}
        return doc

    def test_whitelisted_names_evaluate(self) -> None:
        cfg = parse_config(self._doc("exp(-2.0 * y)"))
        assert isinstance(cfg.levy.measure, UserDensity)
        assert cfg.levy.measure.a4_certified

    def test_disallowed_name_rejected(self) -> None:
        with pytest.raises(ConfigError, match="not allowed"):
            parse_config(self._doc("__import__('os').getcwd() and y"))

    def test_open_rejected(self) -> None:
        with pytest.raises(ConfigError, match="not allowed"):
            parse_config(self._doc("open('/etc/passwd') and y"))

    def test_negative_density_rejected(self) -> None:
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config(self._doc("-exp(-y)"))

    def test_syntax_error_rejected(self) -> None:
        with pytest.raises(ConfigError, match="bad expression"):
            parse_config(self._doc("exp(-y"))

    @pytest.mark.parametrize("drift", [0.0, "subordinator"])
    @pytest.mark.parametrize("expression", [
        # a float passes `if`/`else`; the array of the rule's nodes does not
        "exp(-2*y)/y if y < 5 else 0.0",
        # an array takes a subscript; the quadrature's floats do not
        "exp(-2*y)/y + 0*y[0]"])
    def test_expression_failing_on_arrays_rejected(self, drift,
                                                   expression) -> None:
        doc = self._doc(expression)
        doc["levy"]["drift_a"] = drift
        with pytest.raises(ConfigError, match="^levy.measure: density "
                                              "failed on the rule's nodes: "):
            parse_config(doc)


def test_volatility_term_sum() -> None:
    doc = _base_doc()
    doc["volatility"] = {"terms": [
        {"kind": "constant", "level": 0.1},
        {"kind": "exp_decay", "level": 0.2, "rate": 0.5},
    ]}
    cfg = parse_config(doc)
    assert not cfg.volatility.time_only
    got = lambda_standard(cfg.volatility, 0.3, 1.0)
    assert got == pytest.approx(0.1 + 0.2 * math.exp(-0.5))


# term mixes with their exact sup |d lambda / dT| (at T = 0)
_DECAY_MIXES = [
    ([{"kind": "exp_decay", "level": 0.2, "rate": 1.5}], 0.2 * 1.5),
    ([{"kind": "time_affine", "intercept": 0.1, "slope": 0.05},
      {"kind": "exp_decay", "level": 0.2, "rate": 0.5}], 0.2 * 0.5),
    ([{"kind": "exp_decay", "level": 0.1, "rate": 2.0},
      {"kind": "exp_decay", "level": 0.15, "rate": 0.7}], 0.1 * 2.0 + 0.15 * 0.7),
]


@pytest.mark.parametrize("delta", [1 / 8, 1 / 16, 1 / 32, 1 / 128])
@pytest.mark.parametrize("terms, exact", _DECAY_MIXES,
                         ids=["exp_decay", "time_affine+exp_decay",
                              "two_exp_decay"])
def test_derived_bounds_pass_grid_violations(terms, exact, delta) -> None:
    doc = _base_doc()
    doc["volatility"] = {"terms": terms}
    doc["grid"]["delta"] = delta
    cfg = parse_config(doc)
    assert grid_violations(cfg.volatility, cfg.grid) == []
    bound = cfg.volatility.x_derivative_bound
    assert exact <= bound <= exact * (1 + 1e-4)


# terms of mixed sign, with a minimum or the steepest point off the corners
_MIXED_SIGN = {
    "three_terms": [{"kind": "constant", "level": 0.3},
                    {"kind": "exp_decay", "level": -0.1, "rate": 0.5},
                    {"kind": "exp_decay", "level": 0.1, "rate": 2.5}],
    "two_exp_decay": [{"kind": "exp_decay", "level": 0.3, "rate": 1.0},
                      {"kind": "exp_decay", "level": -0.1, "rate": 3.0}],
}


@pytest.mark.parametrize("name", sorted(_MIXED_SIGN))
def test_mixed_sign_bounds_pass_grid_violations(name) -> None:
    # the parser samples the maturities grid_violations checks
    for delta in (1 / 32, 1 / 128):
        for t_max in (4.0, 8.0):
            doc = _base_doc()
            doc["volatility"] = {"terms": _MIXED_SIGN[name]}
            doc["grid"].update(delta=delta, t_max=t_max)
            cfg = parse_config(doc)
            assert grid_violations(cfg.volatility, cfg.grid) == [], (
                delta, t_max)


@pytest.mark.parametrize("term, direct", [
    ({"kind": "constant", "level": 0.2}, constant_volatility(0.2)),
    ({"kind": "time_affine", "intercept": 0.2, "slope": 0.1},
     time_affine_volatility(0.2, 0.1, 1.0)),
], ids=["constant", "time_affine"])
def test_time_only_kinds_match_the_direct_builders(term, direct) -> None:
    doc = _base_doc()
    doc["volatility"] = {"terms": [term]}
    cfg = parse_config(doc)
    vol = cfg.volatility
    assert np.array_equal(vol.on_grid(cfg.grid), direct.on_grid(cfg.grid))
    assert (vol.lambda_lower, vol.lambda_upper, vol.x_derivative_bound,
            vol.time_only) == (direct.lambda_lower, direct.lambda_upper,
                               direct.x_derivative_bound, direct.time_only)


def test_volatility_bounds_overridable() -> None:
    doc = _base_doc()
    doc["volatility"]["lambda_lower"] = 0.15
    doc["volatility"]["lambda_upper"] = 0.25
    cfg = parse_config(doc)
    assert cfg.volatility.lambda_lower == 0.15
    assert cfg.volatility.lambda_upper == 0.25


def test_volatility_bounds_must_enclose_sampled_factor() -> None:
    # lambda_upper 0.2 under a factor of 0.5 would check (A2) against -5
    # and admit the atom at -4, where 1 + 0.5 * (-4) = -1
    doc = _base_doc()
    doc["volatility"] = {"terms": [{"kind": "constant", "level": 0.5}],
                         "lambda_lower": 0.1, "lambda_upper": 0.2}
    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "point_masses",
                               "atoms": [[-4.0, 1.0]]}}
    with pytest.raises(ConfigError, match=r"\(A3\).*enclose"):
        parse_config(doc)
    # the factor 0.2 + 0.3 t spans [0.2, 0.5]; a lower bound of 0.3 is false
    doc = _base_doc()
    doc["volatility"] = {"terms": [{"kind": "time_affine", "intercept": 0.2,
                                    "slope": 0.3}],
                         "lambda_lower": 0.3, "lambda_upper": 0.6}
    with pytest.raises(ConfigError, match=r"\(A3\).*enclose"):
        parse_config(doc)
    doc["volatility"]["lambda_lower"] = 0.2
    assert parse_config(doc).volatility.lambda_upper == 0.6


def test_nonpositive_declared_lower_bound_rejected() -> None:
    doc = _base_doc()
    doc["volatility"]["lambda_lower"] = -0.1
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == (
        "(A3) volatility bounds invalid: need 0 < lambda_lower <= "
        "lambda_upper, got (-0.1, 0.2)")


@pytest.mark.parametrize("section, key, value", [
    ("solver", "max_iters", 5),
    ("grid", "gama", 3.0),
    ("outputs", "write_json", False),
    ("mc", "seed", 4),
    ("levy", "drift", 0.0),
    ("volatility", "lambda_max", 0.3),
    ("initial_curve", "slope", 0.1),
    (None, "solvers", {}),
])
def test_unknown_keys_rejected_by_name(section, key, value) -> None:
    doc = _base_doc()
    target = doc if section is None else doc.setdefault(section, {})
    target[key] = value
    with pytest.raises(ConfigError, match=f"'{key}'.*allowed"):
        parse_config(doc)


@pytest.mark.parametrize("section, key, value", [
    ("levy.measure", "a4_certified", "false"),
    ("levy", "subordinator", "no"),
    ("solver", "max_iter", True),
    ("solver", "tol", True),
    ("solver", "explosion_threshold", True),
    ("mc", "n_paths", True),
    ("mc", "master_seed", False),
])
def test_flags_and_counts_take_only_their_json_type(section, key, value) -> None:
    # bool("false") is True and True counts as the integer 1 in Python
    doc = _base_doc()
    doc["levy"] = {"drift_a": 0.0,
                   "measure": {"family": "user_density",
                               "expression": "0.5*exp(-2*y)/y"}}
    target = doc
    for name in section.split("."):
        target = target.setdefault(name, {})
    target[key] = value
    with pytest.raises(ConfigError, match=f"'?{key}'? must be"):
        parse_config(doc)


def test_unknown_keys_in_tagged_objects_rejected() -> None:
    doc = _base_doc()
    doc["levy"]["measure"]["betta"] = 3.0
    with pytest.raises(ConfigError, match="'betta'.*allowed: family, c, beta"):
        parse_config(doc)
    doc = _base_doc()
    doc["volatility"]["terms"][0]["rate"] = 0.5
    with pytest.raises(ConfigError, match=r"terms\[0\].*'rate'"):
        parse_config(doc)
    doc["volatility"]["terms"] = [0.2]
    with pytest.raises(ConfigError, match=r"terms\[0\] must be an object"):
        parse_config(doc)


def test_solver_and_mc_validation() -> None:
    doc = _base_doc()
    doc["solver"] = {"tol": -1.0}
    with pytest.raises(ConfigError, match="tol"):
        parse_config(doc)

    doc = _base_doc()
    doc["solver"] = {"max_iter": 0}
    with pytest.raises(ConfigError, match="max_iter"):
        parse_config(doc)

    doc = _base_doc()
    doc["mc"] = {"n_paths": "many"}
    with pytest.raises(ConfigError, match="n_paths"):
        parse_config(doc)

    doc = _base_doc()
    doc["mc"] = {"master_seed": -3}
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config(doc)


@pytest.mark.parametrize("key, value", [
    ("t_checkpoints", "ab"),
    ("t_checkpoints", 0.5),
    ("t_checkpoints", []),
    ("t_checkpoints", [True]),
    ("t_checkpoints", [0.3]),
    ("t_checkpoints", [1.5]),
    ("t_checkpoints", [math.inf]),
    ("T_checkpoints", {"T": 1.0}),
    ("T_checkpoints", [1.0, None]),
    ("T_checkpoints", [2.5]),
    ("T_checkpoints", [-0.125]),
])
def test_mc_checkpoints_must_be_grid_nodes(key, value) -> None:
    doc = _base_doc()
    doc["mc"] = {key: value}
    with pytest.raises(ConfigError, match=f"mc.{key}"):
        parse_config(doc)


@pytest.mark.parametrize("key, value", [
    ("t_checkpoints", None),
    ("t_checkpoints", [0.0, 0.5, 1]),
    ("T_checkpoints", [0.125, 2]),
])
def test_mc_checkpoints_accept_null_and_grid_nodes(key, value) -> None:
    doc = _base_doc()
    doc["mc"] = {key: value}
    assert parse_config(doc).mc[key] == value


HUGE_INT = 10 ** 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("section, key", [
    ("mc", "eps"),
    ("grid", "delta"),
    ("solver", "tol"),
    ("solver", "explosion_threshold"),
    ("levy.measure", "beta"),
    ("levy", "drift_a"),
    ("levy", "gaussian_q"),
    ("initial_curve", "level"),
])
def test_huge_integer_is_a_config_error_naming_the_key(section, key) -> None:
    doc = _base_doc()
    target = doc
    for name in section.split("."):
        target = target.setdefault(name, {})
    target[key] = HUGE_INT
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)


@pytest.mark.parametrize("section, value", [
    ("levy", {"drift_a": 0.0, "measure": {"family": "point_masses",
                                          "atoms": [[HUGE_INT, 1.0]]}}),
    ("initial_curve", {"family": "table",
                       "points": [[0.0, 0.1], [HUGE_INT, 0.1]]}),
    # a JSON boolean is not a number inside a list either
    ("levy", {"drift_a": 0.0, "measure": {"family": "point_masses",
                                          "atoms": [[True, 1.0]]}}),
    ("levy", {"drift_a": 0.0, "measure": {"family": "point_masses",
                                          "atoms": [[0.5, True]]}}),
    ("initial_curve", {"family": "table",
                       "points": [[0.0, 0.1], [2.0, True]]}),
])
def test_huge_integer_in_a_list_is_a_config_error(section, value) -> None:
    doc = _base_doc()
    doc[section] = value
    key = {"levy": "levy.measure.atoms",
           "initial_curve": "initial_curve.points"}[section]
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)


@pytest.mark.parametrize("value", [HUGE_INT, sys.maxsize + 1])
@pytest.mark.parametrize("section, key", [("mc", "n_paths"),
                                          ("solver", "max_iter")])
def test_count_beyond_maxsize_is_a_config_error(section, key, value) -> None:
    doc = _base_doc()
    doc[section] = {key: value}
    with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
        parse_config(doc)
    doc[section] = {key: sys.maxsize}
    assert getattr(parse_config(doc), section)[key] == sys.maxsize


@pytest.mark.parametrize("key, value", [
    ("directory", 5),
    ("directory", ""),
    ("directory", None),
    ("directory", ["out"]),
    ("write_csv", "no"),
    ("write_csv", 0),
    ("write_csv", None),
])
def test_outputs_take_only_their_json_type(key, value) -> None:
    doc = _base_doc()
    doc["outputs"] = {key: value}
    with pytest.raises(ConfigError, match=f"outputs.{key} must be"):
        parse_config(doc)


def test_every_key_the_reader_accepts_is_in_the_readme() -> None:
    # a key counts as documented when the README writes it as `key`,
    # "key" (the JSON example) or as the end of a dotted `section.key`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    tables = [config._DOCUMENT, config._GRID, config._LEVY,
              config._VOLATILITY, config._SOLVER, config._MC,
              config._OUTPUTS]
    for tag, builders in (("family", config._MEASURES),
                          ("kind", config._TERMS),
                          ("family", config._CURVES)):
        for name, (_, table) in builders.items():
            tables.append({tag: None, name: None, **table})
    missing = sorted({key for table in tables for key in table
                      if not re.search(rf"[`\".]{re.escape(key)}[`\"]",
                                       readme)})
    assert missing == []


def test_curve_families() -> None:
    doc = _base_doc()
    doc["initial_curve"] = {"family": "table",
                            "points": [[0.0, 0.10], [2.0, 0.04]]}
    cfg = parse_config(doc)
    assert cfg.curve(1.0) == pytest.approx(0.07)

    doc["initial_curve"] = {"family": "constant", "level": 0.05}
    cfg = parse_config(doc)
    assert cfg.curve(1.7) == pytest.approx(0.05)


def _entry_bytes(entry) -> list:
    """Every array and number of a pipeline entry, as bytes."""
    path, b, a, report = entry
    return [np.asarray(x, dtype=float).tobytes() for x in (
        path.times, path.sizes, b, a, report.sup_diffs, report.norm_trace,
        report.increment_mins, report.final_field.values,
        report.error_estimate)] + [report.status, report.iterations]


def test_run_config_methods_are_their_library_calls() -> None:
    # settings away from their defaults, so a section the methods drop
    # changes the outputs
    doc = _base_doc()
    doc["solver"] = {"tol": 1e-3, "max_iter": 40, "explosion_threshold": 1e6}
    doc["mc"] = {"n_paths": 3, "eps": 1e-2, "t_checkpoints": [0.5],
                 "T_checkpoints": [1.5, 2.0]}
    cfg = parse_config(doc)
    seeds = [[5, k] for k in range(3)]
    written = solver.solve_paths(cfg.levy, cfg.volatility, cfg.curve,
                                 cfg.grid, seeds, 1e-2, tol=1e-3, max_iter=40,
                                 explosion_threshold=1e6)
    assert ([_entry_bytes(e) for e in cfg.solve_paths(seeds)]
            == [_entry_bytes(e) for e in written])
    for grid, given in ((cfg.grid, None), (cfg.grid.refine(2),) * 2):
        written = solver.solve_path(cfg.levy, cfg.volatility, cfg.curve,
                                    grid, [5, 1], 1e-2, tol=1e-3, max_iter=40,
                                    explosion_threshold=1e6)
        assert (_entry_bytes(cfg.solve_path([5, 1], given))
                == _entry_bytes(written))
    written = market.martingale_test(
        cfg.levy, cfg.volatility, cfg.curve, cfg.grid, n_paths=3,
        master_seed=5, eps=1e-2, t_checkpoints=[0.5], T_checkpoints=[1.5, 2.0],
        threads=2, tol=1e-3, max_iter=40, explosion_threshold=1e6)
    assert repr(cfg.martingale_test(5, threads=2)) == repr(written)


def test_load_config_roundtrip(tmp_path) -> None:
    p = tmp_path / "run.json"
    p.write_text(json.dumps(_base_doc()))
    cfg = load_config(str(p))
    assert cfg.grid.t_max == 2.0
    assert cfg.raw["version"] == 1


def test_raw_document_not_mutated() -> None:
    doc = _base_doc()
    snapshot = copy.deepcopy(doc)
    parse_config(doc)
    assert doc == snapshot
