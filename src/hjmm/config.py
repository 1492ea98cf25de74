"""Run configuration: one JSON document per reproducible run.

The document is versioned and carries everything a pipeline needs: the
noise model, the volatility structure, the initial curve, the grid, and
the solver / Monte Carlo / output settings.  Loading validates the
standing assumptions and reports violations by their labels:

    (A1) the initial curve is positive,
    (A2) jumps below -1/lambda_upper have measure zero,
    (A3) the volatility factor is bounded away from zero and infinity
         with a bounded maturity derivative,
    (A4) the jump measure integrates min(y^2, y).

Each tagged object (measure family, volatility term kind, curve family)
maps its tag to a builder and the keys it reads; the volatility's term
builders and its (A3) constants come from ``volatility``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .curves import (InitialCurve, affine_curve, constant_curve,
                     exp_decay_curve, require_positive_on, table_curve)
from .errors import ConfigError, NonPositiveInitialCurve
from .grids import GridSpec
from .levy import LevyModelSpec, check_assumptions
from .measures import (GammaLike, MeasureFamily, PointMasses, StableLike,
                       UserDensity)
from .volatility import (VolatilitySpec, constant_term, exp_decay_term,
                         sample_bounds, time_affine_term, unit_factor)

__all__ = ["RunConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1

_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "cos": np.cos, "sin": np.sin, "where": np.where,
    "pi": math.pi, "e": math.e,
}


# the document's sections, and for each tag of a tagged object its
# builder and the keys it reads; parse_config rejects any other key.  A
# tag whose keys are all numbers is built from them in key order,
# point_masses, user_density and table by their own branches.
_SECTIONS = ("version", "levy", "volatility", "initial_curve", "grid",
             "solver", "mc", "outputs")
_MEASURES = {"point_masses": (PointMasses, ("atoms",)),
             "stable_like": (StableLike, ("c", "alpha", "y_max")),
             "gamma_like": (GammaLike, ("c", "beta")),
             "user_density": (UserDensity, ("expression", "a4_certified"))}
_TERMS = {"constant": (constant_term, ("level",)),
          "time_affine": (time_affine_term, ("intercept", "slope")),
          "exp_decay": (exp_decay_term, ("level", "rate"))}
_CURVES = {"constant": (constant_curve, ("level",)),
           "affine": (affine_curve, ("intercept", "slope")),
           "exponential_decay": (exp_decay_curve, ("level", "rate")),
           "table": (table_curve, ("points",))}

# the settings of the optional sections, each updated by its section
_SOLVER_DEFAULTS = {"tol": 1e-9, "max_iter": 200, "explosion_threshold": 1e8}
_MC_DEFAULTS = {"n_paths": 100, "master_seed": 0, "eps": 1e-3,
                "t_checkpoints": None, "T_checkpoints": None}
_OUTPUT_DEFAULTS = {"directory": ".", "write_csv": True}


@dataclass
class RunConfig:
    """Validated, fully built run description plus its source document."""

    levy: LevyModelSpec
    volatility: VolatilitySpec
    curve: InitialCurve
    grid: GridSpec
    solver: dict
    mc: dict
    outputs: dict
    raw: dict


def load_config(path: str) -> RunConfig:
    """Read a JSON run configuration file and validate it like parse_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and build its run description."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config version {version!r}; expected {SCHEMA_VERSION}")
    _require_known_keys(doc, _SECTIONS, "config")
    for key in ("levy", "volatility", "initial_curve", "grid"):
        if key not in doc:
            raise ConfigError(f"missing required section '{key}'")

    grid = _parse_grid(doc["grid"])
    vol = _parse_volatility(doc["volatility"], grid)
    levy = _parse_levy(doc["levy"])
    curve = _parse_curve(doc["initial_curve"])

    try:
        require_positive_on(curve, grid.T_nodes())
    except NonPositiveInitialCurve as exc:
        raise ConfigError(f"(A1) initial curve must be positive: {exc}") from exc

    report = check_assumptions(levy, vol)
    if not report.a2_pass:
        raise ConfigError(
            "(A2) jump support reaches "
            f"{report.support_infimum:g}, at or below the admissible bound "
            f"-1/lambda_upper = {report.a2_threshold:g}")
    if not report.a4_pass:
        raise ConfigError(
            "(A4) the jump measure must integrate min(y^2, y); got "
            f"small-jump part {report.a4_square_integral:g}, "
            f"tail part {report.a4_tail_integral:g}")

    solver = _section(doc, "solver", _SOLVER_DEFAULTS)
    _require_positive_number(solver, "tol")
    _require_positive_number(solver, "explosion_threshold")
    if not _is_int(solver.get("max_iter")) or solver["max_iter"] < 1:
        raise ConfigError("solver.max_iter must be a positive integer")

    mc = _section(doc, "mc", _MC_DEFAULTS)
    if not _is_int(mc.get("n_paths")) or mc["n_paths"] < 1:
        raise ConfigError("mc.n_paths must be a positive integer")
    if not _is_int(mc.get("master_seed")) or mc["master_seed"] < 0:
        raise ConfigError("mc.master_seed must be a nonnegative integer")
    _require_positive_number(mc, "eps")

    outputs = _section(doc, "outputs", _OUTPUT_DEFAULTS)

    return RunConfig(levy=levy, volatility=vol, curve=curve, grid=grid,
                     solver=solver, mc=mc, outputs=outputs, raw=doc)


def _section(doc: dict, name: str, defaults: dict) -> dict:
    """The defaults, updated with the keys of the optional section ``name``."""
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"section '{name}' must be an object")
    _require_known_keys(sec, tuple(defaults), name)
    return {**defaults, **sec}


def _require_known_keys(sec: dict, allowed: tuple, context: str) -> None:
    unknown = [key for key in sec if key not in allowed]
    if unknown:
        raise ConfigError(
            f"{context}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}")


def _tagged_keys(sec: dict, tag: str, table: dict, context: str) -> str:
    """The value of ``sec[tag]``, checked against ``table`` with its keys."""
    if not isinstance(sec, dict):
        raise ConfigError(f"{context} must be an object")
    name = sec.get(tag)
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{context}: unknown {tag} {name!r}; expected one "
                          f"of {', '.join(table)}")
    _require_known_keys(sec, (tag,) + table[name][1], f"{context} {name}")
    return name


def _build(sec: dict, entry: tuple, context: str):
    """The builder of a table entry, called with the numbers of its keys."""
    builder, keys = entry
    return builder(*(_get_number(sec, key, context) for key in keys))


def _is_int(val) -> bool:
    """Whether val is a JSON integer (a JSON boolean is not)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _require_positive_number(sec: dict, key: str) -> None:
    val = sec.get(key)
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not math.isfinite(val) or val <= 0):
        raise ConfigError(f"'{key}' must be a positive finite number")


def _get_flag(sec: dict, key: str, context: str) -> bool:
    """The JSON boolean ``sec[key]``, False when absent."""
    val = sec.get(key, False)
    if not isinstance(val, bool):
        raise ConfigError(f"{context}: '{key}' must be true or false")
    return val


def _get_number(sec: dict, key: str, context: str) -> float:
    if key not in sec:
        raise ConfigError(f"{context}: missing '{key}'")
    val = sec[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{context}: '{key}' must be a number")
    if not math.isfinite(float(val)):
        raise ConfigError(f"{context}: '{key}' must be finite")
    return float(val)


def _parse_grid(sec: dict) -> GridSpec:
    if not isinstance(sec, dict):
        raise ConfigError("grid section must be an object")
    _require_known_keys(sec, ("delta", "t_star", "t_max", "gamma"), "grid")
    try:
        return GridSpec(delta=_get_number(sec, "delta", "grid"),
                        t_star=_get_number(sec, "t_star", "grid"),
                        t_max=_get_number(sec, "t_max", "grid"),
                        gamma=_get_number(sec, "gamma", "grid"))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_measure(sec: dict) -> MeasureFamily:
    family = _tagged_keys(sec, "family", _MEASURES, "levy.measure")
    try:
        if family == "point_masses":
            atoms = sec.get("atoms")
            if not isinstance(atoms, list):
                raise ConfigError("point_masses: 'atoms' must be a list of "
                                  "[size, weight] pairs")
            return PointMasses(tuple((float(y), float(w)) for y, w in atoms))
        if family == "user_density":
            return _parse_user_density(sec)
        return _build(sec, _MEASURES[family], family)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid measure parameters: {exc}") from exc


def _parse_user_density(sec: dict) -> UserDensity:
    expr = sec.get("expression")
    if not isinstance(expr, str) or not expr.strip():
        raise ConfigError("user_density: 'expression' must be a nonempty string "
                          "in the variable y")
    try:
        code = compile(expr, "<user_density>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"user_density: bad expression: {exc}") from exc
    for name in code.co_names:
        if name not in _EXPR_NAMES and name != "y":
            raise ConfigError(
                f"user_density: name '{name}' is not allowed; available: "
                f"y, {', '.join(sorted(_EXPR_NAMES))}")

    def density(y):
        scope = dict(_EXPR_NAMES)
        scope["y"] = y
        return eval(code, {"__builtins__": {}}, scope)

    try:
        probe = float(density(0.5))
    except Exception as exc:
        raise ConfigError(f"user_density: expression failed at y=0.5: {exc}")
    if not math.isfinite(probe) or probe < 0.0:
        raise ConfigError("user_density: expression must be a finite "
                          "nonnegative density")
    return UserDensity(density_fn=density,
                       a4_certified=_get_flag(sec, "a4_certified",
                                              "user_density"))


def _parse_levy(sec: dict) -> LevyModelSpec:
    if not isinstance(sec, dict):
        raise ConfigError("levy section must be an object")
    _require_known_keys(
        sec, ("drift_a", "gaussian_q", "measure", "subordinator"), "levy")
    # a missing measure section means a measure with no jumps
    measure = (_parse_measure(sec["measure"]) if "measure" in sec
               else PointMasses(()))
    subordinator = _get_flag(sec, "subordinator", "levy")
    drift = sec.get("drift_a", 0.0)
    if drift == "subordinator":
        first = measure.first_moment(0.0, 1.0)
        if not math.isfinite(first):
            raise ConfigError(
                "drift_a='subordinator' needs a finite small-jump first moment")
        drift_a = first
        subordinator = True
    else:
        if isinstance(drift, bool) or not isinstance(drift, (int, float)):
            raise ConfigError("levy.drift_a must be a number or 'subordinator'")
        drift_a = float(drift)
    q = sec.get("gaussian_q", 0.0)
    if isinstance(q, bool) or not isinstance(q, (int, float)) or q < 0:
        raise ConfigError("levy.gaussian_q must be a nonnegative number")
    try:
        return LevyModelSpec(drift_a=drift_a, gaussian_q=float(q),
                             measure=measure, subordinator=subordinator)
    except ValueError as exc:
        raise ConfigError(f"levy: {exc}") from exc


def _parse_volatility(sec: dict, grid: GridSpec) -> VolatilitySpec:
    if not isinstance(sec, dict):
        raise ConfigError("volatility section must be an object")
    _require_known_keys(sec, ("terms", "lambda_lower", "lambda_upper"),
                        "volatility")
    terms_doc = sec.get("terms")
    if not isinstance(terms_doc, list) or not terms_doc:
        raise ConfigError("volatility.terms must be a nonempty list")
    terms = []
    for n, term in enumerate(terms_doc):
        context = f"volatility.terms[{n}]"
        kind = _tagged_keys(term, "kind", _TERMS, context)
        terms.append(_build(term, _TERMS[kind], context))

    # the (A3) constants on the maturities grid_violations samples; every
    # term kind is affine in t, so the extremes over t of the factor and of
    # its maturity differences lie at t = 0 and t = t_star
    lo, hi, deriv_bound = sample_bounds(
        terms, [0.0, grid.t_star],
        np.linspace(0.0, grid.t_max, 4 * grid.n_cols + 1), grid.delta / 16.0)
    if lo <= 0.0:
        raise ConfigError(
            f"(A3) volatility factor must stay positive; sampled minimum {lo:g}")
    lo_cfg = (_get_number(sec, "lambda_lower", "volatility")
              if "lambda_lower" in sec else lo)
    hi_cfg = (_get_number(sec, "lambda_upper", "volatility")
              if "lambda_upper" in sec else hi)
    slack = 1e-9 * max(1.0, hi_cfg)
    if lo_cfg > lo + slack or hi_cfg < hi - slack:
        raise ConfigError(
            f"(A3) declared bounds [{lo_cfg:g}, {hi_cfg:g}] must enclose the "
            f"sampled volatility range [{lo:g}, {hi:g}]")
    try:
        return VolatilitySpec(
            terms=tuple(terms), lambda_lower=lo_cfg, lambda_upper=hi_cfg,
            x_derivative_bound=deriv_bound,
            time_only=all(b_fn is unit_factor for _, b_fn in terms))
    except ValueError as exc:
        raise ConfigError(f"(A3) volatility bounds invalid: {exc}") from exc


def _parse_curve(sec: dict) -> InitialCurve:
    family = _tagged_keys(sec, "family", _CURVES, "initial_curve")
    try:
        if family == "table":
            points = sec.get("points")
            if not isinstance(points, list) or len(points) < 2:
                raise ConfigError(
                    "initial_curve table needs at least 2 [x, value] points")
            return table_curve([(float(x), float(v)) for x, v in points])
        return _build(sec, _CURVES[family], "initial_curve")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial_curve: {exc}") from exc
