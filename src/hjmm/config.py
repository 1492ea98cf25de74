"""Run configuration: one JSON document per reproducible run.

The document is versioned and carries everything a pipeline needs: the
noise model, the volatility structure, the initial curve, the grid and
the solver / Monte Carlo / output settings.  Loading validates the
standing assumptions and reports violations by their labels:

    (A1) the initial curve is positive,
    (A2) jumps below -1/lambda_upper have measure zero,
    (A3) the volatility factor is bounded away from zero and infinity
         with a bounded maturity derivative,
    (A4) the jump measure integrates min(y^2, y).

Every section, and every tag of a tagged object (measure family,
volatility term kind, curve family), has one table mapping each key to
its default and its value kind; ``_read`` checks a JSON object against
its table and ``_build`` hands the checked values to the object's
builder.  A bad value is reported as ``<context>.<key> must be <kind>``.
The volatility's term builders and its (A3) constants come from
``volatility``; the defaults of the ``solver`` section come from
``solver`` and that of ``mc.eps`` from ``paths``, the modules that act
on them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curves import (InitialCurve, affine_curve, constant_curve,
                     exp_decay_curve, require_positive_on, table_curve)
from .errors import ConfigError, DomainError, NonPositiveInitialCurve
from .grids import GridSpec
from .levy import LevyModelSpec, check_assumptions
from .measures import GammaLike, PointMasses, StableLike, UserDensity
from .paths import TRUNCATION_EPS
from .solver import EXPLOSION_THRESHOLD, MAX_ITER, TOL
from .volatility import (VolatilitySpec, constant_term, exp_decay_term,
                         sample_bounds, time_affine_term)

__all__ = ["RunConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1

# Most cells of one field, (n_t + 1) * (n_cols + 1), that a document may
# ask for: 2^22 cells, 32 MiB per field, and a solve holds a few fields.
# On t_star = 1, t_max = 2, delta = 1/1024 gives 2.1 million cells and
# 1/2048 gives 8.4 million, which is refused.
MAX_FIELD_CELLS = 1 << 22

_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "cos": np.cos, "sin": np.sin, "where": np.where,
    "pi": math.pi, "e": math.e,
}


def _is_int(val) -> bool:
    """Whether val is a JSON integer (a JSON boolean is not)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    """Whether val is a JSON number with a finite float value.

    A JSON boolean is not a number; the magnitude bound rejects inf, NaN
    and an integer beyond the float range, comparing without conversion.
    """
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _is_pairs(val) -> bool:
    return isinstance(val, list) and all(
        isinstance(pair, list) and len(pair) == 2
        and all(map(_is_number, pair)) for pair in val)


class _Kind(NamedTuple):
    """A value kind: its name in messages and its test of a JSON value."""

    text: str
    accepts: Callable


_NUMBER = _Kind("a finite number", _is_number)
_POSITIVE = _Kind("a positive finite number",
                  lambda v: _is_number(v) and v > 0)
_NONNEGATIVE = _Kind("a nonnegative finite number",
                     lambda v: _is_number(v) and v >= 0)
_COUNT = _Kind(f"an integer from 1 to {sys.maxsize}",
               lambda v: _is_int(v) and 1 <= v <= sys.maxsize)
_SEED = _Kind("a nonnegative integer", lambda v: _is_int(v) and v >= 0)
_VERSION = _Kind(f"the integer {SCHEMA_VERSION}",
                 lambda v: _is_int(v) and v == SCHEMA_VERSION)
_FLAG = _Kind("true or false", lambda v: isinstance(v, bool))
_TEXT = _Kind("a nonempty string",
              lambda v: isinstance(v, str) and bool(v.strip()))
_PAIRS = _Kind("a list of [number, number] pairs", _is_pairs)
_CHECKPOINTS = _Kind(
    "null or a nonempty list of numbers",
    lambda v: v is None or (isinstance(v, list) and len(v) > 0
                            and all(map(_is_number, v))))
# a value checked by the code that reads it, never handed to a builder
_OWN = None
_REQUIRED = object()


def _user_density(expression: str, a4_certified: bool) -> UserDensity:
    """The density of an expression in y over the names of _EXPR_NAMES."""
    try:
        code = compile(expression, "<user_density>", "eval")
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
    return UserDensity(density_fn=density, a4_certified=a4_certified)


def _numbers(*keys: str) -> dict:
    return dict.fromkeys(keys, (_REQUIRED, _NUMBER))


# each section, and each tag of a tagged object with its builder, maps
# its keys to (default, kind); parse_config rejects any other key
_DOCUMENT = {"version": (_REQUIRED, _VERSION), "levy": (_REQUIRED, _OWN),
             "volatility": (_REQUIRED, _OWN),
             "initial_curve": (_REQUIRED, _OWN), "grid": (_REQUIRED, _OWN),
             "solver": ({}, _OWN), "mc": ({}, _OWN), "outputs": ({}, _OWN)}
_GRID = _numbers("delta", "t_star", "t_max", "gamma")
_LEVY = {"drift_a": (0.0, _OWN), "gaussian_q": (0.0, _NONNEGATIVE),
         "measure": (None, _OWN), "subordinator": (False, _FLAG)}
_VOLATILITY = {"terms": (_REQUIRED, _OWN), "lambda_lower": (None, _NUMBER),
               "lambda_upper": (None, _NUMBER)}
_SOLVER = {"tol": (TOL, _POSITIVE), "max_iter": (MAX_ITER, _COUNT),
           "explosion_threshold": (EXPLOSION_THRESHOLD, _POSITIVE)}
_MC = {"n_paths": (100, _COUNT), "master_seed": (0, _SEED),
       "eps": (TRUNCATION_EPS, _POSITIVE),
       "t_checkpoints": (None, _CHECKPOINTS),
       "T_checkpoints": (None, _CHECKPOINTS)}
_OUTPUTS = {"directory": (".", _TEXT), "write_csv": (True, _FLAG)}
_MEASURES = {"point_masses": (PointMasses, {"atoms": (_REQUIRED, _PAIRS)}),
             "stable_like": (StableLike, _numbers("c", "alpha", "y_max")),
             "gamma_like": (GammaLike, _numbers("c", "beta")),
             "user_density": (_user_density,
                              {"expression": (_REQUIRED, _TEXT),
                               "a4_certified": (False, _FLAG)})}
_TERMS = {"constant": (constant_term, _numbers("level")),
          "time_affine": (time_affine_term, _numbers("intercept", "slope")),
          "exp_decay": (exp_decay_term, _numbers("level", "rate"))}
_CURVES = {"constant": (constant_curve, _numbers("level")),
           "affine": (affine_curve, _numbers("intercept", "slope")),
           "exponential_decay": (exp_decay_curve, _numbers("level", "rate")),
           "table": (table_curve, {"points": (_REQUIRED, _PAIRS)})}


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
    sections = _read(doc, _DOCUMENT, "config")
    grid = _build(_bounded_grid, _GRID, sections["grid"], "grid")
    vol = _parse_volatility(sections["volatility"], grid)
    levy = _parse_levy(sections["levy"])
    curve = _build_tagged(sections["initial_curve"], "family", _CURVES,
                          "initial_curve")

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

    solver = _read(sections["solver"], _SOLVER, "solver")
    mc = _read(sections["mc"], _MC, "mc")
    for key, index_of in (("t_checkpoints", grid.index_of_time),
                          ("T_checkpoints", grid.index_of_maturity)):
        try:
            for v in mc[key] or ():
                index_of(v)
        except DomainError as exc:
            raise ConfigError(f"mc.{key}: {exc}") from exc
    outputs = _read(sections["outputs"], _OUTPUTS, "outputs")

    return RunConfig(levy=levy, volatility=vol, curve=curve, grid=grid,
                     solver=solver, mc=mc, outputs=outputs, raw=doc)


def _read(obj, table: dict, context: str) -> dict:
    """The value of every key of ``table`` in the JSON object ``obj``.

    A value given is checked against its kind and kept as written; a key
    not given takes its default.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = [key for key in obj if key not in table]
    if unknown:
        raise ConfigError(
            f"{context}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(table)}")
    values = {}
    for key, (default, kind) in table.items():
        if key not in obj:
            if default is _REQUIRED:
                raise ConfigError(f"{context}: missing '{key}'")
            values[key] = default
        elif kind is _OWN or kind.accepts(obj[key]):
            values[key] = obj[key]
        else:
            raise ConfigError(f"{context}.{key} must be {kind.text}")
    return values


def _build(builder: Callable, table: dict, obj, context: str):
    """``builder`` called with the values of ``obj`` checked against ``table``.

    A builder receives each number as a float and converts the numbers
    inside a list itself.
    """
    values = _read(obj, table, context)
    try:
        return builder(**{key: float(val) if _is_number(val) else val
                          for key, val in values.items()
                          if table[key][1] is not _OWN})
    except DomainError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _build_tagged(obj, tag: str, builders: dict, context: str):
    """``obj`` built by the builder of the name in its key ``tag``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object")
    name = obj.get(tag)
    if not isinstance(name, str) or name not in builders:
        raise ConfigError(f"{context}: unknown {tag} {name!r}; expected one "
                          f"of {', '.join(builders)}")
    builder, table = builders[name]
    return _build(builder, {tag: (_REQUIRED, _OWN), **table}, obj, context)


def _bounded_grid(delta: float, t_star: float, t_max: float,
                  gamma: float) -> GridSpec:
    """The GridSpec, unless its field would hold more than MAX_FIELD_CELLS
    cells; the count is checked before anything is built."""
    if (min(delta, t_star, t_max) > 0.0
            and (t_star / delta + 1.0) * (t_max / delta + 1.0) > MAX_FIELD_CELLS):
        raise ConfigError(f"grid.delta {delta:g} gives a field of more than "
                          f"{MAX_FIELD_CELLS} cells")
    return GridSpec(delta, t_star, t_max, gamma)


def _parse_levy(sec) -> LevyModelSpec:
    values = _read(sec, _LEVY, "levy")
    # a missing measure section means a measure with no jumps
    measure = (_build_tagged(sec["measure"], "family", _MEASURES,
                             "levy.measure") if "measure" in sec
               else PointMasses(()))
    drift, subordinator = values["drift_a"], values["subordinator"]
    if drift == "subordinator":
        drift = measure.first_moment(0.0, 1.0)
        if not math.isfinite(drift):
            raise ConfigError(
                "drift_a='subordinator' needs a finite small-jump first moment")
        subordinator = True
    elif _is_number(drift):
        drift = float(drift)
    else:
        raise ConfigError("levy.drift_a must be a finite number or "
                          "'subordinator'")
    try:
        return LevyModelSpec(drift_a=drift,
                             gaussian_q=float(values["gaussian_q"]),
                             measure=measure, subordinator=subordinator)
    except ValueError as exc:
        raise ConfigError(f"levy: {exc}") from exc


def _parse_volatility(sec, grid: GridSpec) -> VolatilitySpec:
    values = _read(sec, _VOLATILITY, "volatility")
    if not isinstance(values["terms"], list) or not values["terms"]:
        raise ConfigError("volatility.terms must be a nonempty list")
    terms = [_build_tagged(term, "kind", _TERMS, f"volatility.terms[{n}]")
             for n, term in enumerate(values["terms"])]

    # the (A3) constants on the maturities grid_violations samples; every
    # term kind is affine in t, so the extremes over t of the factor and of
    # its maturity differences lie at t = 0 and t = t_star
    lo, hi, deriv_bound = sample_bounds(
        terms, [0.0, grid.t_star],
        np.linspace(0.0, grid.t_max, 4 * grid.n_cols + 1), grid.delta / 16.0)
    if lo <= 0.0:
        raise ConfigError(
            f"(A3) volatility factor must stay positive; sampled minimum {lo:g}")
    lo_cfg, hi_cfg = (bound if given is None else float(given)
                      for bound, given in ((lo, values["lambda_lower"]),
                                           (hi, values["lambda_upper"])))
    slack = 1e-9 * max(1.0, hi_cfg)
    if lo_cfg > lo + slack or hi_cfg < hi - slack:
        raise ConfigError(
            f"(A3) declared bounds [{lo_cfg:g}, {hi_cfg:g}] must enclose the "
            f"sampled volatility range [{lo:g}, {hi:g}]")
    try:
        return VolatilitySpec(terms=tuple(terms), lambda_lower=lo_cfg,
                              lambda_upper=hi_cfg,
                              x_derivative_bound=deriv_bound)
    except ValueError as exc:
        raise ConfigError(f"(A3) volatility bounds invalid: {exc}") from exc
