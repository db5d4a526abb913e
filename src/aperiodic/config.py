"""Run configuration: validation and object construction.

``PARAMS`` lists, for each (operation, ``params.op``), whether the run draws
random samples (and so needs a ``seed``) and the parameters it takes, each
with its rule and its default or ``REQUIRED``.  ``validate_config`` checks
the rest of a config with plain type checks; ``checked_params`` checks
``params`` against the table and, given the scheme's dimensions, returns
them with the defaults filled in.  An unknown key is a ``ConfigError``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import ConfigError
from .pointset import Box
from .scheme import make_scheme
from .schemes import SCHEME_REGISTRY, named_scheme
from .window import window_from_json


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x) -> bool:
    return _number(x) and math.isfinite(x)


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# a rule is (test, the words for what passes it); the strings "d", "m" and "k"
# stand for a vector of that many finite numbers, "rows" for rows of d of them
_POSITIVE = (lambda x: _finite(x) and x > 0, "a finite number > 0")
_BAND = (lambda x: _finite(x) and x >= 0, "a finite number >= 0")
_COUNT = (lambda x: _integer(x) and x >= 1, "an integer >= 1")
_COUNT0 = (lambda x: _integer(x) and x >= 0, "an integer >= 0")
_NUMBERS = (lambda x: isinstance(x, list) and all(map(_finite, x)), "a list of finite numbers")
_RANGE = (lambda x: isinstance(x, list) and len(x) == 2 and all(map(_finite, x)) and x[0] <= x[1],
          "two finite numbers lo <= hi")
REQUIRED = "required"

# (operation, params.op) -> (draws random samples, {key: (rule, default or REQUIRED)})
PARAMS = {
    ("generate", None): (False, {}),
    ("analyze", "validate"): (False, {}),
    ("analyze", "model_density"): (False, {}),
    ("analyze", "dual_candidates"): (False, {"k_max": (_POSITIVE, REQUIRED),
                                             "k_internal_max": (_POSITIVE, None)}),
    ("analyze", "difference_set"): (False, {"radius": (_POSITIVE, REQUIRED)}),
    ("analyze", "packing_radius"): (False, {}),
    ("analyze", "flc_clusters"): (False, {"radius": (_POSITIVE, REQUIRED)}),
    ("analyze", "repetition_set"): (False, {"radius": (_POSITIVE, REQUIRED)}),
    ("analyze", "patch_frequency"): (False, {"offsets": ("rows", REQUIRED),
                                             "anchors": ("rows", REQUIRED)}),
    ("analyze", "period_candidates"): (False, {"scan_radius": (_POSITIVE, None)}),
    ("analyze", "m1_cover"): (False, {"radius": (_POSITIVE, REQUIRED)}),
    ("analyze", "weak_ud"): (True, {"radius": (_POSITIVE, REQUIRED),
                                    "k_half": (_POSITIVE, REQUIRED),
                                    "n_anchors": (_COUNT, 100)}),
    ("autocorr", None): (False, {"radius": (_POSITIVE, REQUIRED)}),
    ("almost_periods", None): (False, {"radius": (_POSITIVE, REQUIRED), "eps": (_NUMBERS, []),
                                       "eps_fracs": (_NUMBERS, []),
                                       "scan_radius": (_POSITIVE, None)}),
    ("diffract", None): (True, {"k_max": (_POSITIVE, REQUIRED), "n_controls": (_COUNT0, 10),
                                "k_internal_max": (_POSITIVE, None)}),
    ("torus", "embed"): (False, {"t": ("d", REQUIRED)}),
    ("torus", "beta"): (False, {"x": ("d", REQUIRED), "h": ("m", [])}),
    ("torus", "singularity"): (False, {"frac": ("k", REQUIRED), "radius": (_POSITIVE, 1000.0),
                                       "band": (_BAND, None)}),
    ("torus", "separation"): (True, {"samples": (_COUNT, 100), "radius": (_POSITIVE, 1000.0),
                                     "band": (_BAND, None)}),
    ("fiber", None): (False, {"frac": ("k", REQUIRED), "radius": (_POSITIVE, 100.0)}),
    ("reconstruct", None): (False, {"split_threshold": (_POSITIVE, None)}),
    ("meyer_cert", None): (True, {"cover_radius": (_POSITIVE, 50.0),
                                  "pair_range": (_RANGE, [0.0, 100.0]),
                                  "n_pairs": (_COUNT, 10)}),
    ("suite", None): (False, {}),
}
OPERATIONS = tuple(dict.fromkeys(op for op, _ in PARAMS))


def checked_params(cfg: dict, d=None, m=None, k=None) -> dict:
    """The ``params`` of ``cfg`` checked against ``PARAMS``, as a new dict
    with every key of its entry (defaults filled in; ``op`` left out).
    Vectors come back as lists (a bare number is a list of one) and rows as
    lists of lists (a single list is one row); their lengths are checked
    against the dimensions given.  Also demands a ``seed`` where the entry
    draws random samples."""
    op, params = cfg["operation"], cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be an object, got {params!r}")
    sub = None
    if (op, None) not in PARAMS:
        sub = params.get("op")
        if sub is None:
            raise ConfigError(f"{op} needs params.op")
        if not isinstance(sub, str):
            raise ConfigError(f"params.op must be a string, got {sub!r}")
        if (op, sub) not in PARAMS:
            raise ConfigError(f"unknown {op} op {sub!r}; known: "
                              f"{', '.join(s for o, s in PARAMS if o == op)}")
    samples, spec = PARAMS[op, sub]
    if samples and cfg.get("seed") is None:
        raise ConfigError(f"operation {op!r} samples randomness and requires a seed")
    allowed = (["op"] if sub else []) + list(spec)
    for key in params:
        if key not in allowed:
            raise ConfigError(f"unknown key params.{key}; {' '.join(filter(None, (op, sub)))} "
                              f"takes {', '.join(allowed) or 'no parameters'}")
    dims = {"d": d, "m": m, "k": k}
    out = {}
    for key, (rule, default) in spec.items():
        if default is REQUIRED and key not in params:
            raise ConfigError(f"missing required params.{key}")
        value = params.get(key, default)
        out[key] = None if value is None and default is None else _check(key, rule, value, dims)
    return out


def _check(key, rule, value, dims):
    if not isinstance(rule, str):
        test, words = rule
        if not test(value):
            raise ConfigError(f"params.{key} must be {words}, got {value!r}")
        return value
    rows = rule == "rows"
    size = dims["d" if rows else rule]
    one_row = not (rows and isinstance(value, list) and value
                   and all(isinstance(r, list) for r in value))
    out = [r if isinstance(r, list) else [r] for r in ([value] if one_row else value)]
    if not all((size is None or len(r) == size) and all(map(_finite, r)) for r in out):
        raise ConfigError(f"params.{key} must be {'rows' if rows else 'a list'} of "
                          f"{'' if size is None else f'{size} '}finite numbers, got {value!r}")
    return out if rows else out[0]


_STRING = (lambda x: isinstance(x, str), "a string")
_NUMBER = (_number, "a number")
_NUMBER_LIST = (lambda x: isinstance(x, list) and all(map(_number, x)), "a list of numbers")
_OBJECT = (lambda x: isinstance(x, dict), "an object")

# the keys each part of a config may hold, with their rules; the rule of an
# object with keys of its own is (its keys, the keys it must hold)
_TOP = {
    "operation": (lambda x: x in OPERATIONS, f"one of {', '.join(OPERATIONS)}"),
    "scheme": _OBJECT,
    "window": (lambda x: x is None or isinstance(x, dict)
               and x.get("type") in (None, "intervals", "polygon", "full"),
               "null or an object of type intervals, polygon or full"),
    "points": ({"path": _STRING, "format": (lambda x: x in ("csv", "json"), "csv or json")},
               ("path",)),
    "region": ({"lo": _NUMBER_LIST, "hi": _NUMBER_LIST}, ("lo", "hi")),
    "boxes": ({"sizes": (lambda x: isinstance(x, list) and all(_finite(s) and s > 0 for s in x),
                         "a list of finite numbers > 0"),
               "anchored": (lambda x: isinstance(x, bool), "true or false")}, ()),
    "params": _OBJECT,
    "seed": (lambda x: _integer(x) and x >= 0, "an integer >= 0"),
    "require": (lambda x: isinstance(x, list), "a list"),
    "runs": (lambda x: isinstance(x, list) and all(isinstance(r, dict) for r in x),
             "a list of objects"),
}
_NAMED_SCHEME = ({"name": (lambda x: isinstance(x, str) and x in SCHEME_REGISTRY,
                           f"one of {', '.join(sorted(SCHEME_REGISTRY))}")}, ("name",))
_INLINE_SCHEME = ({
    "d": (lambda x: _integer(x) and 1 <= x <= 3, "an integer from 1 to 3"),
    "m": (lambda x: _integer(x) and 0 <= x <= 3, "an integer from 0 to 3"),
    "basis": (lambda x: isinstance(x, list) and all(isinstance(r, list) for r in x),
              "a list of rows"),
    "arithmetic": ({"mode": (lambda x: x in ("float", "quadratic"), "float or quadratic"),
                    "tol": _NUMBER,
                    "D": (lambda x: _integer(x) and x >= 2, "an integer >= 2")}, ()),
}, ("d", "m", "basis"))
_REQUIRE = ({"key": _STRING, "min": _NUMBER, "max": _NUMBER, "equals": (lambda x: True, "")},
            ("key",))


def _check_keys(obj, where, fields, required=()):
    """``obj`` is an object whose keys are among ``fields`` and include
    ``required``, and each value passes its rule."""
    label = where or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{label} must be an object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{label} needs {key!r}")
    for key, value in obj.items():
        name = f"{where}.{key}" if where else key
        if key not in fields:
            raise ConfigError(f"unknown key {name}; {label} takes {', '.join(fields)}")
        test, words = fields[key]
        if isinstance(test, dict):
            _check_keys(value, name, test, words)
        elif not test(value):
            raise ConfigError(f"{name} must be {words}, got {value!r}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    points = cfg.get("points") if isinstance(cfg, dict) else None
    if isinstance(points, dict) and "region" in points:
        raise ConfigError("points.region is not an option; the region of the points "
                          "is the top-level 'region'")
    _check_keys(cfg, "", _TOP, ("operation",))
    scheme = cfg.get("scheme")
    if scheme is not None:
        _check_keys(scheme, "scheme", *(_NAMED_SCHEME if "name" in scheme else _INLINE_SCHEME))
    for i, req in enumerate(cfg.get("require", [])):
        _check_keys(req, f"require[{i}]", *_REQUIRE)
    checked_params(cfg)
    if cfg["operation"] == "suite":
        if not cfg.get("runs"):
            raise ConfigError("suite needs a nonempty 'runs' list")
        for i, sub_cfg in enumerate(cfg["runs"]):
            try:
                validate_config(sub_cfg)
            except ConfigError as exc:
                raise ConfigError(f"runs[{i}]: {exc}") from exc


def build_scheme_window(cfg: dict):
    """Instantiate (scheme, window) from a validated config; either may be None."""
    scheme = window = None
    spec = cfg.get("scheme")
    if spec is not None:
        if "name" in spec:
            scheme, window = named_scheme(spec["name"])
        else:
            arith = spec.get("arithmetic", {})
            exact = arith.get("mode") == "quadratic"
            try:
                basis = ([[_parse_entry(e) for e in row] for row in spec["basis"]]
                         if exact else spec["basis"])
                scheme = make_scheme(spec["d"], spec["m"], basis,
                                     mode="quadratic" if exact else "float",
                                     radicand=arith.get("D"), tol=arith.get("tol", 1e-9))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"invalid scheme: {exc}") from None
    if "window" in cfg:
        try:
            window = window_from_json(cfg["window"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid window: {exc}") from None
        wdim = 0 if window is None else window.dim
        if scheme is not None and wdim != scheme.m:
            raise ConfigError(f"window has dimension {wdim}, but the scheme's "
                              f"internal space has dimension {scheme.m}")
    return scheme, window


def _rational(v) -> Fraction:
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        # wire floats stand for intended rationals like 0.5
        return Fraction(v).limit_denominator(10**12)
    return Fraction(v)


def _parse_entry(entry):
    if isinstance(entry, (list, tuple)):
        return tuple(_rational(v) for v in entry)
    return _rational(entry)


def build_region(cfg: dict) -> Box | None:
    region = cfg.get("region")
    if region is None:
        return None
    try:
        return Box.make(region["lo"], region["hi"])
    except ValueError as exc:
        raise ConfigError(f"region: {exc}") from None


def build_boxes(cfg: dict, dim: int):
    from .autocorr import DEFAULT_BOX_SIZES, default_boxes

    spec = cfg.get("boxes", {})
    sizes = spec.get("sizes", list(DEFAULT_BOX_SIZES))
    anchored = spec.get("anchored", True)
    return default_boxes(sizes, dim, anchored)
