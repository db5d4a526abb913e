"""Run configuration: schema, validation and object construction."""

from __future__ import annotations

import json
from fractions import Fraction

import jsonschema

from .errors import ConfigError
from .pointset import Box
from .scheme import make_scheme
from .schemes import SCHEME_REGISTRY, named_scheme
from .window import window_from_json

OPERATIONS = (
    "generate", "analyze", "autocorr", "almost_periods", "diffract",
    "torus", "fiber", "reconstruct", "meyer_cert", "suite",
)

# operations that draw random samples and therefore demand a seed
SAMPLING_OPERATIONS = {"diffract", "meyer_cert"}
SAMPLING_SUBOPS = {("torus", "separation"), ("analyze", "weak_ud")}

_number_or_pair = {
    "anyOf": [
        {"type": "number"},
        {"type": "string"},
        {"type": "array", "minItems": 2, "maxItems": 2,
         "items": {"anyOf": [{"type": "number"}, {"type": "string"}]}},
    ]
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["operation"],
    "additionalProperties": False,
    "properties": {
        "operation": {"enum": list(OPERATIONS)},
        "scheme": {
            "anyOf": [
                {"type": "object",
                 "required": ["name"],
                 "additionalProperties": False,
                 "properties": {"name": {"enum": sorted(SCHEME_REGISTRY)}}},
                {"type": "object",
                 "required": ["d", "m", "basis"],
                 "additionalProperties": False,
                 "properties": {
                     "d": {"type": "integer", "minimum": 1, "maximum": 3},
                     "m": {"type": "integer", "minimum": 0, "maximum": 3},
                     "basis": {"type": "array",
                               "items": {"type": "array", "items": _number_or_pair}},
                     "arithmetic": {
                         "type": "object",
                         "properties": {
                             "mode": {"enum": ["float", "quadratic"]},
                             "tol": {"type": "number"},
                             "D": {"type": "integer", "minimum": 2},
                         },
                     },
                 }},
            ]
        },
        "window": {
            "anyOf": [
                {"type": "null"},
                {"type": "object",
                 "properties": {"type": {"enum": ["intervals", "polygon", "full"]}}},
            ]
        },
        "points": {
            "type": "object",
            "required": ["path"],
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
        },
        "region": {
            "type": "object",
            "required": ["lo", "hi"],
            "properties": {
                "lo": {"type": "array", "items": {"type": "number"}},
                "hi": {"type": "array", "items": {"type": "number"}},
            },
        },
        "boxes": {
            "type": "object",
            "properties": {
                "sizes": {"type": "array", "items": {"type": "number"}},
                "anchored": {"type": "boolean"},
            },
        },
        "params": {"type": "object"},
        "seed": {"type": "integer"},
        "require": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["key"],
                "properties": {
                    "key": {"type": "string"},
                    "min": {"type": "number"},
                    "max": {"type": "number"},
                    "equals": {},
                },
            },
        },
        "runs": {"type": "array", "items": {"type": "object"}},
    },
}


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
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    op = cfg["operation"]
    params = cfg.get("params", {})
    sub = params.get("op")
    needs_seed = op in SAMPLING_OPERATIONS or (op, sub) in SAMPLING_SUBOPS
    if needs_seed and cfg.get("seed") is None:
        raise ConfigError(f"operation {op!r} samples randomness and requires a seed")
    if op == "suite":
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
            arith = spec.get("arithmetic", {"mode": "float"})
            if arith.get("mode") == "quadratic":
                basis = [[_parse_entry(e) for e in row] for row in spec["basis"]]
                scheme = make_scheme(spec["d"], spec["m"], basis,
                                     mode="quadratic", radicand=arith["D"],
                                     tol=arith.get("tol", 1e-9))
            else:
                scheme = make_scheme(spec["d"], spec["m"], spec["basis"],
                                     mode="float", tol=arith.get("tol", 1e-9))
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
