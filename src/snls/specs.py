"""Builders turning declarative field/noise specs into concrete objects.

Field specs (initial conditions and noise coefficients alike):

    {"kind": "constant",      "value": c}                 c real or [re, im]
    {"kind": "gaussian_bump", "amplitude": a, "width": w, "center": [...]}
    {"kind": "plane_wave",    "mode": [..], "amplitude": a}
    {"kind": "file",          "path": "..."}              binary field layout

Noise specs:

    {"coefficients": [field-spec, ...], "linear_coefficients": [field-spec, ...]}
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid_field import (
    ComplexField,
    Grid,
    constant_field,
    gaussian_field,
    plane_wave_field,
    read_field,
)
from .noise import NoiseModel, make_noise_model


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(as_real(value[0]), as_real(value[1]))
    return complex(as_real(value))


def as_real(value) -> float:
    """A finite int or float as a float; a boolean or a string raises
    TypeError, a NaN or an infinity ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite real number, got {value!r}")
    return float(value)


def as_level(value) -> float:
    """A truncation level: "inf", its one infinite spelling, or `as_real`."""
    return math.inf if value == "inf" else as_real(value)


def as_integer(value) -> int:
    """An integer, or a float with an integral value, as an int; anything
    else (a boolean, a string, a fractional float) raises TypeError or
    ValueError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# The keys each field kind reads, besides "kind".
_FIELD_KEYS = {
    "constant": {"value"},
    "gaussian_bump": {"amplitude", "width", "center"},
    "plane_wave": {"mode", "amplitude"},
    "file": {"path"},
}


def build_field(spec: dict, grid: Grid) -> ComplexField:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"field spec must be an object with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _FIELD_KEYS:
        raise ConfigError(f"unknown field kind {kind!r}")
    unknown = set(spec) - _FIELD_KEYS[kind] - {"kind"}
    if unknown:
        raise ConfigError(f"unknown keys for field kind {kind!r}: {sorted(unknown)}")
    try:
        # a value that overflows gives a non-finite field, which ComplexField
        # rejects, instead of a numpy warning
        with np.errstate(all="ignore"):
            if kind == "constant":
                return constant_field(grid, _as_complex(spec["value"]))
            if kind == "gaussian_bump":
                return gaussian_field(
                    grid,
                    amplitude=_as_complex(spec.get("amplitude", 1.0)),
                    width=as_real(spec.get("width", 1.0)),
                    center=None if spec.get("center") is None else [as_real(c) for c in spec["center"]],
                )
            if kind == "plane_wave":
                mode = spec.get("mode", [0] * grid.d)
                return plane_wave_field(
                    grid,
                    mode=[as_integer(m) for m in (mode if isinstance(mode, list) else [mode])],
                    amplitude=_as_complex(spec.get("amplitude", 1.0)),
                )
            if not isinstance(spec["path"], str):
                raise ConfigError(f"field file path must be a string, got {spec['path']!r}")
            f = read_field(spec["path"])
            if f.grid != grid:
                raise ConfigError(f"field file {spec['path']!r} carries grid {f.grid}, expected {grid}")
            return f
    except KeyError as exc:
        raise ConfigError(f"field spec {spec!r} is missing key {exc}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"field spec {spec!r} has a malformed value: {exc}") from exc


def build_noise_model(spec: dict, grid: Grid) -> NoiseModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"noise spec must be an object, got {spec!r}")
    unknown = set(spec) - {"coefficients", "linear_coefficients"}
    if unknown:
        raise ConfigError(f"unknown noise spec keys: {sorted(unknown)}")
    lists = [spec.get(key, []) for key in ("coefficients", "linear_coefficients")]
    if not all(isinstance(specs, list) for specs in lists):
        raise ConfigError(f"noise coefficients must be lists of field specs, got {spec!r}")
    coeffs, linear = ([build_field(s, grid) for s in specs] for specs in lists)
    return make_noise_model(coeffs, linear, grid)
