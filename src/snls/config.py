"""JSON configuration ingestion, canonical serialization and hashing.

Physical parameters (d, alpha, gamma, lambda, T, the initial condition and
the noise family) have no defaults and must be written out; discretization
and solver knobs have documented defaults:

    dt                  T/256
    grid                {"n": 256, "L": 64.0}
    scheme              "splitstep"
    truncation_level    "inf"  (cutoff disabled)
    seed                0
    enable_laplacian    true
    enable_nonlinearity true

alpha and gamma accept integers, floats or exact "p/q" strings and are kept
as exact rationals internally; d, lambda, grid.n and seed accept integers
and integral floats (2.0, not 2.7); the enable_* switches accept only JSON
booleans.  A value that cannot be read as its type raises ConfigError.
`config_hash` is the SHA-256 of the canonical JSON serialization (sorted
keys, compact separators), so equal configs hash equally regardless of
input formatting.
"""

from __future__ import annotations

import hashlib
import json
import math

from .errors import ConfigError, OutOfRange
from .exponents import ModelParams, as_fraction
from .grid_field import Grid
from .solver import SimConfig
from .specs import as_integer

_REQUIRED = ("d", "alpha", "gamma", "lambda", "T", "initial_condition", "noise")


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a JSON boolean, got {value!r}")
    return value


# How each scalar config value is read; SimConfig holds the defaults of the
# optional solver knobs.
_READERS = {
    "d": as_integer,
    "alpha": as_fraction,
    "gamma": as_fraction,
    "lambda": as_integer,
    "T": float,
    "dt": float,
    "grid.n": as_integer,
    "grid.L": float,
    "scheme": str,
    "truncation_level": float,
    "seed": as_integer,
    "enable_laplacian": _flag,
    "enable_nonlinearity": _flag,
}
_TOP_KEYS = {key.split(".")[0] for key in _READERS} | {"initial_condition", "noise"}


def parse_config_dict(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ConfigError(f"missing required config keys (no defaults on physics): {missing}")
    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict) or set(grid_doc) - {"n", "L"}:
        raise ConfigError(f"grid must be an object with keys n, L; got {grid_doc!r}")
    raw = dict(doc, **{f"grid.{k}": v for k, v in grid_doc.items()})
    values = {}
    for key, read in _READERS.items():
        if key in raw:
            try:
                values[key] = read(raw[key])
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ConfigError(f"malformed value for config key {key!r}: {exc}") from exc
    try:
        params = ModelParams(
            d=values.pop("d"),
            alpha=values.pop("alpha"),
            gamma=values.pop("gamma"),
            lam=values.pop("lambda"),
        )
        grid = Grid(d=params.d, n=values.pop("grid.n", 256), L=values.pop("grid.L", 64.0))
    except OutOfRange as exc:
        raise ConfigError(f"invalid model parameters or grid: {exc}") from exc
    T = values.pop("T")
    return SimConfig(
        params=params,
        grid=grid,
        noise_spec=doc["noise"],
        ic_spec=doc["initial_condition"],
        T=T,
        dt=values.pop("dt", T / 256.0),
        **values,
    )


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return parse_config_dict(doc)


def write_json(path, doc) -> None:
    """Write `doc` as strict JSON (indented, keys sorted, newline-terminated);
    a NaN or infinity in it raises ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def config_to_dict(config: SimConfig) -> dict:
    """Canonical, JSON-ready echo of a SimConfig (exact rationals as strings)."""
    return {
        "d": config.params.d,
        "alpha": str(config.params.alpha),
        "gamma": str(config.params.gamma),
        "lambda": config.params.lam,
        "T": config.T,
        "dt": config.dt,
        "grid": {"n": config.grid.n, "L": config.grid.L},
        "scheme": config.scheme,
        "truncation_level": "inf" if math.isinf(config.truncation_level) else config.truncation_level,
        "seed": config.seed,
        "enable_laplacian": config.enable_laplacian,
        "enable_nonlinearity": config.enable_nonlinearity,
        "initial_condition": config.ic_spec,
        "noise": config.noise_spec,
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(config: SimConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(config)).encode("utf-8")).hexdigest()


__all__ = [
    "canonical_json",
    "config_hash",
    "config_to_dict",
    "load_config",
    "parse_config_dict",
    "write_json",
]
