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
as exact rationals internally.  `config_hash` is the SHA-256 of the
canonical JSON serialization (sorted keys, compact separators), so equal
configs hash equally regardless of input formatting.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from .errors import ConfigError, OutOfRange
from .exponents import ModelParams, as_fraction
from .grid_field import Grid
from .solver import SCHEMES, SimConfig

_TOP_KEYS = {
    "d",
    "alpha",
    "gamma",
    "lambda",
    "T",
    "dt",
    "grid",
    "scheme",
    "truncation_level",
    "seed",
    "enable_laplacian",
    "enable_nonlinearity",
    "initial_condition",
    "noise",
}
_REQUIRED = ("d", "alpha", "gamma", "lambda", "T", "initial_condition", "noise")


def parse_config_dict(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ConfigError(f"missing required config keys (no defaults on physics): {missing}")
    try:
        params = ModelParams(
            d=int(doc["d"]),
            alpha=as_fraction(doc["alpha"]),
            gamma=as_fraction(doc["gamma"]),
            lam=int(doc["lambda"]),
        )
    except OutOfRange as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"unreadable model parameters: {exc}") from exc
    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict) or set(grid_doc) - {"n", "L"}:
        raise ConfigError(f"grid must be an object with keys n, L; got {grid_doc!r}")
    try:
        grid = Grid(d=params.d, n=int(grid_doc.get("n", 256)), L=float(grid_doc.get("L", 64.0)))
    except OutOfRange as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    T = float(doc["T"])
    dt = float(doc.get("dt", T / 256.0))
    level = doc.get("truncation_level", "inf")
    if isinstance(level, str):
        if level.lower() not in ("inf", "infinity"):
            raise ConfigError(f"truncation_level string must be 'inf', got {level!r}")
        level = math.inf
    return SimConfig(
        params=params,
        grid=grid,
        noise_spec=doc["noise"],
        ic_spec=doc["initial_condition"],
        T=T,
        dt=dt,
        scheme=str(doc.get("scheme", "splitstep")),
        truncation_level=float(level),
        seed=int(doc.get("seed", 0)),
        enable_laplacian=bool(doc.get("enable_laplacian", True)),
        enable_nonlinearity=bool(doc.get("enable_nonlinearity", True)),
    )


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return parse_config_dict(doc)


def _frac_str(x: Fraction) -> str:
    return str(x)


def config_to_dict(config: SimConfig) -> dict:
    """Canonical, JSON-ready echo of a SimConfig (exact rationals as strings)."""
    return {
        "d": config.params.d,
        "alpha": _frac_str(config.params.alpha),
        "gamma": _frac_str(config.params.gamma),
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
    "SCHEMES",
    "canonical_json",
    "config_hash",
    "config_to_dict",
    "load_config",
    "parse_config_dict",
]
