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
and integral floats (2.0, not 2.7); T, dt, grid.L and truncation_level
accept finite integers and floats (`specs.as_real`), and the level also
the string "inf", its one infinite spelling (`specs.as_level`); the
enable_* switches accept only JSON booleans.  A value that cannot be read
as its type raises ConfigError.  Each key is named once, in one table of
its reader and the SimConfig attribute that keeps it: `parse_config_dict`
reads through it, and `config_to_dict` echoes each attribute through
`json_value`.  `config_hash` is the SHA-256 of that echo's canonical JSON
(sorted keys, compact separators), so equal configs hash equally
regardless of input formatting.

Every record a run writes (report, summary, per-path report, manifest,
verify report) becomes JSON in one place, `write_json`, through
`json_value`: a NaN or infinity is written as the string "nan", "inf" or
"-inf", so the files stay strict JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from operator import attrgetter

import numpy as np

from .errors import ConfigError, OutOfRange
from .exponents import ModelParams, as_fraction
from .grid_field import Grid
from .solver import SimConfig
from .specs import as_integer, as_level, as_real

_REQUIRED = ("d", "alpha", "gamma", "lambda", "T", "initial_condition", "noise")


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a JSON boolean, got {value!r}")
    return value


# Every scalar config key, once: its reader, and the attribute path where
# SimConfig keeps it (SimConfig holds the optional solver knobs' defaults).
_KEYS = {
    "d": (as_integer, "params.d"),
    "alpha": (as_fraction, "params.alpha"),
    "gamma": (as_fraction, "params.gamma"),
    "lambda": (as_integer, "params.lam"),
    "T": (as_real, "T"),
    "dt": (as_real, "dt"),
    "grid.n": (as_integer, "grid.n"),
    "grid.L": (as_real, "grid.L"),
    "scheme": (str, "scheme"),
    "truncation_level": (as_level, "truncation_level"),
    "seed": (as_integer, "seed"),
    "enable_laplacian": (_flag, "enable_laplacian"),
    "enable_nonlinearity": (_flag, "enable_nonlinearity"),
}
_TOP_KEYS = {key.split(".")[0] for key in _KEYS} | {"initial_condition", "noise"}


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
    # the values read, by owner of their attribute path ("" for SimConfig)
    parts = {"params": {}, "grid": {"n": 256, "L": 64.0}, "": {}}
    for key, (read, attr) in _KEYS.items():
        if key in raw:
            owner, _, name = attr.rpartition(".")
            try:
                parts[owner][name] = read(raw[key])
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ConfigError(f"malformed value for config key {key!r}: {exc}") from exc
    try:
        params = ModelParams(**parts["params"])
        grid = Grid(d=params.d, **parts["grid"])
    except OutOfRange as exc:
        raise ConfigError(f"invalid model parameters or grid: {exc}") from exc
    knobs = parts[""]
    knobs.setdefault("dt", knobs["T"] / 256.0)
    return SimConfig(params=params, grid=grid, noise_spec=doc["noise"], ic_spec=doc["initial_condition"], **knobs)


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return parse_config_dict(doc)


def json_value(obj):
    """`obj` with what a record holds made JSON-ready: a dataclass becomes
    the dict of its fields, a tuple or ndarray a list, and a non-finite
    float (np.float64 too) the string "nan", "inf" or "-inf", and a
    Fraction its "p/q" string.  Dicts keep their keys; other values pass
    through."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: json_value(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [json_value(v) for v in obj]
    if isinstance(obj, Fraction) or (isinstance(obj, float) and not math.isfinite(obj)):
        return str(obj)
    return obj


def write_json(path, doc) -> None:
    """Write `json_value(doc)` as strict JSON (indented, keys sorted,
    newline-terminated): a NaN or infinity is written as its string."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json_value(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def config_to_dict(config: SimConfig) -> dict:
    """Canonical, JSON-ready echo of a SimConfig: each key of the table read
    back from its attribute path through `json_value`, so exact rationals
    become "p/q" strings and the infinite level "inf"."""
    doc = {"initial_condition": config.ic_spec, "noise": config.noise_spec}
    for key, (_, attr) in _KEYS.items():
        owner, _, name = key.rpartition(".")
        (doc.setdefault(owner, {}) if owner else doc)[name] = json_value(attrgetter(attr)(config))
    return doc


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(config: SimConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(config)).encode("utf-8")).hexdigest()


__all__ = [
    "canonical_json",
    "config_hash",
    "config_to_dict",
    "json_value",
    "load_config",
    "parse_config_dict",
    "write_json",
]
