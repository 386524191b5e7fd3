"""A run's input: reading, defaults, checks, spec builders, echo and hash.

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
and integral floats (2.0, not 2.7; `as_integer`); T, dt, grid.L and
truncation_level accept finite integers and floats (`as_real`), and the
level also the string "inf", its one infinite spelling (`as_level`); the
enable_* switches accept only JSON booleans.  A value that cannot be read
as its type raises ConfigError, in a file or passed to SimConfig from
Python, which reads its fields by the same readers (its level as a number:
math.inf, not the string).  Each key is named once, in one table of
its reader and the SimConfig attribute that keeps it: `parse_config_dict`
reads through it, and `config_to_dict` echoes each attribute through
`json_value`.  `config_hash` is the SHA-256 of that echo's canonical JSON
(sorted keys, compact separators), so equal configs hash equally
regardless of input formatting.

Field specs (initial conditions and noise coefficients alike), built by
`build_field`:

    {"kind": "constant",      "value": c}                 c real or [re, im]
    {"kind": "gaussian_bump", "amplitude": a, "width": w, "center": [...]}
    {"kind": "plane_wave",    "mode": [..], "amplitude": a}
    {"kind": "file",          "path": "..."}              binary field layout

Noise specs, built by `build_noise_model`:

    {"coefficients": [field-spec, ...], "linear_coefficients": [field-spec, ...]}

A SimConfig is a value: it reads and checks its input, and builds its
noise model and initial state from these specs, when it is made, and then
keeps a read-only copy of each spec (nested objects become read-only dicts
and lists tuples), so what it echoes is what it solves.

Every record a run writes (report, summary, per-path report, manifest,
verify report) becomes JSON in one place, `write_json`, through
`json_value`: a NaN or infinity is written as the string "nan", "inf" or
"-inf", so the files stay strict JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from operator import attrgetter

import numpy as np

from .errors import ConfigError, OutOfRange
from .exponents import ModelParams, as_fraction
from .grid_field import (
    ComplexField,
    Grid,
    constant_field,
    gaussian_field,
    plane_wave_field,
    read_field,
)
from .noise import NoiseModel, make_noise_model

SCHEMES = ("picard", "splitstep")


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


def _level_number(value) -> float:
    """A level passed as a number: math.inf, or `as_real`.  The string "inf"
    is the file's spelling, which `as_level` has read before a config is made."""
    return math.inf if value == math.inf else as_real(value)


def as_integer(value) -> int:
    """An integer, or a float with an integral value, as an int; anything
    else (a boolean, a string, a fractional float) raises TypeError or
    ValueError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(as_real(value[0]), as_real(value[1]))
    return complex(as_real(value))


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a JSON boolean, got {value!r}")
    return value


@dataclass(frozen=True)
class SimConfig:
    """Everything a single-path solve needs, JSON-representable.

    Physical data (params, grid, noise, initial condition, horizon) have no
    defaults; discretization and solver choices do.  `truncation_level`
    is the cutoff level of the Picard solver (inf disables the cutoff);
    split-step always solves the untruncated equation and only monitors the
    stopping time against this level.

    The config is frozen, and builds its noise model (`model`) and initial
    state (`u0`) from its specs when it is made, after checking its other
    values, so a malformed spec raises ConfigError there (an unreadable
    field file its OSError or SnlsError).  It then
    keeps read-only copies of the specs: editing one in place raises
    TypeError.  A changed config is a new object (`dataclasses.replace`),
    which builds its own.
    """

    params: ModelParams
    grid: Grid
    noise_spec: dict
    ic_spec: dict
    T: float
    dt: float
    scheme: str = "splitstep"
    truncation_level: float = math.inf
    seed: int = 0
    enable_laplacian: bool = True
    enable_nonlinearity: bool = True
    model: NoiseModel = field(init=False, repr=False, compare=False)
    u0: ComplexField = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.grid.d != self.params.d:
            raise ConfigError(f"grid dimension {self.grid.d} differs from the model's d = {self.params.d}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        # read as the file's values are, so a value passed from Python is
        # refused where the file's would be, and echoed as it is solved
        for name, read in _FIELD_READERS.items():
            try:
                object.__setattr__(self, name, read(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"malformed value for {name}: {exc}") from exc
        if not self.T > 0:
            raise ConfigError(f"horizon T must be positive and finite, got {self.T}")
        if not (self.dt > 0 and self.dt <= self.T):
            raise ConfigError(f"dt must lie in (0, T], got {self.dt}")
        steps = self.T / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ConfigError(f"dt={self.dt} does not divide T={self.T}")
        if not self.truncation_level > 0:
            raise ConfigError(f"truncation level must be positive, got {self.truncation_level}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2^64), got {self.seed}")
        # built from the specs as given, so an error quotes them as written
        model = build_noise_model(self.noise_spec, self.grid)
        u0 = build_field(self.ic_spec, self.grid)
        object.__setattr__(self, "noise_spec", _read_only(self.noise_spec))
        object.__setattr__(self, "ic_spec", _read_only(self.ic_spec))
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "u0", u0)

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def mesh(self) -> np.ndarray:
        """The K + 1 mesh times; the last is T exactly."""
        return np.linspace(0.0, self.T, self.n_steps + 1)


class _ReadOnlySpec(dict):
    """A spec object that refuses edits, and pickles as a copy of itself."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a config's specs are read-only; make a changed config with dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _read_only(spec):
    """A read-only deep copy of a spec: objects become _ReadOnlySpec, lists tuples."""
    if isinstance(spec, dict):
        return _ReadOnlySpec({k: _read_only(v) for k, v in spec.items()})
    if isinstance(spec, (list, tuple)):
        return tuple(_read_only(v) for v in spec)
    return spec


def read_levels(levels) -> list:
    """Cutoff levels read by the config's level rule (`as_level`), each
    positive, as a config's own level is."""
    try:
        read = [as_level(n) for n in levels]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f'truncation levels {levels} are not all finite numbers or "inf": {exc}') from exc
    for n in read:
        if not n > 0:
            raise ConfigError(f"truncation level must be positive, got {n}")
    return read


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
                    mode=[as_integer(m) for m in (mode if isinstance(mode, (list, tuple)) else [mode])],
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
    if not all(isinstance(specs, (list, tuple)) for specs in lists):
        raise ConfigError(f"noise coefficients must be lists of field specs, got {spec!r}")
    coeffs, linear = ([build_field(s, grid) for s in specs] for specs in lists)
    return make_noise_model(coeffs, linear, grid)


_REQUIRED = ("d", "alpha", "gamma", "lambda", "T", "initial_condition", "noise")

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
# SimConfig's own numbers and switches, by the table's readers; a level passed
# from Python is a number (`scheme` is checked against SCHEMES instead).
_FIELD_READERS = {
    attr: _level_number if read is as_level else read
    for read, attr in _KEYS.values()
    if "." not in attr and read is not str
}


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
    doc = {"initial_condition": json_value(config.ic_spec), "noise": json_value(config.noise_spec)}
    for key, (_, attr) in _KEYS.items():
        owner, _, name = key.rpartition(".")
        (doc.setdefault(owner, {}) if owner else doc)[name] = json_value(attrgetter(attr)(config))
    return doc


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(config: SimConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(config)).encode("utf-8")).hexdigest()
