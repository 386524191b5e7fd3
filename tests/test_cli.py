"""CLI surface: exit codes, run directories, manifests, reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.cli import main, render_svg_plot
from snls.config import (
    canonical_json,
    config_hash,
    config_to_dict,
    json_value,
    load_config,
    parse_config_dict,
    write_json,
)
from snls.errors import ConfigError, SnlsError
from snls.grid_field import Grid
from snls.specs import build_field

VALID_DOC = {
    "d": 1,
    "alpha": 3,
    "gamma": 1,
    "lambda": 1,
    "T": 0.25,
    "dt": 1.0 / 64.0,
    "grid": {"n": 64, "L": 32.0},
    "initial_condition": {"kind": "gaussian_bump", "amplitude": 1.0, "width": 2.0},
    "noise": {"coefficients": [{"kind": "constant", "value": 0.3}]},
    "scheme": "splitstep",
    "seed": 5,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- config ingestion --------------------------------------------------------


def test_parse_valid_config():
    cfg = parse_config_dict(VALID_DOC)
    assert cfg.params.d == 1 and cfg.params.lam == 1
    assert cfg.grid.n == 64
    assert cfg.n_steps == 16


def test_config_requires_physical_keys():
    for key in ("d", "alpha", "gamma", "lambda", "T", "initial_condition", "noise"):
        doc = dict(VALID_DOC)
        del doc[key]
        with pytest.raises(ConfigError):
            parse_config_dict(doc)


def test_config_rejects_unknown_keys():
    doc = dict(VALID_DOC)
    doc["alfa"] = 2
    with pytest.raises(ConfigError):
        parse_config_dict(doc)
    # knobs of the removed Picard window driver are rejected, not ignored
    for key, value in (("picard_tol", 1e-8), ("picard_max_iters", 60), ("contraction_target", 0.5)):
        with pytest.raises(ConfigError, match=key):
            parse_config_dict(dict(VALID_DOC, **{key: value}))


def test_config_integer_keys_take_integral_floats_only():
    """d, lambda, grid.n and seed read 2.0 as 2 and reject 2.7 instead of
    truncating it; a plane-wave mode reads the same way."""
    as_floats = dict(VALID_DOC, d=1.0, seed=5.0, grid={"n": 64.0, "L": 32.0}, **{"lambda": 1.0})
    assert parse_config_dict(as_floats) == parse_config_dict(VALID_DOC)
    for key, value in (("d", 1.9), ("lambda", 1.5), ("seed", 2.7), ("seed", True), ("seed", "5")):
        with pytest.raises(ConfigError, match=key):
            parse_config_dict(dict(VALID_DOC, **{key: value}))
    grid = Grid(d=1, n=16, L=8.0)
    wave = build_field({"kind": "plane_wave", "mode": [2.0]}, grid)
    assert np.array_equal(wave.values, build_field({"kind": "plane_wave", "mode": [2]}, grid).values)
    with pytest.raises(ConfigError):
        build_field({"kind": "plane_wave", "mode": [1.5]}, grid)


def test_field_spec_rejects_unknown_keys():
    """Each field kind takes only its own keys; a misspelt one is named."""
    grid = Grid(d=1, n=16, L=8.0)
    for spec, key in (
        ({"kind": "gaussian_bump", "amplitude": 1.0, "widht": 3.0}, "widht"),
        ({"kind": "constant", "value": 1.0, "width": 2.0}, "width"),
        ({"kind": "plane_wave", "mode": [1], "center": [0.0]}, "center"),
        ({"kind": "file", "path": "f.field", "grid": 1}, "grid"),
    ):
        with pytest.raises(ConfigError, match=key):
            build_field(spec, grid)
    for kind in ("bump", ["constant"]):
        with pytest.raises(ConfigError, match="unknown field kind"):
            build_field({"kind": kind}, grid)


def test_config_rational_strings():
    doc = dict(VALID_DOC)
    doc["alpha"] = "7/2"
    doc["gamma"] = "3/2"
    cfg = parse_config_dict(doc)
    assert str(cfg.params.alpha) == "7/2"
    assert str(cfg.params.gamma) == "3/2"
    # a float exponent is read exactly
    cfg = parse_config_dict(dict(VALID_DOC, alpha=3.0, gamma=1.5))
    assert cfg.params.alpha == 3
    assert cfg.params.gamma == Fraction("3/2")


def test_config_roundtrip_is_identity():
    cfg = parse_config_dict(VALID_DOC)
    echo = config_to_dict(cfg)
    cfg2 = parse_config_dict(echo)
    assert cfg2 == cfg
    assert config_hash(cfg2) == config_hash(cfg)


def test_config_echo_and_hash_are_pinned():
    """The echo and its hash, pinned to literal values: a drift that still
    round-trips would change every config_hash."""
    pinned = [
        (
            dict(VALID_DOC, alpha="7/3", gamma=1.5, truncation_level="inf", seed=2**64 - 1),
            '{"T":0.25,"alpha":"7/3","d":1,"dt":0.015625,"enable_laplacian":true,"enable_nonlinearity":true,'
            '"gamma":"3/2","grid":{"L":32.0,"n":64},"initial_condition":{"amplitude":1.0,"kind":"gaussian_bump",'
            '"width":2.0},"lambda":1,"noise":{"coefficients":[{"kind":"constant","value":0.3}]},"scheme":"splitstep",'
            '"seed":18446744073709551615,"truncation_level":"inf"}',
            "5dce22df54c4a17ffd6e25885a02fd6437aafa89d21cef2410cc376087cb1600",
        ),
        (
            dict(VALID_DOC, truncation_level=2.5, enable_laplacian=False),
            '{"T":0.25,"alpha":"3","d":1,"dt":0.015625,"enable_laplacian":false,"enable_nonlinearity":true,'
            '"gamma":"1","grid":{"L":32.0,"n":64},"initial_condition":{"amplitude":1.0,"kind":"gaussian_bump",'
            '"width":2.0},"lambda":1,"noise":{"coefficients":[{"kind":"constant","value":0.3}]},"scheme":"splitstep",'
            '"seed":5,"truncation_level":2.5}',
            "fea802f374e4f883bd27de4beb8cc94ec51049e72627af34aefdea7df5044b8d",
        ),
    ]
    for doc, echo, digest in pinned:
        cfg = parse_config_dict(doc)
        assert canonical_json(config_to_dict(cfg)) == echo
        assert config_hash(cfg) == digest


def test_config_roundtrip_randomized():
    rng = np.random.default_rng(0)
    for _ in range(25):
        doc = dict(VALID_DOC)
        doc["alpha"] = f"{int(rng.integers(9, 40))}/8"
        doc["gamma"] = f"{int(rng.integers(8, 24))}/8"
        doc["T"] = float(rng.choice([0.25, 0.5, 1.0]))
        doc["dt"] = doc["T"] / int(rng.choice([16, 32, 64]))
        doc["seed"] = int(rng.integers(0, 1000))
        doc["truncation_level"] = float(rng.choice([2.0, 8.0, math.inf]))
        if math.isinf(doc["truncation_level"]):
            doc["truncation_level"] = "inf"
        try:
            cfg = parse_config_dict(doc)
        except ConfigError:
            continue  # parameter outside the admissible range: fine
        assert parse_config_dict(config_to_dict(cfg)) == cfg


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
TOP_KEYS = sorted(set(VALID_DOC) | {"truncation_level", "enable_laplacian", "enable_nonlinearity"})
# (where, key): a top-level key, a key of the initial condition (a
# gaussian bump), the noise coefficient (a constant) or the linear
# coefficient (a plane wave), or grid.n or grid.L
BOUNDARY_SITES = (
    [(None, key) for key in TOP_KEYS]
    + [("initial_condition", key) for key in ("amplitude", "width", "center")]
    + [("coefficients", "value"), ("linear_coefficients", "mode"), ("linear_coefficients", "amplitude")]
    + [("grid", "n"), ("grid", "L")]
)
INTEGER_KEYS = ("d", "lambda", "seed")
# keys read as real numbers (or complex ones, from reals): no booleans, no strings
REAL_KEYS = ("T", "dt", "truncation_level", "L", "width", "amplitude", "value")


def _not_real(value) -> bool:
    """A boolean, a string or a non-finite float: never a real config value."""
    return isinstance(value, (bool, str)) or (isinstance(value, float) and not math.isfinite(value))


def _integral(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and value.is_integer()
    )


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    n=st.sampled_from([2, 4, 8, 16, 32, 64]),
    site=st.sampled_from(BOUNDARY_SITES),
    value=JSON_VALUES,
)
def test_config_boundary_raises_only_snls_errors(d, n, site, value):
    """Any JSON value anywhere in a config either parses and builds or
    raises an SnlsError, never a bare ValueError or TypeError.  A value at
    an integer key that is not an integer or an integral float must raise,
    and so must a boolean, a string or a non-finite float at a real key or
    in a gaussian center ("inf" is a level).  A config that builds its
    model and initial state echoes as strict JSON."""
    doc = dict(
        VALID_DOC,
        d=d,
        alpha=2,
        grid={"n": n, "L": 16.0},
        initial_condition={"kind": "gaussian_bump", "amplitude": 1.0, "width": 2.0, "center": [0.0] * d},
        noise={
            "coefficients": [{"kind": "constant", "value": 0.3}],
            "linear_coefficients": [{"kind": "plane_wave", "mode": [1] * d, "amplitude": 0.2}],
        },
    )
    where, key = site
    if where is None and key == "grid" and isinstance(value, dict):
        value = dict(value, n=n)  # keep every example to a few MB
    if where is None:
        doc[key] = value
    elif where == "grid" and key == "L":
        doc["grid"] = {"n": n, "L": value}
    elif where == "grid":
        doc["grid"] = {"n": n if _integral(value) else value, "L": 16.0}  # a few MB at most
    elif where == "initial_condition":
        doc[where][key] = value
    else:
        doc["noise"][where][0][key] = value
    if (where is None and key in INTEGER_KEYS) or site == ("grid", "n"):
        must_raise = not _integral(value)
    elif key in REAL_KEYS:
        must_raise = _not_real(value) and not (key == "truncation_level" and value == "inf")
    elif key == "center":
        must_raise = isinstance(value, list) and any(map(_not_real, value))
    elif key == "mode":
        must_raise = not (_integral(value) or (isinstance(value, list) and all(map(_integral, value))))
    else:
        must_raise = False
    try:
        cfg = parse_config_dict(doc)
        _ = cfg.model, cfg.u0
    except SnlsError:
        return
    assert not must_raise, f"{site} accepted {value!r}"
    json.dumps(config_to_dict(cfg), allow_nan=False)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "nope.json"))


# -- exponents subcommand ----------------------------------------------------


def test_cli_exponents_single(capsys):
    assert main(["exponents", "--d", "1", "--alpha", "3", "--gamma", "3/2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("d,alpha,gamma,q,q_tilde")
    assert out[1] == "1,3,3/2,8,12,1/2,3/4,2/3,1/3,11/10,false,false"


def test_cli_exponents_gamma_one_flags_degenerate(capsys):
    assert main(["exponents", "--d", "2", "--alpha", "3", "--gamma", "1"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[4] == "inf"  # q_tilde at the trivial endpoint
    assert row[10] == "true"  # critical (alpha = 1 + 4/d)
    assert row[11] == "true"  # theta_global degenerate


def test_cli_exponents_invalid_params(tmp_path, capsys):
    assert main(["exponents", "--d", "1", "--alpha", "6", "--gamma", "1"]) == 2
    err = capsys.readouterr().err
    assert "alpha" in err
    # a table row's message names the row
    table = tmp_path / "table.csv"
    table.write_text("d,alpha,gamma\n2,3,1\n1,6,1\n")
    assert main(["exponents", "--table-file", str(table)]) == 2
    assert "(d=1, alpha=6, gamma=1)" in json.loads(capsys.readouterr().err)["message"]


def test_cli_exponents_table_file(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("d,alpha,gamma\n1,2,1\n2,2,3/2\n")
    assert main(["exponents", "--table-file", str(table)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3


# -- simulate subcommand -----------------------------------------------------


def test_cli_simulate_run_directory(tmp_path, capsys):
    cfg_path = write_config(tmp_path, VALID_DOC)
    out_dir = str(tmp_path / "run")
    assert main(["simulate", cfg_path, "--out", out_dir, "--plot"]) == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["manifest.json", "plot.svg", "report.json", "trajectory.csv"]
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["plot.svg", "report.json", "trajectory.csv"]
    for rec in manifest["outputs"].values():
        assert len(rec["sha256"]) == 64 and rec["bytes"] > 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["tau"] == 0.25
    assert report["config_hash"] == manifest["config_hash"]
    header = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,mass,z_component_1,z_component_2,z_total"


def test_cli_simulate_reproducible_csv(tmp_path):
    cfg_path = write_config(tmp_path, VALID_DOC)
    assert main(["simulate", cfg_path, "--out", str(tmp_path / "a")]) == 0
    # re-run from the echoed config, as the manifest instructs
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    echo_path = write_config(tmp_path, manifest["config"], "echo.json")
    assert main(["simulate", echo_path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert ma["outputs"]["trajectory.csv"]["sha256"] == mb["outputs"]["trajectory.csv"]["sha256"]


def test_cli_simulate_missing_config_exit_4(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "IOError"


def test_cli_simulate_invalid_alpha_exit_2(tmp_path, capsys):
    doc = dict(VALID_DOC)
    doc["alpha"] = 6  # above 1 + 4/d for d = 1
    cfg_path = write_config(tmp_path, doc)
    assert main(["simulate", cfg_path, "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert "alpha" in err["message"]


def test_cli_simulate_blowup_exit_3(tmp_path, capsys):
    doc = dict(VALID_DOC)
    doc["lambda"] = -1
    doc["scheme"] = "picard"
    doc["initial_condition"] = {"kind": "gaussian_bump", "amplitude": 80.0, "width": 0.8}
    cfg_path = write_config(tmp_path, doc)
    assert main(["simulate", cfg_path, "--out", str(tmp_path / "x")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BlowUp"


def _overflow_doc(ic_amplitude, coeff_amplitude):
    """Split-step, alpha = gamma = 3, complex noise coefficient: overflows."""
    doc = dict(VALID_DOC, alpha=3, gamma=3, T=1.0, seed=0)
    doc["initial_condition"] = {"kind": "gaussian_bump", "amplitude": ic_amplitude, "width": 2.0}
    doc["noise"] = {"coefficients": [{"kind": "gaussian_bump", "amplitude": coeff_amplitude, "width": 3.0}]}
    return doc


@pytest.mark.parametrize("ic_amplitude, coeff_amplitude, path_index", [(1.0, [5, 5], 3), (2.0, [3, 3], 0)])
def test_cli_simulate_splitstep_overflow_exit_3(tmp_path, capsys, ic_amplitude, coeff_amplitude, path_index):
    """A split-step path that overflows is a solver failure (exit 3), not a
    config error and not a traceback."""
    cfg_path = write_config(tmp_path, _overflow_doc(ic_amplitude, coeff_amplitude))
    code = main(["simulate", cfg_path, "--path-index", str(path_index), "--out", str(tmp_path / "x")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BlowUp"


# -- failure contract --------------------------------------------------------
# Every failure path of the CLI, as (files to write, argv, environment,
# exit code, stderr error kind).  "{tmp}" in argv is the test's directory.

BLOWUP_DOC = dict(
    VALID_DOC,
    scheme="picard",
    initial_condition={"kind": "gaussian_bump", "amplitude": 80.0, "width": 0.8},
    **{"lambda": -1},
)
SIMULATE = ["simulate", "{tmp}/c.json", "--out", "{tmp}/out"]
ENSEMBLE = ["ensemble", "{tmp}/c.json", "--out", "{tmp}/out"]

CLI_FAILURES = {
    "missing-config": ({}, SIMULATE, {}, 4, "IOError"),
    "alpha-6": ({"c.json": dict(VALID_DOC, alpha=6)}, SIMULATE, {}, 2, "ConfigError"),
    "picard-blowup": ({"c.json": BLOWUP_DOC}, SIMULATE, {}, 3, "BlowUp"),
    "keep-paths-with-levels": (
        {"c.json": VALID_DOC}, ENSEMBLE + ["--paths", "2", "--levels", "4,8", "--keep-paths"], {}, 2, "ConfigError"
    ),
    "levels-not-numbers": ({"c.json": VALID_DOC}, ENSEMBLE + ["--paths", "2", "--levels", "4,x"], {}, 2, "ConfigError"),
    # a level item follows the config's level rule: "inf" is its one infinite spelling
    **{
        f"levels-1,{item}": ({"c.json": VALID_DOC}, ENSEMBLE + ["--paths", "2", "--levels", f"1,{item}"], {}, 2, "ConfigError")
        for item in ("Infinity", "1e400", "+inf", "nan", "true")
    },
    "one-path": ({"c.json": VALID_DOC}, ENSEMBLE + ["--paths", "1"], {}, 2, "ConfigError"),
    "exponents-without-d": ({}, ["exponents", "--alpha", "3", "--gamma", "1"], {}, 2, "ConfigError"),
    "exponents-alpha-6": ({}, ["exponents", "--d", "1", "--alpha", "6", "--gamma", "1"], {}, 2, "ConfigError"),
    "missing-table-file": ({}, ["exponents", "--table-file", "{tmp}/absent.csv"], {}, 4, "IOError"),
    "table-row-d-not-int": (
        {"t.csv": "d,alpha,gamma\n1,2,1\nx,2,1\n"}, ["exponents", "--table-file", "{tmp}/t.csv"], {}, 2, "ConfigError"
    ),
    "table-row-alpha-not-rational": (
        {"t.csv": "d,alpha,gamma\n1,x,1\n"}, ["exponents", "--table-file", "{tmp}/t.csv"], {}, 2, "ConfigError"
    ),
    "verify-json-into-directory": ({}, ["verify", "--suite", "exponents", "--json", "{tmp}"], {}, 4, "IOError"),
    "out-names-a-file": (
        {"c.json": VALID_DOC, "f": "x"}, ["simulate", "{tmp}/c.json", "--out", "{tmp}/f"], {}, 4, "IOError"
    ),
    "SNLS_THREADS-four": ({"c.json": VALID_DOC}, ENSEMBLE + ["--paths", "2"], {"SNLS_THREADS": "four"}, 2, "ConfigError"),
    "SNLS_THREADS-negative": ({"c.json": VALID_DOC}, ENSEMBLE + ["--paths", "2"], {"SNLS_THREADS": "-4"}, 2, "ConfigError"),
    # Philox keys and counters are 64-bit: 2^64 is out of range, not a crash
    "seed-flag-2^64": ({"c.json": VALID_DOC}, SIMULATE + ["--seed", str(2**64)], {}, 2, "ConfigError"),
    "ensemble-seed-flag-2^64": ({"c.json": VALID_DOC}, ENSEMBLE + ["--paths", "2", "--seed", str(2**64)], {}, 2, "ConfigError"),
    "path-index-2^64": ({"c.json": VALID_DOC}, SIMULATE + ["--path-index", str(2**64)], {}, 2, "OutOfRange"),
    # an OSError while solving, here from reading a `file` field spec
    "missing-field-file": (
        {"c.json": dict(VALID_DOC, initial_condition={"kind": "file", "path": "absent.field"})}, SIMULATE, {}, 4, "IOError"
    ),
}


def _ic(**changes):
    return dict(VALID_DOC, initial_condition=dict(VALID_DOC["initial_condition"], **changes))


# Malformed values are bad input: exit 2, never a traceback and never a
# silent default.
MALFORMED = {
    "T-abc": dict(VALID_DOC, T="abc"),
    "T-null": dict(VALID_DOC, T=None),
    "dt-x": dict(VALID_DOC, dt="x"),
    "grid-n-x": dict(VALID_DOC, grid={"n": "x"}),
    "seed-x": dict(VALID_DOC, seed="x"),
    "truncation-level-list": dict(VALID_DOC, truncation_level=[1]),
    "enable-laplacian-string": dict(VALID_DOC, enable_laplacian="false"),
    "ic-width-wide": _ic(width="wide"),
    "ic-center-x": _ic(center=["x"]),
    "plane-wave-mode-x": dict(VALID_DOC, initial_condition={"kind": "plane_wave", "mode": ["x"]}),
    "noise-coefficients-3": dict(VALID_DOC, noise={"coefficients": 3}),
    # an integer path would be opened as a file descriptor
    "file-path-int": dict(VALID_DOC, initial_condition={"kind": "file", "path": 987}),
    # integer keys take integers or integral floats; they never truncate
    "seed-2.7": dict(VALID_DOC, seed=2.7),
    "seed-true": dict(VALID_DOC, seed=True),
    "seed-string": dict(VALID_DOC, seed="5"),
    "seed-2^64": dict(VALID_DOC, seed=2**64),
    "lambda-1.5": dict(VALID_DOC, **{"lambda": 1.5}),
    "d-1.9": dict(VALID_DOC, d=1.9),
    "d-true": dict(VALID_DOC, d=True),
    "grid-n-64.9": dict(VALID_DOC, grid={"n": 64.9}),
    "plane-wave-mode-1.5": dict(VALID_DOC, initial_condition={"kind": "plane_wave", "mode": [1.5]}),
    "plane-wave-mode-true": dict(VALID_DOC, initial_condition={"kind": "plane_wave", "mode": [True]}),
    # a misspelt field-spec key is not a silent default
    "ic-unknown-key": _ic(widht=3.0),
    "noise-coefficient-unknown-key": dict(
        VALID_DOC, noise={"coefficients": [{"kind": "constant", "value": 0.3, "amplitude": 2.0}]}
    ),
    # real keys take integers or floats; a boolean or a string is not read as a number
    "T-true": dict(VALID_DOC, T=True),
    "T-string": dict(VALID_DOC, T="0.25"),
    "dt-true": dict(VALID_DOC, T=2.0, dt=True),
    "grid-L-true": dict(VALID_DOC, grid={"n": 64, "L": True}),
    "truncation-level-true": dict(VALID_DOC, truncation_level=True),
    "truncation-level-string": dict(VALID_DOC, truncation_level="8"),
    "ic-width-true": _ic(width=True),
    "ic-amplitude-true": _ic(amplitude=True),
    "constant-value-true": dict(VALID_DOC, noise={"coefficients": [{"kind": "constant", "value": True}]}),
    # ... nor a non-finite float (JSON 1e400 parses to inf), which no report could echo;
    # a gaussian center reads each component as a real
    "ic-width-inf": _ic(width=math.inf),
    "ic-center-inf": _ic(center=[math.inf]),
    "ic-center-true": _ic(center=[True]),
    "ic-center-string": _ic(center=["0.5"]),
    "truncation-level-inf-float": dict(VALID_DOC, truncation_level=math.inf),
    # JSON NaN and Infinity load as floats, which are no exponent
    "alpha-nan": dict(VALID_DOC, alpha=math.nan),
    "gamma-inf": dict(VALID_DOC, gamma=math.inf),
}
CLI_FAILURES.update({name: ({"c.json": doc}, SIMULATE, {}, 2, "ConfigError") for name, doc in MALFORMED.items()})


def run_cli_case(tmp_path, capsys, monkeypatch, files, argv, env):
    """Run one CLI case; return its exit code and its stderr lines."""
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_cli_failure_contract(tmp_path, capsys, monkeypatch, case):
    files, argv, env, exit_code, kind = CLI_FAILURES[case]
    code, err = run_cli_case(tmp_path, capsys, monkeypatch, files, argv, env)
    assert code == exit_code
    assert len(err) == 1
    assert json.loads(err[0])["error"] == kind


def test_cli_malformed_value_in_a_process(tmp_path):
    """A real process prints one JSON line on stderr and no traceback."""
    import snls

    cfg_path = write_config(tmp_path, MALFORMED["T-abc"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(snls.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "snls.cli", "simulate", cfg_path, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 2
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "ConfigError" and "'T'" in doc["message"]


def test_cli_scheme_and_seed_overrides(tmp_path):
    cfg_path = write_config(tmp_path, VALID_DOC)
    assert main(["simulate", cfg_path, "--scheme", "picard", "--seed", "9", "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["scheme"] == "picard"
    assert report["config"]["seed"] == 9


# -- ensemble subcommand -----------------------------------------------------


def test_cli_ensemble_summary(tmp_path):
    cfg_path = write_config(tmp_path, VALID_DOC)
    out = str(tmp_path / "ens")
    assert main(["ensemble", cfg_path, "--paths", "4", "--out", out]) == 0
    doc = json.loads((tmp_path / "ens" / "summary.json").read_text())
    assert doc["n_paths"] == 4 and doc["n_failed"] == 0
    assert 0.0 <= doc["tau_equals_T_frequency"] <= 1.0


def test_cli_ensemble_keep_paths(tmp_path):
    cfg_path = write_config(tmp_path, VALID_DOC)
    out = str(tmp_path / "kept")
    assert main(["ensemble", cfg_path, "--paths", "3", "--keep-paths", "--out", out]) == 0
    manifest = json.loads((tmp_path / "kept" / "manifest.json").read_text())
    per_path = [k for k in manifest["outputs"] if "paths-" in k]
    assert len(per_path) == 3
    sub = per_path[0].split(os.sep)[0]
    assert sub == f"paths-{manifest['config_hash'][:12]}"
    doc = json.loads((tmp_path / "kept" / per_path[0]).read_text())
    assert doc["ok"] is True and "report" in doc
    # --keep-paths is a per-ensemble feature, rejected alongside --levels
    assert main(["ensemble", cfg_path, "--paths", "2", "--levels", "4,8", "--keep-paths", "--out", out]) == 2


def test_cli_ensemble_keep_paths_lists_only_this_run(tmp_path):
    """A second, smaller run into the same directory lists the files it
    wrote, with their checksums, and not the older per-path reports."""
    cfg_path = write_config(tmp_path, VALID_DOC)
    out = tmp_path / "kept"
    assert main(["ensemble", cfg_path, "--paths", "5", "--keep-paths", "--out", str(out)]) == 0
    assert main(["ensemble", cfg_path, "--paths", "2", "--keep-paths", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    sub = f"paths-{manifest['config_hash'][:12]}"
    assert sorted(manifest["outputs"]) == sorted(
        ["summary.json", os.path.join(sub, "path_00000.json"), os.path.join(sub, "path_00001.json")]
    )
    for name, entry in manifest["outputs"].items():
        assert entry["sha256"] == hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert len(os.listdir(out / sub)) == 5  # the older reports stay, unlisted


def test_cli_ensemble_levels(tmp_path):
    cfg_path = write_config(tmp_path, VALID_DOC)
    out = str(tmp_path / "lev")
    assert main(["ensemble", cfg_path, "--paths", "3", "--levels", "4,8", "--scheme", "picard", "--out", out]) == 0
    lines = (tmp_path / "lev" / "levels.csv").read_text().splitlines()
    assert lines[0].startswith("level,mean_yt_norm")
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "lev" / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["levels.csv", "summary.json"]


def test_file_based_field_specs(tmp_path):
    """Initial conditions and noise coefficients can come from binary field
    files in the serialization layout."""
    import snls

    grid = snls.Grid(d=1, n=64, L=32.0)
    ic = snls.gaussian_field(grid, 1.3, 2.0)
    coeff = snls.gaussian_field(grid, 0.4, 3.0)
    ic_path = tmp_path / "ic.field"
    coeff_path = tmp_path / "coeff.field"
    snls.grid_field.write_field(ic_path, ic)
    snls.grid_field.write_field(coeff_path, coeff)
    doc = dict(VALID_DOC)
    doc["initial_condition"] = {"kind": "file", "path": str(ic_path)}
    doc["noise"] = {"coefficients": [{"kind": "file", "path": str(coeff_path)}]}
    cfg = parse_config_dict(doc)
    assert np.array_equal(cfg.u0.values, ic.values)
    assert np.array_equal(cfg.model.coeffs[0], coeff.values)
    assert cfg.model.conservative


# -- strict JSON in run files ------------------------------------------------


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path} holds the non-standard JSON token {token}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def test_cli_run_files_are_strict_json(tmp_path):
    cfg_path = write_config(tmp_path, VALID_DOC)
    failing_path = write_config(tmp_path, BLOWUP_DOC, "failing.json")
    runs = {
        "simulate": ["simulate", cfg_path],
        "ensemble": ["ensemble", cfg_path, "--paths", "3"],
        "keep-paths": ["ensemble", cfg_path, "--paths", "3", "--keep-paths"],
        "levels": ["ensemble", cfg_path, "--paths", "3", "--levels", "4,8"],
        "all-failed": ["ensemble", failing_path, "--paths", "3"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    assert main(["verify", "--suite", "exponents", "--json", str(tmp_path / "verify.json")]) == 0
    written = [p for name in runs for p in (tmp_path / name).rglob("*.json")] + [tmp_path / "verify.json"]
    assert len(written) == 14  # two per run, three per-path reports, the verify report
    docs = {str(p): _strict_json(p) for p in written}
    all_failed = docs[str(tmp_path / "all-failed" / "summary.json")]
    assert all_failed["n_failed"] == 3 and all_failed["mean_yt_norm"] == "nan"
    assert all_failed["taus"] == ["nan"] * 3
    assert [set(f) for f in all_failed["failures"]] == [{"path_index", "error"}] * 3
    assert [f["path_index"] for f in all_failed["failures"]] == [0, 1, 2]
    assert all(f["error"].startswith("BlowUp: ") for f in all_failed["failures"])


def test_json_value_makes_records_strict_json(tmp_path):
    """The one encoder of run records: dataclasses become objects, arrays
    and tuples lists, non-finite floats strings; finite values and dict
    keys are written as json writes them."""

    @dataclass
    class Record:
        name: str
        values: np.ndarray
        pair: tuple

    rec = Record("r", np.array([1.5, np.nan, -np.inf]), (np.float64(np.inf), 2))
    assert json_value(rec) == {"name": "r", "values": [1.5, "nan", "-inf"], "pair": ["inf", 2]}
    assert json_value([math.nan, math.inf, -math.inf]) == ["nan", "inf", "-inf"]
    assert json_value([np.float64(math.nan), np.float64(-math.inf)]) == ["nan", "-inf"]
    assert json_value({"alpha": Fraction(7, 3), "gamma": Fraction(2)}) == {"alpha": "7/3", "gamma": "2"}
    path = tmp_path / "doc.json"
    write_json(path, {"x": np.float64(0.1) + np.float64(0.2), "by_p": {1.0: 3, 2.0: (math.nan, 0.5)}})
    assert path.read_text() == json.dumps(
        {"by_p": {"1.0": 3, "2.0": ["nan", 0.5]}, "x": 0.1 + 0.2}, indent=2
    ) + "\n"


# -- verify subcommand -------------------------------------------------------


def test_cli_verify_exponents_suite(tmp_path, capsys):
    report_path = str(tmp_path / "verify.json")
    assert main(["verify", "--suite", "exponents", "--json", report_path]) == 0
    out = capsys.readouterr().out
    assert "PASS exponents/scaling-identity-exact" in out
    assert "PASS overall" in out
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["passed"] is True


def test_cli_verify_truncation_suite(capsys):
    assert main(["verify", "--suite", "truncation"]) == 0
    assert "window-chaining-identity" in capsys.readouterr().out


# -- svg plotting ------------------------------------------------------------


def test_render_svg_plot_structure():
    svg = render_svg_plot([0.0, 0.5, 1.0], {"mass": [1.0, 1.0, 1.0], "z_total": [0.0, 0.4, 0.9]}, "demo")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "demo" in svg
    # deterministic output
    assert svg == render_svg_plot([0.0, 0.5, 1.0], {"mass": [1.0, 1.0, 1.0], "z_total": [0.0, 0.4, 0.9]}, "demo")
