"""Command-line surface: exponents | simulate | ensemble | verify.

Exit codes: 0 success, 1 failed verification assertion, 2 invalid
configuration, 3 solver failure (a step blew up, in either scheme), 4 I/O failure.
Machine-readable failure reasons go to standard error as one JSON line.
`main` alone turns an exception into an exit code: SolverError gives 3, any
other SnlsError 2 and OSError 4; every reader of outside input (config,
field specs, --levels, table rows, SNLS_THREADS) raises ConfigError on a
malformed value.

Run directories are self-describing: every simulate/ensemble invocation
writes a manifest listing each output file with its SHA-256, the canonical
config echo and its hash, so re-running with the echoed config and seed
reproduces the CSV outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .config import SCHEMES, config_hash, config_to_dict, load_config, write_json
from .errors import ConfigError, OutOfRange, SnlsError, SolverError
from .exponents import (
    ModelParams,
    as_fraction,
    bootstrap_exponents,
    gamma_global_bound,
    z_exponents,
)
from .grid_field import write_trajectory_csv
from .montecarlo import path_filename, run_ensemble, truncation_uniformity_study
from .solver import solve
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

_EXP_HEADER = (
    "d,alpha,gamma,q,q_tilde,delta,delta_tilde,theta_interp,theta_global,"
    "gamma_upper_bound,critical,theta_global_degenerate"
)


def _exponent_row(d, alpha, gamma) -> str:
    try:
        params = ModelParams(d=int(d), alpha=as_fraction(alpha), gamma=as_fraction(gamma), lam=1)
        zx = z_exponents(params)
        boot = bootstrap_exponents(params)
    except (SnlsError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"(d={d}, alpha={alpha}, gamma={gamma}): {exc}") from exc
    try:
        bound = str(gamma_global_bound(params.d, params.alpha))
    except OutOfRange:
        bound = ""
    q_tilde = "inf" if not zx.q_tilde_finite else str(zx.q_tilde)
    return ",".join(
        [
            str(params.d),
            str(params.alpha),
            str(params.gamma),
            str(zx.q),
            q_tilde,
            str(boot.delta),
            str(boot.delta_tilde),
            str(boot.theta_interp),
            str(boot.theta_global),
            bound,
            str(boot.critical).lower(),
            str(boot.theta_global_degenerate).lower(),
        ]
    )


def _table_rows(path) -> list:
    """The (d, alpha, gamma) rows of a CSV table file; header rows are skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [rec for rec in csv.reader(fh) if rec and rec[0].strip().lower() != "d"]
    for rec in rows:
        if len(rec) < 3:
            raise ConfigError(f"table row {rec} does not give d, alpha and gamma")
    return [[x.strip() for x in rec[:3]] for rec in rows]


def cmd_exponents(args) -> int:
    if args.table_file:
        rows = _table_rows(args.table_file)
    elif args.d is None or args.alpha is None or args.gamma is None:
        raise ConfigError("give --d, --alpha and --gamma, or --table-file")
    else:
        rows = [(args.d, args.alpha, args.gamma)]
    print("\n".join([_EXP_HEADER] + [_exponent_row(*row) for row in rows]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotting (hand-rolled SVG: deterministic bytes, no display)
# ---------------------------------------------------------------------------


def render_svg_plot(times, series: dict, title: str) -> str:
    """Static polyline chart of named series against time."""
    width, height, pad = 720, 400, 54
    t0, t1 = float(min(times)), float(max(times))
    values = [v for vs in series.values() for v in vs]
    lo, hi = float(min(values)), float(max(values))
    if hi - lo < 1e-300:
        hi = lo + 1.0
    if t1 - t0 <= 0:
        t1 = t0 + 1.0
    sx = (width - 2 * pad) / (t1 - t0)
    sy = (height - 2 * pad) / (hi - lo)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    buf = io.StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    buf.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    buf.write(
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>\n'
    )
    # axes
    buf.write(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>\n'
    )
    for frac in (0.0, 0.5, 1.0):
        tx = t0 + frac * (t1 - t0)
        vy = lo + frac * (hi - lo)
        x = pad + (tx - t0) * sx
        y = height - pad - (vy - lo) * sy
        buf.write(
            f'<text x="{x:.1f}" y="{height - pad + 16}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{tx:.3g}</text>\n'
        )
        buf.write(
            f'<text x="{pad - 6}" y="{y + 4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{vy:.3g}</text>\n'
        )
    for i, (name, vals) in enumerate(series.items()):
        color = colors[i % len(colors)]
        pts = " ".join(
            f"{pad + (float(t) - t0) * sx:.2f},{height - pad - (float(v) - lo) * sy:.2f}"
            for t, v in zip(times, vals)
        )
        buf.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>\n')
        buf.write(
            f'<text x="{width - pad - 4}" y="{pad + 16 * (i + 1)}" text-anchor="end" font-size="12" '
            f'font-family="sans-serif" fill="{color}">{name}</text>\n'
        )
    buf.write("</svg>\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, config, extra: dict, filenames) -> dict:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config_to_dict(config),
        "config_hash": config_hash(config),
        "outputs": {
            name: {
                "sha256": _sha256_file(os.path.join(out_dir, name)),
                "bytes": os.path.getsize(os.path.join(out_dir, name)),
            }
            for name in filenames
        },
    }
    manifest.update(extra)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# simulate / ensemble
# ---------------------------------------------------------------------------


def _load_config_for_cli(args):
    config = load_config(args.config)
    # one replace for both flags, since each config builds its model when it is made
    overrides = {name: value for name, value in (("scheme", args.scheme), ("seed", args.seed)) if value is not None}
    return replace(config, **overrides) if overrides else config


def cmd_simulate(args) -> int:
    config = _load_config_for_cli(args)
    report = solve(config, path_index=args.path_index)
    os.makedirs(args.out, exist_ok=True)
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), report.trajectory)
    report_doc = report.summary_dict()
    report_doc["config"] = config_to_dict(config)
    report_doc["config_hash"] = config_hash(config)
    write_json(os.path.join(args.out, "report.json"), report_doc)
    files = ["trajectory.csv", "report.json"]
    if args.plot:
        traj = report.trajectory
        c1, c2 = traj.z_columns()
        svg = render_svg_plot(
            traj.times.tolist(),
            {
                "mass": traj.running_mass.tolist(),
                "z_total": (c1 + c2).tolist(),
            },
            title=f"single path (scheme={config.scheme}, seed={config.seed}, path={args.path_index})",
        )
        with open(os.path.join(args.out, "plot.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)
        files.append("plot.svg")
    manifest = write_manifest(
        args.out, "simulate", config, {"tau": report.tau, "path_index": args.path_index}, files
    )
    print(json.dumps({"out": args.out, "tau": report.tau, "config_hash": manifest["config_hash"]}))
    return EXIT_OK


def cmd_ensemble(args) -> int:
    config = _load_config_for_cli(args)
    # a --levels item is "inf" or JSON number text, read by the config's level rule
    items = [item.strip() for item in args.levels.split(",")] if args.levels else []
    try:
        levels = [item if item == "inf" else json.loads(item) for item in items]
    except ValueError as exc:
        raise ConfigError(f'--levels items must be JSON number text or "inf", got {args.levels!r}') from exc
    if args.keep_paths and levels:
        raise ConfigError("--keep-paths is not supported together with --levels")
    if args.scheme == "splitstep" and levels:
        raise ConfigError("--levels runs a Picard study; --scheme splitstep is not supported together with it")
    persist_dir = os.path.join(args.out, f"paths-{config_hash(config)[:12]}") if args.keep_paths else None
    if levels:
        summary = study = truncation_uniformity_study(config, levels, args.paths)
    else:
        summary = run_ensemble(config, args.paths, persist_dir=persist_dir)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "summary.json"), summary)
    files = ["summary.json"]
    if levels:
        with open(os.path.join(args.out, "levels.csv"), "w", newline="") as fh:
            fh.write("level,mean_yt_norm,stderr_yt_norm,tau_equals_T_frequency,n_failed\r\n")
            for lev, s in zip(study.levels, study.summaries):
                fh.write(
                    f"{lev!r},{s.mean_yt_norm!r},{s.stderr_yt_norm!r},"
                    f"{s.tau_equals_T_frequency!r},{s.n_failed}\r\n"
                )
        files.append("levels.csv")
    if persist_dir is not None:
        rel = os.path.relpath(persist_dir, args.out)
        files.extend(os.path.join(rel, path_filename(i)) for i in range(args.paths))
    extra = {"paths": args.paths, "levels": study.levels} if levels else {"paths": args.paths}
    write_manifest(args.out, "ensemble", config, extra, files)
    print(json.dumps({"out": args.out, "paths": args.paths}))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(args.suite)
    for suite_name, suite in results["suites"].items():
        for check in suite["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status} {suite_name}/{check['name']}: {check['detail']}")
    print(f"{'PASS' if results['passed'] else 'FAIL'} overall")
    if args.json:
        write_json(args.json, results)
    return EXIT_OK if results["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snls",
        description="Stochastic NLS simulator: exact exponent algebra, two integrators, Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="emit the exponent table as CSV on stdout")
    p_exp.add_argument("--d", type=int, help="space dimension")
    p_exp.add_argument("--alpha", help="nonlinearity power (int, float or p/q)")
    p_exp.add_argument("--gamma", help="noise power (int, float or p/q)")
    p_exp.add_argument("--table-file", help="CSV file of d,alpha,gamma rows")
    p_exp.set_defaults(func=cmd_exponents)

    p_sim = sub.add_parser("simulate", help="solve a single path and persist the run")
    p_sim.add_argument("config", help="JSON config file")
    p_sim.add_argument("--scheme", choices=SCHEMES, help="override config scheme")
    p_sim.add_argument("--seed", type=int, help="override config seed")
    p_sim.add_argument("--path-index", type=int, default=0)
    p_sim.add_argument("--out", default="run", help="output directory")
    p_sim.add_argument("--plot", action="store_true", help="emit plot.svg of (t, mass, Z_t)")
    p_sim.set_defaults(func=cmd_simulate)

    p_ens = sub.add_parser("ensemble", help="Monte Carlo ensemble (optionally per truncation level)")
    p_ens.add_argument("config")
    p_ens.add_argument("--paths", type=int, required=True)
    p_ens.add_argument("--levels", help="comma-separated truncation levels for a Picard level study, whatever the config's scheme")
    p_ens.add_argument("--scheme", choices=SCHEMES)
    p_ens.add_argument("--seed", type=int)
    p_ens.add_argument("--out", default="run")
    p_ens.add_argument(
        "--keep-paths",
        action="store_true",
        help="persist one report JSON per path under a config-hash-keyed subdirectory",
    )
    p_ens.set_defaults(func=cmd_ensemble)

    p_ver = sub.add_parser("verify", help="run a named invariant suite")
    p_ver.add_argument(
        "--suite", default="all", choices=sorted(SUITES) + ["all"], help="suite name (default: all)"
    )
    p_ver.add_argument("--json", help="also write the JSON report to this path")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        return _fail(EXIT_SOLVER, type(exc).__name__, str(exc))
    except SnlsError as exc:
        return _fail(EXIT_CONFIG, type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "IOError", str(exc))


if __name__ == "__main__":
    sys.exit(main())
