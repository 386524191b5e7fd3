"""The four benchmark workloads: inputs, set-up, one timed unit, checks.

A run repeats one workload's unit of work until `--seconds` of timed work
have elapsed.  Unit r of an untraced run uses the Brownian seed
`seed * 1000 + r`, so a run averages over fresh inputs; a traced run
repeats unit 0's inputs, so traced and untraced units can be compared
directly.  Inputs reach the program only as a generated JSON config (and
the seed argument of the public entry point).

Every unit's outputs are checked after its timer stops; a failed check
fails the run.  This module imports snls only inside `setup`, so the
set-up probe times the import.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field, replace

MAX_UNITS = 1000


def unit_seed(seed: int, unit: int) -> int:
    if not 0 <= unit < MAX_UNITS:
        raise ValueError(f"unit index {unit} outside [0, {MAX_UNITS})")
    return seed * MAX_UNITS + unit


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class UnitResult:
    """What one unit produced: its operations, solved paths and checks."""

    ops: int
    failed_ops: int
    paths: int
    data: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _physics(alpha, gamma, ic_amp, noise_amp, dt, scheme, n=128):
    return {
        "d": 1,
        "alpha": alpha,
        "gamma": gamma,
        "lambda": 1,
        "T": 1.0,
        "dt": dt,
        "grid": {"n": n, "L": 32.0},
        "initial_condition": {"kind": "gaussian_bump", "amplitude": ic_amp, "width": 2.0},
        "noise": {"coefficients": [{"kind": "gaussian_bump", "amplitude": noise_amp, "width": 3.0}]},
        "scheme": scheme,
    }


class Workload:
    name = ""
    why = ""
    uses_config = True

    def __init__(self, small: bool = False):
        self.small = small

    def config_doc(self, seed: int) -> dict | None:
        return None

    def setup(self, config_path):
        """Import snls and build everything the first timed call needs."""
        import snls  # noqa: F401  (the import is part of set-up)
        import snls.config
        import snls.propagator
        import snls.solver

        ctx = {}
        if self.uses_config:
            config = snls.config.load_config(config_path)
            grid, _model, u0 = snls.solver.materialize(config)
            snls.propagator.get_plan(grid, config.enable_laplacian)
            ctx.update(config=config, config_path=config_path, u0=u0)
        return ctx

    def unit(self, ctx, seed: int, work_dir) -> UnitResult:
        raise NotImplementedError

    def check(self, ctx, res: UnitResult) -> list:
        return []

    def final_checks(self, ctx, first: UnitResult, results) -> list:
        return []


class EnsembleSplitstep(Workload):
    name = "ensemble-splitstep-d1"
    why = (
        "many short conservative split-step paths: per-path fixed costs (materialize, Philox sampling, "
        "per-step FFTs, trajectory bookkeeping, half-box monitor) dominate"
    )

    @property
    def n_paths(self):
        return 2 if self.small else 20

    def config_doc(self, seed):
        doc = _physics(3, 1, 1.0, 0.5, 1.0 / 64.0 if self.small else 1.0 / 256.0, "splitstep")
        doc["seed"] = seed
        return doc

    def setup(self, config_path):
        ctx = super().setup(config_path)
        config, u0 = ctx["config"], ctx["u0"]
        # ||u0||_2 computed here with plain numpy, independently of snls's norms
        import numpy as np

        g = config.grid
        x = -0.5 * g.L + g.h * np.arange(g.n)
        spec = config.ic_spec
        u = spec["amplitude"] * np.exp(-(x**2) / (2.0 * spec["width"] ** 2))
        ctx["mass0"] = float(np.sqrt(np.sum(np.abs(u) ** 2) * g.h))
        if _rel(ctx["mass0"], float(np.sqrt(np.sum(np.abs(u0.values) ** 2) * g.h))) > 1e-14:
            raise RuntimeError("initial condition differs from its spec")
        return ctx

    def unit(self, ctx, seed, work_dir):
        import snls.montecarlo

        summary = snls.montecarlo.run_ensemble(ctx["config"], self.n_paths, seed=seed)
        return UnitResult(
            ops=summary.n_paths, failed_ops=summary.n_failed, paths=summary.n_paths, data={"summary": summary, "seed": seed}
        )

    def check(self, ctx, res: UnitResult):
        s = res.data["summary"]
        worst = max(_rel(float(m), ctx["mass0"]) for m in s.sup_masses)
        return [
            Check("no-failed-paths", s.n_failed == 0, f"{s.n_failed} of {s.n_paths} paths failed"),
            Check("sup-mass-conserved", worst <= 1e-10, f"max |sup_mass - ||u0||_2| / ||u0||_2 = {worst:.2e}"),
        ]

    def final_checks(self, ctx, first, results):
        """Re-solve a few paths of the first unit alone through solver.solve."""
        import snls.noise
        import snls.solver

        s = first.data["summary"]
        config = replace(ctx["config"], seed=first.data["seed"])
        _, model, _ = snls.solver.materialize(config)
        picks = random.Random(first.data["seed"]).sample(range(s.n_paths), min(3, s.n_paths))
        worst = 0.0
        for i in picks:
            path = snls.noise.sample_brownian_path(config.mesh(), model.total_modes, config.seed, i)
            rep = snls.solver.solve(config, path, keep_states=False)
            c1, c2 = rep.trajectory.z_components_at(config.T)
            worst = max(worst, _rel(rep.tau, s.taus[i]), _rel(c1, s.yt_norms[i]), _rel(c1 + c2, s.z_finals[i]))
        return [Check("resolve-matches-ensemble", worst <= 1e-12, f"paths {picks}: max relative gap {worst:.2e}")]


class LevelsPicard(Workload):
    name = "levels-picard-d1"
    why = (
        "truncation-level study (levels 4, 8, 16) of Picard ensembles on common random numbers: "
        "window attempts, sweeps and cutoff evaluation dominate"
    )
    levels = (4.0, 8.0, 16.0)

    @property
    def n_paths(self):
        return 2 if self.small else 10

    def config_doc(self, seed):
        doc = _physics(2, 1, 1.2, 0.4, 1.0 / 16.0 if self.small else 1.0 / 64.0, "picard")
        doc["seed"] = seed
        return doc

    def unit(self, ctx, seed, work_dir):
        import snls.montecarlo

        study = snls.montecarlo.truncation_uniformity_study(ctx["config"], self.levels, self.n_paths, seed=seed)
        solved = sum(s.n_paths for s in study.summaries)
        failed = sum(s.n_failed for s in study.summaries)
        return UnitResult(ops=solved, failed_ops=failed, paths=solved, data={"study": study})

    def check(self, ctx, res):
        import snls.montecarlo

        study = res.data["study"]
        freqs = [s.tau_equals_T_frequency for s in study.summaries]
        failed = sum(s.n_failed for s in study.summaries)
        cheb = snls.montecarlo.chebyshev_consistency(study.summaries[-1], self.levels)
        return [
            Check("no-failed-paths", failed == 0, f"{failed} failed paths over levels {self.levels}"),
            Check("frequencies-nondecreasing", all(b >= a for a, b in zip(freqs, freqs[1:])), f"P(tau=T) = {freqs}"),
            Check("chebyshev-consistency", bool(cheb) and all(r["ok"] for r in cheb), f"{cheb}"),
        ]

    def final_checks(self, ctx, first, results):
        hits = total = 0
        for res in results:
            top = res.data["study"].summaries[-1]
            hits += round(top.tau_equals_T_frequency * top.n_paths)
            total += top.n_paths
        freq = hits / total
        return [Check("top-level-frequency", freq >= 0.95, f"P(tau=T) at level {self.levels[-1]} = {freq:.3f} over {total} paths")]


class SimulateLong(Workload):
    name = "simulate-splitstep-long"
    why = (
        "one long split-step path through the CLI with states kept: O(K^2) stopping-time scan and "
        "CSV export, file writes and SHA-256 manifests dominate; nothing to batch"
    )
    level = 100.0

    @property
    def n_steps(self):
        return 256 if self.small else 8192

    def config_doc(self, seed):
        doc = _physics(3, 1, 1.0, 0.5, 1.0 / self.n_steps, "splitstep")
        doc["truncation_level"] = self.level
        doc["seed"] = seed
        return doc

    def setup(self, config_path):
        ctx = super().setup(config_path)
        import snls.cli  # noqa: F401

        return ctx

    def unit(self, ctx, seed, work_dir):
        import snls.cli

        out = os.path.join(work_dir, f"simulate-{seed}")
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):  # keep the result line last
            code = snls.cli.main(["simulate", ctx["config_path"], "--seed", str(seed), "--out", out])
        return UnitResult(ops=1, failed_ops=int(code != 0), paths=1, data={"code": code, "out": out})

    def check(self, ctx, res):
        """Check the run directory, note its size, then delete it."""
        out = res.data["out"]
        checks = [Check("exit-0", res.data["code"] == 0, f"exit code {res.data['code']}")]
        checks += check_run_dir(out, self.n_steps, self.level, ctx["config"].T)
        if os.path.isdir(out):
            res.data["bytes_written"] = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        shutil.rmtree(out, ignore_errors=True)
        return checks


def check_run_dir(out: str, n_steps: int, level: float, T: float) -> list:
    """Checks on a `snls simulate` run directory (manifest, CSV, report)."""
    checks = []
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        with open(os.path.join(out, "trajectory.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        return [Check("run-dir-readable", False, str(exc))]

    bad = []
    for name, entry in sorted(manifest["outputs"].items()):
        with open(os.path.join(out, name), "rb") as fh:
            blob = fh.read()
        if hashlib.sha256(blob).hexdigest() != entry["sha256"] or len(blob) != entry["bytes"]:
            bad.append(name)
    listed = set(manifest["outputs"]) >= {"trajectory.csv", "report.json"}
    checks.append(Check("manifest-sha256", listed and not bad, f"mismatched: {bad}"))

    body = rows[1:]
    checks.append(Check("csv-rows", len(body) == n_steps + 1, f"{len(body)} rows for K={n_steps}"))
    t = [float(r[0]) for r in body]
    mass = [float(r[1]) for r in body]
    z = [float(r[4]) for r in body]
    drift = max(_rel(m, mass[0]) for m in mass)
    checks.append(Check("csv-mass-conserved", drift <= 1e-10, f"max relative mass drift {drift:.2e}"))
    down = sum(1 for a, b in zip(z, z[1:]) if b < a)
    checks.append(Check("csv-z-nondecreasing", down == 0, f"{down} decreasing steps of z_total"))
    tau_csv = next((min(tj, T) for tj, zj in zip(t, z) if tj > t[0] and zj >= level), T)
    tau = report.get("tau")
    checks.append(Check("report-tau-matches-csv", tau == tau_csv and tau == T, f"report tau {tau}, csv tau {tau_csv}, T {T}"))
    return checks


class VerifyAll(Workload):
    name = "verify-all"
    why = (
        "every invariant suite in process: the Euler-Maruyama oracle marches through ComplexField and the "
        "exact exponent algebra, layers the solver workloads hardly touch"
    )
    uses_config = False
    # Brownian paths the suites draw: mass 2 x 5, oracle-sde 2 x 5 x 50,
    # strichartz 200 (their path counts are pinned in snls.verify).
    paths_per_unit = 710

    @property
    def suites(self):
        return ["exponents", "truncation"] if self.small else "all"

    def setup(self, config_path):
        ctx = super().setup(config_path)
        import snls.verify  # noqa: F401

        return ctx

    def unit(self, ctx, seed, work_dir):
        import snls.verify

        results = snls.verify.run_suites(self.suites)
        checks = [c for suite in results["suites"].values() for c in suite["checks"]]
        failed = sum(1 for c in checks if not c["passed"])
        paths = 1 if self.small else self.paths_per_unit
        return UnitResult(ops=len(checks), failed_ops=failed, paths=paths, data={"results": results})

    def check(self, ctx, res):
        failing = [
            f"{name}/{c['name']}"
            for name, suite in res.data["results"]["suites"].items()
            for c in suite["checks"]
            if not c["passed"]
        ]
        return [Check("verify-passed", res.data["results"]["passed"] is True, f"failing: {failing}")]


WORKLOADS = {w.name: w for w in (EnsembleSplitstep, LevelsPicard, SimulateLong, VerifyAll)}


def make(name: str, small: bool = False) -> Workload:
    return WORKLOADS[name](small=small)
