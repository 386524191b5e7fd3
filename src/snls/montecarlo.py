"""Ensemble driver: moments, stopping-time frequencies, level studies.

Paths are embarrassingly parallel and keyed by (seed, path_index) alone, so
identical inputs give bitwise-identical summaries under any execution
order; aggregation is an ordered reduction by path index.  Failed paths
(any SolverError, such as a Picard step that blew up) are first-class
results: they are recorded with their reason and never silently dropped
from denominators.

Worker count: the SNLS_THREADS environment variable caps process workers
(0 = one per CPU); unset or 1 runs serially in-process.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import SolverError
from .solver import SimConfig, materialize, sample_brownian_path, solve

_TAU_EQ_T_RTOL = 1e-9


@dataclass
class PathOutcome:
    path_index: int
    ok: bool
    tau: float = math.nan
    yt_norm: float = math.nan
    z_final: float = math.nan
    sup_mass: float = math.nan
    error: str = ""


def solve_path(config: SimConfig, path_index: int, persist_dir: str | None = None) -> PathOutcome:
    """Solve one path and reduce it to the ensemble statistics.

    With `persist_dir` set, the per-path report (outcome plus the solver's
    report summary: tau, cutoff activity, half-box leakage, notes) is
    written there as `path_<index>.json`.
    """
    _, model, _ = materialize(config)
    path = sample_brownian_path(config.mesh(), model.total_modes, config.seed, path_index)
    try:
        report = solve(config, path, keep_states=False)
    except SolverError as exc:
        outcome = PathOutcome(path_index=path_index, ok=False, error=f"{type(exc).__name__}: {exc}")
        _persist(persist_dir, outcome, None)
        return outcome
    traj = report.trajectory
    c1, c2 = traj.z_components_at(config.T)
    outcome = PathOutcome(
        path_index=path_index,
        ok=True,
        tau=report.tau,
        yt_norm=c1,
        z_final=c1 + c2,
        sup_mass=float(np.max(traj.running_mass)),
    )
    _persist(persist_dir, outcome, report)
    return outcome


def _persist(persist_dir: str | None, outcome: PathOutcome, report) -> None:
    if persist_dir is None:
        return
    doc = {k: _json_float(v) if isinstance(v, float) else v for k, v in asdict(outcome).items()}
    if report is not None:
        doc["report"] = report.summary_dict()
    os.makedirs(persist_dir, exist_ok=True)
    path = os.path.join(persist_dir, f"path_{outcome.path_index:05d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class EnsembleSummary:
    """Monte Carlo estimates with standard errors and reproducibility keys.

    Means are over succeeded paths; `tau_equals_T_frequency` counts failed
    paths in the denominator (a failed path did not demonstrably reach T).
    """

    n_paths: int
    n_failed: int
    seed: int
    scheme: str
    truncation_level: float
    mean_yt_norm: float
    stderr_yt_norm: float
    mean_sup_mass_p: dict
    tau_equals_T_frequency: float
    stderr_tau_frequency: float
    taus: np.ndarray
    yt_norms: np.ndarray
    z_finals: np.ndarray
    sup_masses: np.ndarray
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "n_failed": self.n_failed,
            "seed": self.seed,
            "scheme": self.scheme,
            "truncation_level": _json_float(self.truncation_level),
            "mean_yt_norm": self.mean_yt_norm,
            "stderr_yt_norm": self.stderr_yt_norm,
            "mean_sup_mass_p": {str(p): [m, s] for p, (m, s) in self.mean_sup_mass_p.items()},
            "tau_equals_T_frequency": self.tau_equals_T_frequency,
            "stderr_tau_frequency": self.stderr_tau_frequency,
            "taus": [_json_float(x) for x in self.taus],
            "yt_norms": [_json_float(x) for x in self.yt_norms],
            "z_finals": [_json_float(x) for x in self.z_finals],
            "sup_masses": [_json_float(x) for x in self.sup_masses],
            "failures": [{"path_index": i, "error": e} for i, e in self.failures],
        }


def _json_float(x: float):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return str(x)
    return float(x)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return math.nan, math.nan
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def worker_count(n_paths: int) -> int:
    raw = os.environ.get("SNLS_THREADS", "1")
    try:
        w = int(raw)
    except ValueError:
        w = 1
    if w == 0:
        w = os.cpu_count() or 1
    return max(1, min(w, n_paths))


def run_ensemble(
    config: SimConfig,
    n_paths: int,
    seed: int | None = None,
    sup_mass_powers=(1.0, 2.0),
    persist_dir: str | None = None,
) -> EnsembleSummary:
    """Solve n_paths independent paths and aggregate the statistics.

    `persist_dir` keeps every per-path report on disk (one JSON file per
    path index) in addition to the aggregated summary.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    if seed is not None:
        config = replace(config, seed=int(seed))
    workers = worker_count(n_paths)
    indices = list(range(n_paths))
    if workers == 1:
        outcomes = [solve_path(config, i, persist_dir) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(solve_path, [config] * n_paths, indices, [persist_dir] * n_paths, chunksize=8)
            )
    outcomes.sort(key=lambda o: o.path_index)

    taus = np.array([o.tau for o in outcomes])
    yt = np.array([o.yt_norm for o in outcomes])
    zf = np.array([o.z_final for o in outcomes])
    sm = np.array([o.sup_mass for o in outcomes])
    ok = np.array([o.ok for o in outcomes])
    failures = [(o.path_index, o.error) for o in outcomes if not o.ok]

    mean_yt, se_yt = _mean_stderr(yt[ok])
    sup_mass_p = {}
    for p in sup_mass_powers:
        sup_mass_p[float(p)] = _mean_stderr(sm[ok] ** float(p))
    hits = ok & (taus >= config.T * (1.0 - _TAU_EQ_T_RTOL))
    freq = float(np.mean(hits))
    se_freq = float(np.std(hits.astype(float), ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0

    return EnsembleSummary(
        n_paths=n_paths,
        n_failed=int(np.sum(~ok)),
        seed=config.seed,
        scheme=config.scheme,
        truncation_level=config.truncation_level,
        mean_yt_norm=mean_yt,
        stderr_yt_norm=se_yt,
        mean_sup_mass_p=sup_mass_p,
        tau_equals_T_frequency=freq,
        stderr_tau_frequency=se_freq,
        taus=taus,
        yt_norms=yt,
        z_finals=zf,
        sup_masses=sm,
        failures=failures,
    )


@dataclass
class UniformityStudy:
    """Per-level ensembles on shared Brownian paths (common random numbers)."""

    levels: list
    summaries: list
    max_over_min_ratio: float

    def to_dict(self) -> dict:
        return {
            "levels": [_json_float(l) for l in self.levels],
            "max_over_min_ratio": _json_float(self.max_over_min_ratio),
            "summaries": [s.to_dict() for s in self.summaries],
        }


def truncation_uniformity_study(
    config: SimConfig, levels, n_paths: int, seed: int | None = None
) -> UniformityStudy:
    """Estimate the mean Y-norm per cutoff level with shared paths.

    Paths are keyed by (seed, path_index) only, so every level sees the
    same Brownian increments; the max/min ratio of the per-level means
    reports how uniform the estimates are across levels.
    """
    levels = [float(l) for l in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing, got {levels}")
    summaries = []
    for level in levels:
        cfg = replace(config, scheme="picard", truncation_level=level)
        summaries.append(run_ensemble(cfg, n_paths, seed=seed))
    means = [s.mean_yt_norm for s in summaries if not math.isnan(s.mean_yt_norm)]
    if means and min(means) > 0:
        ratio = max(means) / min(means)
    else:
        ratio = math.inf
    return UniformityStudy(levels=levels, summaries=summaries, max_over_min_ratio=ratio)


def chebyshev_consistency(summary: EnsembleSummary, levels, slack_stderrs: float = 3.0):
    """Markov-style check: empirical P(Z_T >= n) <= mean(Z_T)/n + slack.

    Holds exactly for the empirical measure (1[z >= n] <= z/n pointwise);
    the slack term only absorbs the statistical uncertainty of quoting both
    sides as estimates.  Returns one record per tested level.
    """
    z = summary.z_finals[np.isfinite(summary.z_finals)]
    records = []
    if z.size == 0:
        return records
    mean_z, se_z = _mean_stderr(z)
    for n in levels:
        n = float(n)
        freq = float(np.mean(z >= n))
        se_freq = float(np.std((z >= n).astype(float), ddof=1) / math.sqrt(z.size)) if z.size > 1 else 0.0
        bound = mean_z / n + slack_stderrs * (se_freq + se_z / n)
        records.append(
            {"level": n, "frequency": freq, "bound": bound, "ok": freq <= bound}
        )
    return records
