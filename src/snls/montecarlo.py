"""Ensemble driver: moments, stopping-time frequencies, level studies.

Paths are keyed by (seed, path_index) alone and solved in chunks of
consecutive indices, each chunk marched as one stack by
`solver.solve_paths`.  A level study samples each path once and marches it
at every level in one stack, level-major, since the cutoff level is
per-row data of the engine; an ensemble is its one-level case.  A path's
result is bitwise the same whatever chunk or level it shares a stack
with, so identical inputs give bitwise-identical summaries under any
chunking, execution order or worker count; aggregation is an ordered
reduction by path index, per level.  A chunk's stack, each path once per
level, is capped at CHUNK_STACK_BYTES of complex128 rows.  Failed paths
(any SolverError, such as a step that blew up) are first-class results:
recorded as `{"path_index", "error"}` records and never silently dropped
from denominators.  `config.write_json`
writes the summary, the level study and the per-path reports as they are.

Worker count: the SNLS_THREADS environment variable caps process workers,
which take whole chunks (0 = one per CPU); unset or 1 runs serially
in-process, and a value that is not a nonnegative integer raises
ConfigError.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import SimConfig, as_integer, read_levels, write_json
from .errors import ConfigError, SolverError
from .grid_field import CHUNK_STACK_BYTES  # the cap on a chunk's stack, read by `path_chunks`
from .solver import path_for, solve_paths

# Powers p of the per-path sup mass whose ensemble means are reported.
_SUP_MASS_POWERS = (1.0, 2.0)
# Slack of `chebyshev_consistency`, in standard errors.
_CHEBYSHEV_SLACK_STDERRS = 3.0


@dataclass
class PathOutcome:
    path_index: int
    ok: bool
    tau: float = math.nan
    yt_norm: float = math.nan
    z_final: float = math.nan
    sup_mass: float = math.nan
    error: str = ""


def solve_chunk(config: SimConfig, indices, persist_dir: str | None = None, levels=None) -> list:
    """Solve the paths `indices` at each cutoff level of `levels` (by
    default the config's own), sampled once and marched as one level-major
    stack, and reduce each row to its PathOutcome for the ensemble
    statistics: the first level's outcomes in path order, then the next's.

    With `persist_dir` set, each per-path report (outcome plus the solver's
    report summary: tau, cutoff activity, half-box leakage, notes) is
    written there as `path_<index>.json`, so it takes one level.
    """
    levels = [config.truncation_level] if levels is None else levels
    paths = [path_for(config, i) for i in indices]
    results = solve_paths(config, paths * len(levels), levels=np.repeat(levels, len(paths)))
    return [_outcome(config, i, r, persist_dir) for i, r in zip(list(indices) * len(levels), results)]


def _outcome(config: SimConfig, path_index: int, result, persist_dir: str | None) -> PathOutcome:
    """Reduce one solve result (a report or its SolverError) and persist it."""
    if isinstance(result, SolverError):
        outcome = PathOutcome(path_index=path_index, ok=False, error=f"{type(result).__name__}: {result}")
        _persist(persist_dir, outcome, None)
        return outcome
    traj = result.trajectory
    c1, c2 = traj.z_components_at(config.T)
    outcome = PathOutcome(
        path_index=path_index,
        ok=True,
        tau=result.tau,
        yt_norm=c1,
        z_final=c1 + c2,
        sup_mass=float(np.max(traj.running_mass)),
    )
    _persist(persist_dir, outcome, result)
    return outcome


def _persist(persist_dir: str | None, outcome: PathOutcome, report) -> None:
    if persist_dir is None:
        return
    doc = asdict(outcome)
    if report is not None:
        doc["report"] = report.summary_dict()
    os.makedirs(persist_dir, exist_ok=True)
    write_json(os.path.join(persist_dir, path_filename(outcome.path_index)), doc)


def path_filename(path_index: int) -> str:
    """Name of the per-path report file that `persist_dir` receives."""
    return f"path_{path_index:05d}.json"


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
    except ValueError as exc:
        raise ConfigError(f"SNLS_THREADS must be an integer, got {raw!r}") from exc
    if w < 0:
        raise ConfigError(f"SNLS_THREADS must be nonnegative, got {raw!r}")
    if w == 0:
        w = os.cpu_count() or 1
    return max(1, min(w, n_paths))


def path_chunks(n_paths: int, grid_size: int, workers: int = 1, levels: int = 1) -> list:
    """Consecutive index ranges whose stack, each path at `levels` levels,
    holds at most CHUNK_STACK_BYTES (one path at least), and at least
    `workers` of them when there are that many paths."""
    rows = max(1, CHUNK_STACK_BYTES // (16 * grid_size * levels))
    rows = min(rows, -(-n_paths // workers))
    return [range(s, min(s + rows, n_paths)) for s in range(0, n_paths, rows)]


def _path_count(n_paths) -> int:
    """`n_paths` by the config's integer rule (`config.as_integer`), at least 2."""
    try:
        n_paths = as_integer(n_paths)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"path count must be an integer, got {n_paths!r}") from exc
    if n_paths < 2:
        raise ConfigError(f"an ensemble needs at least 2 paths, got {n_paths}")
    return n_paths


def _outcomes_per_level(config: SimConfig, n_paths: int, levels, persist_dir: str | None = None) -> list:
    """The PathOutcomes of paths 0 .. n_paths - 1, one list per level in
    path order: `path_chunks` of paths x levels rows, each solved by
    `solve_chunk`, in process or by SNLS_THREADS worker processes."""
    workers = worker_count(n_paths)
    chunks = path_chunks(n_paths, config.grid.size, workers, len(levels))
    # the chunks are ascending ranges, kept in order by both branches: outcomes come in path order
    if workers == 1:
        done = [solve_chunk(config, chunk, persist_dir, levels) for chunk in chunks]
    else:
        # imported here, so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        n = len(chunks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(solve_chunk, [config] * n, chunks, [persist_dir] * n, [levels] * n))
    # a chunk's outcomes are level-major: level k holds its k-th run of len(chunk)
    return [
        [o for chunk, outs in zip(chunks, done) for o in outs[k * len(chunk) : (k + 1) * len(chunk)]]
        for k in range(len(levels))
    ]


def _summarize(config: SimConfig, outcomes: list, level: float) -> EnsembleSummary:
    """The ensemble statistics of one level's outcomes, in path order."""
    taus = np.array([o.tau for o in outcomes])
    yt = np.array([o.yt_norm for o in outcomes])
    zf = np.array([o.z_final for o in outcomes])
    sm = np.array([o.sup_mass for o in outcomes])
    ok = np.array([o.ok for o in outcomes])
    failures = [{"path_index": o.path_index, "error": o.error} for o in outcomes if not o.ok]

    mean_yt, se_yt = _mean_stderr(yt[ok])
    sup_mass_p = {p: _mean_stderr(sm[ok] ** p) for p in _SUP_MASS_POWERS}
    # tau is a mesh time, and the config mesh ends at T exactly
    hits = ok & (taus == config.T)
    freq, se_freq = _mean_stderr(hits.astype(float))

    return EnsembleSummary(
        n_paths=len(outcomes),
        n_failed=int(np.sum(~ok)),
        seed=config.seed,
        scheme=config.scheme,
        truncation_level=level,
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


def run_ensemble(
    config: SimConfig,
    n_paths: int,
    seed: int | None = None,
    persist_dir: str | None = None,
) -> EnsembleSummary:
    """Solve n_paths independent paths and aggregate the statistics.

    `persist_dir` keeps every per-path report on disk (one JSON file per
    path index) in addition to the aggregated summary.  `n_paths` is read
    by the config's integer rule (`config.as_integer`), and a value it
    refuses raises ConfigError.
    """
    n_paths = _path_count(n_paths)
    if seed is not None:
        config = replace(config, seed=seed)
    (outcomes,) = _outcomes_per_level(config, n_paths, [config.truncation_level], persist_dir)
    return _summarize(config, outcomes, config.truncation_level)


@dataclass
class UniformityStudy:
    """Per-level ensembles on shared Brownian paths (common random numbers)."""

    levels: list
    summaries: list
    max_over_min_ratio: float


def truncation_uniformity_study(
    config: SimConfig, levels, n_paths: int, seed: int | None = None
) -> UniformityStudy:
    """Estimate the mean Y-norm per cutoff level with shared paths.

    Paths are keyed by (seed, path_index) only; each is sampled once and
    marched at every level in one stack, so every level sees the same
    Brownian increments, and each level's summary is bitwise the one-level
    `run_ensemble` of its config.  The max/min ratio of the per-level means
    reports how uniform the estimates are across levels.  `n_paths` follows
    `run_ensemble`'s rule, and the levels must be positive and strictly
    increasing (ConfigError).
    """
    levels = read_levels(levels)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"levels must be strictly increasing, got {levels}")
    n_paths = _path_count(n_paths)
    # one Picard config for every level, seed included: its model is built once
    config = replace(config, scheme="picard", seed=config.seed if seed is None else seed)
    per_level = _outcomes_per_level(config, n_paths, levels)
    summaries = [_summarize(config, outcomes, level) for outcomes, level in zip(per_level, levels)]
    means = [s.mean_yt_norm for s in summaries if not math.isnan(s.mean_yt_norm)]
    if means and min(means) > 0:
        ratio = max(means) / min(means)
    else:
        ratio = math.inf
    return UniformityStudy(levels=levels, summaries=summaries, max_over_min_ratio=ratio)


def chebyshev_consistency(summary: EnsembleSummary, levels):
    """Markov-style check: empirical P(Z_T >= n) <= mean(Z_T)/n + slack.

    Holds exactly for the empirical measure (1[z >= n] <= z/n pointwise);
    the slack term only absorbs the statistical uncertainty of quoting both
    sides as estimates.  Returns one record per tested level.  The levels
    are read by the config's level rule (`config.read_levels`), and a level
    that is not positive raises ConfigError.
    """
    levels = read_levels(levels)
    z = summary.z_finals[np.isfinite(summary.z_finals)]
    records = []
    if z.size == 0:
        return records
    mean_z, se_z = _mean_stderr(z)
    for n in levels:
        freq, se_freq = _mean_stderr((z >= n).astype(float))
        bound = mean_z / n + _CHEBYSHEV_SLACK_STDERRS * (se_freq + se_z / n)
        records.append(
            {"level": n, "frequency": freq, "bound": bound, "ok": freq <= bound}
        )
    return records
