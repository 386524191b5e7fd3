"""Ensemble statistics, reproducibility, level studies."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from snls.config import SimConfig, json_value
from snls.exponents import ModelParams
from snls.grid_field import Grid
import snls.grid_field
import snls.montecarlo as mc
from snls.montecarlo import (
    chebyshev_consistency,
    path_chunks,
    run_ensemble,
    solve_chunk,
    truncation_uniformity_study,
    worker_count,
)
from snls.errors import BlowUp, ConfigError
from snls.solver import BLOWUP_L2, solve

from reference import count_model_builds

PARAMS = ModelParams(d=1, alpha=Fraction(2), gamma=Fraction(1), lam=1)
GRID = Grid(d=1, n=64, L=32.0)


def config(**kw) -> SimConfig:
    base = dict(
        params=PARAMS,
        grid=GRID,
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.4, "width": 3.0}]},
        ic_spec={"kind": "gaussian_bump", "amplitude": 1.0, "width": 2.0},
        T=0.5,
        dt=1.0 / 64.0,
        scheme="splitstep",
        seed=21,
    )
    base.update(kw)
    return SimConfig(**base)


def test_degenerate_ensemble_no_noise():
    """Noise off: every path identical, stderr 0, tau frequency 1."""
    cfg = config(noise_spec={"coefficients": []})
    s = run_ensemble(cfg, 4)
    assert s.n_failed == 0
    assert s.stderr_yt_norm == 0.0
    assert s.tau_equals_T_frequency == 1.0
    assert np.all(s.taus == cfg.T)
    assert np.ptp(s.yt_norms) == 0.0


def test_diffusion_only_sup_mass_is_deterministic():
    """Laplacian and nonlinearity off with conservative noise: modulus is
    preserved pathwise, so sup-mass statistics have zero spread."""
    cfg = config(enable_laplacian=False, enable_nonlinearity=False)
    s = run_ensemble(cfg, 6)
    mean2, stderr2 = s.mean_sup_mass_p[2.0]
    assert stderr2 < 1e-12 * max(mean2, 1.0)
    from snls.grid_field import lp_norm

    assert mean2 == pytest.approx(lp_norm(cfg.u0, 2) ** 2, rel=1e-11)


def test_ensemble_reproducibility():
    cfg = config()
    a = run_ensemble(cfg, 6)
    b = run_ensemble(cfg, 6)
    assert np.array_equal(a.yt_norms, b.yt_norms)
    assert np.array_equal(a.taus, b.taus)
    assert json_value(a) == json_value(b)


def test_ensemble_seed_changes_results():
    cfg = config()
    a = run_ensemble(cfg, 6)
    c = run_ensemble(cfg, 6, seed=99)
    assert not np.array_equal(a.yt_norms, c.yt_norms)


def test_ensemble_seed_must_be_an_integer():
    """run_ensemble passes its seed to the config unconverted: a fractional,
    boolean or string seed raises ConfigError instead of running another
    seed's paths."""
    for bad in (2.7, True, "5"):
        with pytest.raises(ConfigError, match="seed"):
            run_ensemble(config(), 2, seed=bad)


def test_path_count_must_be_an_integer():
    """n_paths is read by the config's integer rule: a fractional, boolean
    or string count raises ConfigError, in an ensemble and in a level
    study, and an integral float is the int."""
    for bad in (2.5, True, "3"):
        with pytest.raises(ConfigError, match="path count"):
            run_ensemble(config(), bad)
        with pytest.raises(ConfigError, match="path count"):
            truncation_uniformity_study(config(), (2.0, 4.0), bad)
    # an ensemble needs two paths, in a level study too
    with pytest.raises(ConfigError, match="at least 2 paths"):
        run_ensemble(config(), 1)
    with pytest.raises(ConfigError, match="at least 2 paths"):
        truncation_uniformity_study(config(), (2.0, 4.0), 1)
    assert json_value(run_ensemble(config(), 3.0)) == json_value(run_ensemble(config(), 3))


def test_serial_ensemble_builds_the_model_once(monkeypatch):
    """The chunks of a serial ensemble share its seeded config, which built
    its noise model when it was made: one build for four chunks."""
    monkeypatch.delenv("SNLS_THREADS", raising=False)
    monkeypatch.setattr(snls.grid_field, "CHUNK_STACK_BYTES", 16 * GRID.size)
    assert len(path_chunks(4, GRID.size)) == 4
    cfg = config()
    builds = count_model_builds(monkeypatch)
    run_ensemble(cfg, 4, seed=3)
    assert len(builds) == 1


def test_level_study_builds_one_config_for_all_levels(monkeypatch):
    """The study makes one Picard config, seed included, in one step, and
    marches every level on it: one model build for three levels."""
    monkeypatch.delenv("SNLS_THREADS", raising=False)
    cfg = config()
    builds = count_model_builds(monkeypatch)
    truncation_uniformity_study(cfg, (2.0, 4.0, "inf"), 2, seed=3)
    assert len(builds) == 1


def _study_matches_per_level_ensembles(cfg, levels, n_paths, seed):
    """Assert that a level study's summaries equal, field by field and with
    bitwise-equal arrays, the one-level ensembles of each level on the same
    seed; return the study."""
    study = truncation_uniformity_study(cfg, levels, n_paths, seed=seed)
    for level, summary in zip(study.levels, study.summaries):
        alone = run_ensemble(replace(cfg, scheme="picard", truncation_level=level), n_paths, seed=seed)
        for name, value in vars(alone).items():
            got = getattr(summary, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), (level, name)
            else:
                assert json_value(got) == json_value(value), (level, name)
    return study


@pytest.mark.parametrize("threads", [None, "2"])
def test_level_study_is_bitwise_the_per_level_ensembles(monkeypatch, threads):
    """Every level marched in one stack on paths sampled once gives the
    summaries of separate ensembles, bitwise, serially and with two
    workers; rows cross levels 2 and 4 in mid-run."""
    if threads is None:
        monkeypatch.delenv("SNLS_THREADS", raising=False)
    else:
        monkeypatch.setenv("SNLS_THREADS", threads)
    cfg = config(ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0}, T=1.0)
    study = _study_matches_per_level_ensembles(cfg, (2, 4, "inf"), 6, 5)
    low, mid, top = (s.taus for s in study.summaries)
    assert np.all(low < cfg.T) and np.any((cfg.dt < mid) & (mid < cfg.T)) and np.all(top == cfg.T)


def test_level_study_chunks_paths_times_levels(monkeypatch):
    """On a grid of 4096 points a chunk holds 4 paths at one level but 1 at
    three, so the study's 4 paths march in 4 stacks of 3 rows, and still
    equal the one-chunk ensembles of each level bitwise."""
    monkeypatch.delenv("SNLS_THREADS", raising=False)
    grid = Grid(d=1, n=4096, L=32.0)
    assert len(path_chunks(4, grid.size)) == 1
    assert [list(c) for c in path_chunks(4, grid.size, levels=3)] == [[0], [1], [2], [3]]
    cfg = config(grid=grid, T=0.25, ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0})
    study = _study_matches_per_level_ensembles(cfg, (0.5, 1, "inf"), 4, 8)
    assert any(0 < t < cfg.T for t in study.summaries[0].taus)


def test_path_chunks_follow_the_one_stack_rule(stack_cap):
    """Under any cap on `grid_field`'s binding, the chunks cover the paths
    in order, each holds at most the paths of `levels` rows that fit under
    the cap (one path at least), and there are at least min(workers, n)."""
    for n_paths in (1, 2, 5, 20, 200):
        for grid_size, workers, levels in ((64, 1, 1), (128, 2, 3), (512, 4, 1), (4096, 3, 2), (1, 1, 1)):
            chunks = path_chunks(n_paths, grid_size, workers, levels)
            rows = max(1, snls.grid_field.CHUNK_STACK_BYTES // (16 * grid_size * levels))
            assert [i for c in chunks for i in c] == list(range(n_paths))
            assert all(1 <= len(c) <= rows for c in chunks)
            assert len(chunks) >= min(workers, n_paths)


def test_solve_path_outcome_fields():
    (out,) = solve_chunk(config(), [3])
    assert out.ok and out.path_index == 3
    assert out.z_final >= out.yt_norm > 0
    assert 0 < out.tau <= 0.5


def test_failed_paths_are_recorded_not_dropped():
    """A picard run that blows up is a first-class failed path."""
    params = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=-1)
    cfg = config(
        params=params,
        scheme="picard",
        ic_spec={"kind": "gaussian_bump", "amplitude": 60.0, "width": 0.8},
        dt=1.0 / 64.0,
        T=0.5,
    )
    s = run_ensemble(cfg, 3)
    assert s.n_failed == 3
    assert len(s.failures) == 3
    assert all(f["error"].startswith("BlowUp: ") for f in s.failures)
    assert all(math.isnan(t) for t in s.taus)
    # failed paths count against the stopping-time frequency
    assert s.tau_equals_T_frequency == 0.0


def test_tau_frequency_monotone_across_levels():
    cfg = config(
        scheme="picard",
        ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0},
        T=1.0,
    )
    study = truncation_uniformity_study(cfg, [4.0, 8.0, 16.0], 40, seed=77)
    freqs = [s.tau_equals_T_frequency for s in study.summaries]
    assert all(b >= a for a, b in zip(freqs, freqs[1:]))
    assert freqs[-1] >= 0.95
    assert study.max_over_min_ratio < 1.2


def test_uniformity_study_requires_increasing_levels():
    with pytest.raises(ConfigError):
        truncation_uniformity_study(config(), [4.0, 4.0], 2)
    # at least one level, each positive
    for bad in ([], [0, 4.0], [-1.0, 4.0]):
        with pytest.raises(ConfigError):
            truncation_uniformity_study(config(), bad, 2)
    # a level follows the config's level rule: no boolean, no numeric string
    for bad in (True, "4"):
        with pytest.raises(ConfigError):
            truncation_uniformity_study(config(), [0.5, bad], 2)


def test_uniformity_study_trivial_for_linear_free_equation():
    """No noise, no nonlinearity: every level produces the identical run."""
    cfg = config(noise_spec={"coefficients": []}, enable_nonlinearity=False)
    study = truncation_uniformity_study(cfg, [2.0, 4.0, 8.0], 2)
    means = [s.mean_yt_norm for s in study.summaries]
    assert np.ptp(means) == 0.0
    assert study.max_over_min_ratio == 1.0


def test_chebyshev_consistency_holds():
    cfg = config()
    s = run_ensemble(cfg, 30)
    records = chebyshev_consistency(s, [1.0, 2.0, 4.0, 8.0])
    assert records and all(r["ok"] for r in records)
    # the bound is the empirical Markov inequality: holds without slack too
    z = s.z_finals[np.isfinite(s.z_finals)]
    for n in (1.0, 2.0, 4.0):
        assert np.mean(z >= n) <= np.mean(z) / n + 1e-12


def test_chebyshev_consistency_reads_levels_by_the_level_rule():
    s = run_ensemble(config(), 4)
    (inf_record,) = chebyshev_consistency(s, ["inf"])
    assert inf_record["level"] == math.inf and inf_record["ok"]
    no_z = replace(s, z_finals=np.full(4, np.nan))
    assert chebyshev_consistency(no_z, [4.0]) == []
    # no boolean, no numeric string, no level <= 0; read before any early return
    for bad in ([True], ["4"], [0], [-1.0], [4.0, math.nan]):
        for summary in (s, no_z):
            with pytest.raises(ConfigError):
                chebyshev_consistency(summary, bad)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("SNLS_THREADS", raising=False)
    assert worker_count(8) == 1
    monkeypatch.setenv("SNLS_THREADS", "4")
    assert worker_count(8) == 4
    assert worker_count(2) == 2
    monkeypatch.setenv("SNLS_THREADS", "0")
    assert worker_count(4) >= 1
    for bad in ("four", "-4"):
        monkeypatch.setenv("SNLS_THREADS", bad)
        with pytest.raises(ConfigError, match="SNLS_THREADS"):
            worker_count(4)


def test_serial_ensemble_loads_no_process_pool():
    """`import snls` and a serial ensemble leave `concurrent.futures` and
    `multiprocessing` unloaded: the pool is imported only for workers > 1."""
    script = (
        "import sys, snls\n"
        "from snls.exponents import ModelParams\n"
        "from snls.grid_field import Grid\n"
        "from snls.montecarlo import run_ensemble\n"
        "from snls.config import SimConfig\n"
        "cfg = SimConfig(ModelParams(d=1, alpha=2, gamma=1, lam=1), Grid(d=1, n=16, L=8.0),\n"
        "    {'coefficients': [{'kind': 'constant', 'value': 0.3}]}, {'kind': 'constant', 'value': 1.0},\n"
        "    T=0.25, dt=0.0625)\n"
        "assert run_ensemble(cfg, 3).n_failed == 0\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "SNLS_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mc.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parallel_matches_serial(monkeypatch):
    cfg = config()
    monkeypatch.delenv("SNLS_THREADS", raising=False)
    serial = run_ensemble(cfg, 4)
    monkeypatch.setenv("SNLS_THREADS", "2")
    parallel = run_ensemble(cfg, 4)
    assert np.array_equal(serial.yt_norms, parallel.yt_norms)
    assert json_value(serial) == json_value(parallel)


def test_antithetic_increments_preserve_diffusion_statistics(monkeypatch):
    """Negating all increments leaves modulus statistics of diffusion-only
    runs unchanged (the exact flow is a pure phase rotation)."""
    import snls.solver
    from snls.noise import sample_brownian_path

    monkeypatch.delenv("SNLS_THREADS", raising=False)
    cfg = config(enable_laplacian=False, enable_nonlinearity=False)
    base = run_ensemble(cfg, 4)
    negated_paths = []

    def negated(mesh, M, seed, path_index):
        path = sample_brownian_path(mesh, M, seed, path_index)
        negated_paths.append(path_index)
        return replace(path, increments=-path.increments)

    # the ensemble samples each path through solver.path_for
    monkeypatch.setattr(snls.solver, "sample_brownian_path", negated)
    flipped = run_ensemble(cfg, 4)
    assert negated_paths == [0, 1, 2, 3]
    assert np.allclose(flipped.sup_masses, base.sup_masses, rtol=1e-12)
    assert np.allclose(
        [flipped.mean_sup_mass_p[2.0][0]], [base.mean_sup_mass_p[2.0][0]], rtol=1e-12
    )


def _per_path_reports(cfg, n_paths, out_dir):
    """Summary plus every per-path report file (tau, yt_norm, z_final,
    sup_mass, halfbox_leakage, ...) of one ensemble run, as bytes."""
    summary = run_ensemble(cfg, n_paths, persist_dir=str(out_dir))
    files = {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}
    return json_value(summary), files


@pytest.mark.parametrize(
    "scheme, level, n_paths",
    [("splitstep", math.inf, 5), ("picard", math.inf, 5), ("picard", 3.0, 5), ("splitstep", 3.0, 5), ("splitstep", math.inf, 256)],
    ids=["splitstep-inf", "picard-inf", "picard-3.0", "splitstep-3.0", "splitstep-inf-256-paths"],
)
def test_ensemble_is_bitwise_independent_of_chunks_and_workers(monkeypatch, tmp_path, scheme, level, n_paths):
    """One chunk, chunks of 2 (paths split across chunk boundaries) and two
    worker processes give byte-identical summaries and per-path reports.
    256 paths at n = 64 fill one chunk at the cap, 256 KiB."""
    cfg = config(scheme=scheme, truncation_level=level, ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0})
    monkeypatch.delenv("SNLS_THREADS", raising=False)
    assert len(path_chunks(n_paths, cfg.grid.size)) == 1
    whole = _per_path_reports(cfg, n_paths, tmp_path / "whole")
    monkeypatch.setattr(snls.grid_field, "CHUNK_STACK_BYTES", 2 * 16 * cfg.grid.size)
    assert [list(c) for c in path_chunks(n_paths, cfg.grid.size)] == [list(range(i, min(i + 2, n_paths))) for i in range(0, n_paths, 2)]
    assert _per_path_reports(cfg, n_paths, tmp_path / "pairs") == whole
    monkeypatch.undo()
    monkeypatch.setenv("SNLS_THREADS", "2")
    assert _per_path_reports(cfg, n_paths, tmp_path / "workers") == whole
    if level == 3.0:
        assert any(t < cfg.T for t in whole[0]["taus"])


def test_splitstep_overflow_is_recorded_per_path():
    """Non-conservative split-step noise that overflows on one path only:
    that path is recorded as the BlowUp its solo solve raises, the other
    rows equal their solo solves bitwise, and no RuntimeWarning escapes
    (warnings are errors)."""
    cfg = config(
        params=ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3), lam=1),
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": [5, 5], "width": 3.0}]},
        T=1.0,
        seed=0,
    )
    s = run_ensemble(cfg, 6)
    assert [f["path_index"] for f in s.failures] == [3]
    with pytest.raises(BlowUp) as info:
        solve(cfg, path_index=3)
    err = info.value
    assert s.failures[0]["error"] == f"BlowUp: {err}"
    assert 0.0 <= err.t < cfg.T and math.isfinite(err.z) and 0 < err.l2 <= BLOWUP_L2
    for i in (0, 1, 2, 4, 5):
        (solo,) = solve_chunk(cfg, [i])
        assert solo.ok
        assert (s.taus[i], s.yt_norms[i], s.z_finals[i], s.sup_masses[i]) == (
            solo.tau, solo.yt_norm, solo.z_final, solo.sup_mass
        )
