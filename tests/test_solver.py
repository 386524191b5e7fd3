"""Both integrators: exactness cases, oracles, cross-validation."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.dynamics import theta
from snls.errors import BlowUp, ConfigError, LengthMismatch, MeshMismatch
from snls.exponents import ModelParams
from snls.grid_field import Grid, Trajectory, lp_norm, lp_norm_rows, stack_slices
from snls.noise import diffusion_only_exact, noise_term, sample_brownian_path, stratonovich_drift
from snls.propagator import get_plan
import snls.config
import snls.grid_field
import snls.solver
from snls.config import SimConfig
from snls.solver import (
    BLOWUP_L2,
    SolveReport,
    path_coincidence_check,
    path_for,
    solve,
    solve_paths,
)

from reference import coarsen_path, count_model_builds, free_evolve, state_at

PARAMS_31 = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1)
GRID = Grid(d=1, n=128, L=32.0)
GAUSS_IC = {"kind": "gaussian_bump", "amplitude": 1.0, "width": 2.0}
BUMP_NOISE = {"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.5, "width": 3.0}]}
NO_NOISE = {"coefficients": []}


def config(**kw) -> SimConfig:
    base = dict(
        params=PARAMS_31,
        grid=GRID,
        noise_spec=BUMP_NOISE,
        ic_spec=GAUSS_IC,
        T=1.0,
        dt=1.0 / 64.0,
        scheme="splitstep",
        seed=11,
    )
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        config(dt=0.3)  # does not divide T
    with pytest.raises(ConfigError):
        config(scheme="leapfrog")
    with pytest.raises(ConfigError):
        config(truncation_level=-1.0)
    with pytest.raises(ConfigError, match="dimension"):
        config(grid=Grid(d=2, n=16, L=8.0))  # d = 1 exponents on a 2-D grid


def test_config_builds_its_model_and_initial_state_once():
    """A config builds its noise model and initial state when it is made
    and keeps them; it is frozen, so they cannot go stale, and a replaced
    config builds its own from its own specs."""
    cfg = config()
    assert cfg.model is cfg.model and cfg.u0 is cfg.u0
    assert cfg.model.total_modes == 1
    other = replace(cfg, noise_spec=NO_NOISE)
    assert other.model.total_modes == 0 and cfg.model.total_modes == 1
    with pytest.raises(FrozenInstanceError):
        cfg.noise_spec = NO_NOISE


def test_solve_builds_each_value_once(monkeypatch):
    calls = []
    for name in ("build_noise_model", "build_field"):
        build = getattr(snls.config, name)
        monkeypatch.setattr(snls.config, name, lambda *a, name=name, build=build: calls.append(name) or build(*a))
    solve(config(dt=1.0 / 16.0))
    # u0, and the noise model with its one coefficient field
    assert sorted(calls) == ["build_field", "build_field", "build_noise_model"]


def test_states_are_kept_only_on_request():
    """solve and solve_paths keep no states by default: a K = 8192, n = 128
    path would keep 16.8 MB of them."""
    cfg = config(dt=1.0 / 16.0)
    assert solve(cfg).trajectory.states is None
    assert solve_paths(cfg, [path_for(cfg)])[0].trajectory.states is None
    assert solve(cfg, keep_states=True).trajectory.states.shape == (17, GRID.size)


def test_splitstep_pure_free_evolution():
    """Noise off, nonlinearity off: split-step is exactly the free group."""
    cfg = config(noise_spec=NO_NOISE, enable_nonlinearity=False, dt=1.0 / 32.0)
    rep = solve(cfg, keep_states=True)
    expected = free_evolve(cfg.u0, cfg.T)
    got = state_at(rep.trajectory, -1)
    assert lp_norm(got - expected, 2) / lp_norm(expected, 2) < 1e-12


def test_splitstep_conservative_mass():
    cfg = config(dt=1.0 / 512.0)
    for pi in range(3):
        rep = solve(cfg, path_index=pi)
        m = np.asarray(rep.trajectory.running_mass)
        assert np.max(np.abs(m - m[0])) / m[0] < 1e-12


def test_splitstep_nonconservative_fallback_runs():
    cfg = config(noise_spec={"coefficients": [{"kind": "constant", "value": [0.0, 0.4]}]})
    rep = solve(cfg)
    m = np.asarray(rep.trajectory.running_mass)
    # complex coefficients do not preserve mass; drift is reported, not asserted
    assert np.all(np.isfinite(m))


def test_picard_linear_free_equation_one_iteration():
    """No forcing at all: the march is the free group, step by step."""
    cfg = config(scheme="picard", noise_spec=NO_NOISE, enable_nonlinearity=False)
    rep = solve(cfg, keep_states=True)
    got = state_at(rep.trajectory, -1)
    expected = free_evolve(cfg.u0, cfg.T)
    assert lp_norm(got - expected, 2) / lp_norm(expected, 2) < 1e-12
    assert not rep.truncation_ever_active
    assert rep.tau == cfg.T


def test_picard_matches_diffusion_only_oracle():
    """Laplacian and nonlinearity off, conservative noise: the Picard
    solution approaches the exact pointwise phase flow at O(sqrt(dt))."""
    errs = []
    fine = 512
    fine_mesh = np.linspace(0.0, 1.0, fine + 1)
    for steps in (64, 256):
        cfg = config(
            scheme="picard",
            enable_laplacian=False,
            enable_nonlinearity=False,
            dt=1.0 / steps,
            truncation_level=math.inf,
        )
        per_path = []
        for pi in range(6):
            fine_path = sample_brownian_path(fine_mesh, cfg.model.total_modes, cfg.seed, pi)
            rep = solve(cfg, coarsen_path(fine_path, fine // steps), keep_states=True)
            exact = diffusion_only_exact(cfg.u0, cfg.model, float(cfg.params.gamma), fine_path, 1.0)
            got = state_at(rep.trajectory, -1)
            per_path.append(lp_norm(got - exact, 2))
        errs.append(np.mean(per_path))
    assert errs[1] < errs[0]
    assert errs[1] < 0.6 * errs[0]  # at least ~0.37 observed for order 1/2 over 4x refinement


LINEAR_NOISE_GRID = Grid(d=1, n=64, L=16.0)


def _linear_noise_setup():
    """A single real linear coefficient b, no e_m, Laplacian and nonlinearity
    off: u(T) = u0 exp(-i b beta(T)) exactly.  Returns a config factory,
    20 paths on the fine mesh (dt = 2^-8) and each path's closed form at
    T = 1."""

    def make(scheme, steps):
        return config(
            scheme=scheme,
            grid=LINEAR_NOISE_GRID,
            noise_spec={"linear_coefficients": [{"kind": "gaussian_bump", "amplitude": 0.6, "width": 3.0}]},
            ic_spec={"kind": "gaussian_bump", "amplitude": 1.0, "width": 2.0},
            dt=1.0 / steps,
            seed=21,
            enable_laplacian=False,
            enable_nonlinearity=False,
        )

    cfg = make("splitstep", 256)
    model, u0 = cfg.model, cfg.u0
    assert (model.n_modes, model.n_linear_modes) == (0, 1)
    b = model.linear_coeffs[0].real
    paths = [sample_brownian_path(np.linspace(0.0, 1.0, 257), 1, 21, i) for i in range(20)]
    exact = np.stack([u0.values * np.exp(-1j * b * p.increments[0].sum()) for p in paths])
    return make, paths, exact


def _relative_l2(got, exact):
    return lp_norm_rows(got - exact, 2, LINEAR_NOISE_GRID) / lp_norm_rows(exact, 2, LINEAR_NOISE_GRID)


def test_linear_noise_splitstep_is_the_exact_phase():
    """The split-step phase sub-step with only the b_m term reproduces the
    closed form to rounding and conserves mass."""
    make, paths, exact = _linear_noise_setup()
    reps = solve_paths(make("splitstep", 256), paths, keep_states=True)
    got = np.stack([state_at(rep.trajectory, -1).values for rep in reps])
    assert np.max(_relative_l2(got, exact)) < 1e-12
    for rep in reps:
        mass = rep.trajectory.running_mass
        assert np.max(np.abs(mass / mass[0] - 1.0)) < 1e-12


def test_linear_noise_picard_converges_to_the_exact_phase():
    """The Picard step's b_m kick and mu2 drift approach the closed form:
    the mean error shrinks at every halving of dt = 2^-5..2^-8 on paths
    coarsened from the fine mesh, at a fitted order of at least 0.4."""
    make, paths, exact = _linear_noise_setup()
    dts, errs = [], []
    for steps in (32, 64, 128, 256):
        coarse = [coarsen_path(p, 256 // steps) for p in paths]
        reps = solve_paths(make("picard", steps), coarse, keep_states=True)
        got = np.stack([state_at(rep.trajectory, -1).values for rep in reps])
        dts.append(1.0 / steps)
        errs.append(float(np.mean(_relative_l2(got, exact))))
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    assert np.polyfit(np.log(dts), np.log(errs), 1)[0] >= 0.4, errs


def test_splitstep_matches_picard_at_first_order_deterministic():
    """Noise off, defocusing cubic: the same-dt gap between split-step and
    Picard decreases at order >= 1 (it is dominated by the first-order
    quadrature of the Picard scheme; Strang splitting sits far below)."""
    base = dict(noise_spec=NO_NOISE, T=0.5)
    gaps = []
    steps_list = (32, 64, 128, 256)
    for steps in steps_list:
        ss = solve(config(dt=0.5 / steps, **base), keep_states=True)
        pic = solve(config(scheme="picard", dt=0.5 / steps, **base), keep_states=True)
        a = state_at(ss.trajectory, -1)
        b = state_at(pic.trajectory, -1)
        gaps.append(lp_norm(a - b, 2))
    order = np.polyfit(np.log2([0.5 / s for s in steps_list]), np.log2(gaps), 1)[0]
    assert 0.9 <= order <= 1.5, f"deterministic cross-scheme order {order} not ~1"


def test_cross_scheme_consistency_on_one_path():
    cfg_ss = config(dt=1.0 / 256.0, noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.2, "width": 3.0}]})
    cfg_pi = replace(cfg_ss, scheme="picard")
    path = path_for(cfg_ss, 2)
    a = state_at(solve(cfg_ss, path, keep_states=True).trajectory, -1)
    b = state_at(solve(cfg_pi, path, keep_states=True).trajectory, -1)
    assert lp_norm(a - b, 2) / lp_norm(a, 2) < 0.02


def test_picard_fixed_point_satisfies_mild_equation():
    """The solution satisfies u(T) = U(T)u0 + K_det[u] + K_strat[u]
    + K_stoch[u] assembled independently with the propagator-module
    convolutions (direct sums, not the solver's recursive sweep)."""
    import math as _math

    from snls.propagator import duhamel_convolution, get_plan, stochastic_convolution

    from reference import free_evolve as fe

    grid = Grid(d=1, n=64, L=32.0)
    cfg = config(
        grid=grid,
        scheme="picard",
        T=0.25,
        dt=1.0 / 64.0,
        truncation_level=_math.inf,
    )
    model = cfg.model
    path = path_for(cfg, 0)
    rep = solve(cfg, path, keep_states=True)
    traj = rep.trajectory
    alpha = float(cfg.params.alpha)
    gamma = float(cfg.params.gamma)

    forcing = np.empty((len(traj.times), grid.size), dtype=complex)
    mode_fields = np.empty((len(traj.times), model.n_modes, grid.size), dtype=complex)
    for j in range(len(traj.times)):
        v = state_at(traj, j).values
        forcing[j] = _mild_forcing(v, model, alpha, gamma, cfg.params.lam)
        mode_fields[j] = -1j * model.coeffs * (np.abs(v) ** (gamma - 1.0) * v)[None, :]

    T = cfg.T
    plan = get_plan(grid)
    det = duhamel_convolution(plan, traj.times, forcing, T)
    (sto,) = stochastic_convolution(plan, path.mesh, mode_fields, path.increments[None], T)
    expected = fe(cfg.u0, T).values + det + sto
    got = state_at(traj, -1).values
    resid = np.sqrt(np.sum(np.abs(got - expected) ** 2) * grid.cell_volume)
    assert resid < 1e-8, f"mild-equation residual {resid}"


def _mild_forcing(v, model, alpha, gamma, lam):
    """-i lam |v|^(a-1) v + mu1 |v|^(2(g-1)) v + mu2 v at phi = 1."""
    out = (-1j * lam) * np.abs(v) ** (alpha - 1.0) * v + model.mu2 * v
    if model.n_modes:
        out = out + model.mu1 * np.abs(v) ** (2.0 * (gamma - 1.0)) * v
    return out


def test_solver_determinism_bitwise():
    cfg = config(scheme="picard", dt=1.0 / 32.0)
    r1 = solve(cfg, path_for(cfg, 5), keep_states=True)
    r2 = solve(cfg, path_for(cfg, 5), keep_states=True)
    for j in range(len(r1.trajectory.times)):
        assert np.array_equal(
            state_at(r1.trajectory, j).values, state_at(r2.trajectory, j).values
        )


def test_picard_is_causal():
    """Negating the increments from step 20 on leaves states 0..20 bitwise
    unchanged: a step reads only the past."""
    cfg = config(scheme="picard", ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0})
    for pi in range(3):
        path = path_for(cfg, pi)
        inc = path.increments.copy()
        inc[:, 20:] *= -1.0
        a = solve(cfg, path, keep_states=True).trajectory
        b = solve(cfg, replace(path, increments=inc), keep_states=True).trajectory
        for j in range(21):
            assert np.array_equal(state_at(a, j).values, state_at(b, j).values), (pi, j)
        assert not np.array_equal(state_at(a, -1).values, state_at(b, -1).values)


@pytest.mark.parametrize("scheme", ["splitstep", "picard"])
def test_running_norm_overflow_is_blowup(scheme):
    """d=1, gamma=21/20 gives qt=84: the power integral of ||u||_p2
    overflows at the first step while the L^2 norm stays far below
    BLOWUP_L2.  The path fails with BlowUp instead of reporting Z = inf."""
    params = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(21, 20), lam=1)
    cfg = config(scheme=scheme, params=params, ic_spec={"kind": "gaussian_bump", "amplitude": 1e4, "width": 2.0})
    with pytest.raises(BlowUp) as info:
        solve(cfg, keep_states=False)
    err = info.value
    assert "running norm Z overflowed" in str(err)
    assert err.t == 0.0 and err.z == 0.0 and 0 < err.l2 < BLOWUP_L2


def test_picard_blowup_is_typed_and_silent():
    """A focusing run from huge data fails with BlowUp, carrying where it
    happened, and lets no RuntimeWarning escape."""
    params = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=-1)
    cfg = config(
        params=params,
        scheme="picard",
        ic_spec={"kind": "gaussian_bump", "amplitude": 60.0, "width": 0.8},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUp) as info:
            solve(cfg)
    err = info.value
    assert 0.0 <= err.t < cfg.T
    assert err.t / cfg.dt == pytest.approx(round(err.t / cfg.dt))
    assert math.isfinite(err.z) and err.z > 0
    assert math.isfinite(err.l2) and 0 < err.l2 <= BLOWUP_L2


def test_picard_truncation_freezes_dynamics():
    """A level far below the running norm freezes the nonlinear terms and
    the run reports the cutoff as active, with tau at the first mesh time."""
    cfg = config(scheme="picard", truncation_level=0.05)
    rep = solve(cfg)
    assert rep.truncation_ever_active
    assert rep.tau == pytest.approx(cfg.dt)


def test_picard_mass_inequality_overshoot_shrinks():
    """sup_t ||u||_2 may exceed ||u0||_2 only by a quadrature error that
    shrinks under dt-halving (at order >= 0.5 in the acceptance suite)."""
    overshoots = []
    fine = 256
    fine_mesh = np.linspace(0.0, 1.0, fine + 1)
    for steps in (64, 256):
        cfg = config(scheme="picard", dt=1.0 / steps)
        per_path = []
        for pi in range(4):
            path = coarsen_path(sample_brownian_path(fine_mesh, cfg.model.total_modes, 4, pi), fine // steps)
            rep = solve(cfg, path)
            m = np.asarray(rep.trajectory.running_mass)
            per_path.append(max(0.0, float(m.max() / m[0]) - 1.0))
        overshoots.append(np.mean(per_path))
    assert overshoots[1] < overshoots[0]


def test_path_coincidence_trivial_and_noisy():
    # linear free equation: discrepancy at rounding level
    cfg = config(scheme="picard", noise_spec=NO_NOISE, enable_nonlinearity=False)
    (gap,), _ = path_coincidence_check(cfg, [path_for(cfg, 0)], (2.0, 4.0))
    assert gap < 1e-12

    cfg2 = config(scheme="picard", ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0})
    gaps, _ = path_coincidence_check(cfg2, [path_for(cfg2, pi) for pi in range(3)], (3.5, 7.0))
    assert max(gaps) <= 1e-7


def test_path_coincidence_is_exact_before_tau():
    """Up to the lower level's stopping time both cutoffs read 1, so the
    two runs perform the same arithmetic and agree bitwise."""
    cfg = config(scheme="picard", ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0})
    gaps, _ = path_coincidence_check(cfg, [path_for(cfg, pi) for pi in range(3)], (3.5, 7.0))
    assert gaps == [0.0, 0.0, 0.0]


def test_path_coincidence_marches_one_stack_on_one_config(monkeypatch):
    """Both levels march as one level-major stack of one Picard config: one
    model build, and each level's rows bitwise those of its own solve."""
    cfg = config(ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0})
    paths = [path_for(cfg, pi) for pi in range(3)]
    builds = count_model_builds(monkeypatch)
    gaps, taus = path_coincidence_check(cfg, paths, (2.0, 4.0))
    assert len(builds) == 1
    monkeypatch.undo()
    low, high = (
        solve_paths(replace(cfg, scheme="picard", truncation_level=n), paths, keep_states=True) for n in (2.0, 4.0)
    )
    assert taus == [rep.tau for rep in low] and any(t < cfg.T for t in taus)
    for rep1, rep2, gap in zip(low, high, gaps):
        upto = int(np.searchsorted(rep1.trajectory.times, rep1.tau + 1e-12, side="right"))
        a, b = rep1.trajectory.states[:upto], rep2.trajectory.states[:upto]
        rel = lp_norm_rows(a - b, 2, cfg.grid) / np.maximum(lp_norm_rows(a, 2, cfg.grid), 1e-300)
        assert gap == float(np.max(rel, initial=0.0))


def test_solve_paths_takes_one_level_per_row():
    """A row's level is per-row data: a stack of one path at three levels
    gives, row by row, bitwise the solve of a config at that level; a
    level list of another length raises LengthMismatch, and a level that
    is not positive (NaN included) ConfigError, before the march."""
    cfg = config(scheme="picard", ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0})
    path = path_for(cfg, 1)
    levels = (2.0, 3.5, math.inf)
    stacked = solve_paths(cfg, [path] * 3, keep_states=True, levels=levels)
    for level, rep in zip(levels, stacked):
        (solo,) = solve_paths(replace(cfg, truncation_level=level), [path], keep_states=True)
        assert _fingerprint(rep) == _fingerprint(solo)
        assert rep.trajectory.states.tobytes() == solo.trajectory.states.tobytes()
    assert stacked[0].tau < cfg.T and stacked[0].truncation_ever_active
    with pytest.raises(LengthMismatch):
        solve_paths(cfg, [path] * 3, levels=levels[:2])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match="truncation level must be positive"):
            solve_paths(cfg, [path] * 3, levels=(2.0, bad, math.inf))


def test_path_coincidence_rejects_bad_levels():
    cfg = config(scheme="picard")
    with pytest.raises(ConfigError):
        path_coincidence_check(cfg, [path_for(cfg, 0)], (4.0, 2.0))
    # a level follows the config's level rule: no boolean, no numeric string
    for bad in (True, "4"):
        with pytest.raises(ConfigError):
            path_coincidence_check(cfg, [path_for(cfg, 0)], (0.5, bad))
    # the check compares exactly two levels
    for levels in ((1.0, 2.0, 3.0), (1.0,)):
        with pytest.raises(ConfigError):
            path_coincidence_check(cfg, [path_for(cfg, 0)], levels)


def test_solve_dispatch_and_report_dict():
    cfg = config(dt=1.0 / 32.0)
    rep = solve(cfg, path_index=1)
    assert rep.scheme == "splitstep"
    doc = rep.summary_dict()
    assert doc["tau"] == rep.tau
    assert doc["path_index"] == 1
    rep2 = solve(replace(cfg, scheme="picard"), path_index=1)
    assert rep2.scheme == "picard"


def test_critical_focusing_run_is_flagged():
    params = ModelParams(d=1, alpha=Fraction(5), gamma=Fraction(1), lam=-1)
    cfg = config(params=params, dt=1.0 / 128.0,
                 ic_spec={"kind": "gaussian_bump", "amplitude": 0.2, "width": 2.0})
    rep = solve(cfg)
    assert any("critical" in n for n in rep.notes)
    assert any("focusing" in n for n in rep.notes)


def test_keep_states_false_still_tracks_norms():
    cfg = config(scheme="picard", dt=1.0 / 32.0)
    rep = solve(cfg, keep_states=False)
    assert len(rep.trajectory.running_mass) == cfg.n_steps + 1
    c1, c2 = rep.trajectory.z_components_at(cfg.T)
    assert c1 > 0 and c2 > 0
    # states are only copied aside: in both schemes, with the cutoff acting,
    # every column and verdict is bitwise the same with and without them
    for scheme in ("picard", "splitstep"):
        c = replace(cfg, scheme=scheme, ic_spec=CUTOFF_IC, truncation_level=3.5)
        paths = [path_for(c, i) for i in range(3)]
        kept, unkept = (solve_paths(c, paths, keep) for keep in (True, False))
        assert any(rep.tau < c.T for rep in kept), scheme
        for a, b in zip(kept, unkept):
            assert a.trajectory.states is not None and b.trajectory.states is None
            assert (a.tau, a.halfbox_leakage) == (b.tau, b.halfbox_leakage)
            for name in ("running_mass", "acc1", "acc2"):
                assert getattr(a.trajectory, name).tobytes() == getattr(b.trajectory, name).tobytes(), (scheme, name)


# -- the path-batched engine -------------------------------------------------

CUTOFF_IC = {"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0}


def _fingerprint(rep):
    """Everything a solved path reports, as bitwise-comparable values."""
    traj = rep.trajectory
    c1, c2 = traj.z_components_at(traj.times[-1])
    return (
        rep.tau,
        c1,
        c1 + c2,
        float(np.max(traj.running_mass)),
        rep.halfbox_leakage,
        rep.truncation_ever_active,
        traj.running_mass.tobytes(),
        traj.acc1.tobytes(),
        traj.acc2.tobytes(),
        state_at(traj, -1).values.tobytes(),
    )


@settings(max_examples=12, deadline=None)
@given(
    scheme=st.sampled_from(["picard", "splitstep"]),
    level=st.sampled_from([math.inf, 3.5]),
    order=st.permutations(range(5)),
    size=st.integers(2, 5),
)
def test_batch_results_are_bitwise_independent_of_the_batch(scheme, level, order, size):
    """A path's result is the same alone, in a batch of P and in shuffled
    order, with and without an active cutoff (level 3.5 stops inside the
    run; for Picard it engages the cutoff)."""
    cfg = config(scheme=scheme, truncation_level=level, ic_spec=CUTOFF_IC, dt=1.0 / 32.0)
    paths = [path_for(cfg, i) for i in order[:size]]
    alone = {p.path_index: _fingerprint(solve_paths(cfg, [p], keep_states=True)[0]) for p in paths}
    batch = solve_paths(cfg, paths, keep_states=True)
    for p, rep in zip(paths, batch):
        assert rep.path_index == p.path_index
        assert _fingerprint(rep) == alone[p.path_index]
    if level == 3.5:
        assert any(rep.tau < cfg.T for rep in batch)
        if scheme == "picard":
            assert any(rep.truncation_ever_active for rep in batch)


def _cap_stack(case, scheme):
    """(config, rows) of a stack of the cap's size, 256 KiB, as the program
    forms it: an ensemble chunk of 128 rows at d = 1, n = 128, the same with
    non-conservative noise, and 4 rows at d = 2, n = 64.  Sixteen steps."""
    kw = {
        "d1-chunk": {},
        "d1-nonconservative": TEXTBOOK_CASES["d1-nonconservative"],
        "d2": dict(params=TEXTBOOK_CASES["d2-gamma1"]["params"], grid=Grid(d=2, n=64, L=16.0)),
    }[case]
    cfg = config(scheme=scheme, dt=1.0 / 16.0, **kw)
    rows = snls.grid_field.CHUNK_STACK_BYTES // (16 * cfg.grid.size)
    assert rows == (4 if case == "d2" else 128)
    return cfg, rows


@pytest.mark.parametrize("scheme", ["picard", "splitstep"])
@pytest.mark.parametrize("case", ["d1-chunk", "d1-nonconservative", "d2"])
def test_rows_of_a_stack_at_the_cap_equal_their_solo_solves(case, scheme):
    """At the cap's size numpy may compute an elementwise product into the
    place of a temporary operand, with the operands swapped; a row still
    takes the arithmetic of its solo solve, bitwise (every column, kept
    state, tau, leakage and cutoff flag)."""
    cfg, rows = _cap_stack(case, scheme)
    paths = [path_for(cfg, i) for i in range(rows)]
    for path, rep in zip(paths, solve_paths(cfg, paths, keep_states=True)):
        (solo,) = solve_paths(cfg, [path], keep_states=True)
        assert _fingerprint(rep) == _fingerprint(solo), path.path_index
        assert rep.trajectory.states.tobytes() == solo.trajectory.states.tobytes(), path.path_index


def test_rows_of_a_stack_at_the_cap_equal_their_solo_solves_on_another_dispatch_target(tmp_path):
    """The 128-row split-step stack (four steps) in a process whose numpy
    kernels run one SIMD target lower, "AVX512_SPR" and "X86_V4" disabled
    where numpy dispatches on them here (so the process starts on any
    host): every row equals its solo solve there bitwise, and the stack's
    states agree with this process's to 1e-14 of their largest modulus."""
    introspect = pytest.importorskip("numpy.lib.introspect")

    def targets(info):
        return {t for sigs in info.values() for d in sigs.values() for t in d["current"].split()}

    disabled = [f for f in ("AVX512_SPR", "X86_V4") if f in targets(introspect.opt_func_info())]
    cfg, rows = _cap_stack("d1-chunk", "splitstep")
    cfg = replace(cfg, T=0.25)
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from numpy.lib.introspect import opt_func_info\n"
        "from snls.config import parse_config_dict\n"
        "from snls.solver import path_for, solve_paths\n"
        "cfg = parse_config_dict(json.loads(sys.argv[1]))\n"
        "paths = [path_for(cfg, i) for i in range(int(sys.argv[2]))]\n"
        "def columns(rep):\n"
        "    t = rep.trajectory\n"
        "    return [a.tobytes() for a in (t.states, t.running_mass, t.acc1, t.acc2)]\n"
        "stack = solve_paths(cfg, paths, keep_states=True)\n"
        "equal = sum(columns(rep) == columns(solve_paths(cfg, [p], keep_states=True)[0]) for p, rep in zip(paths, stack))\n"
        "np.save(sys.argv[3], np.stack([rep.trajectory.states for rep in stack]))\n"
        "targets = {t for sigs in opt_func_info().values() for d in sigs.values() for t in d['current'].split()}\n"
        "print(json.dumps([equal, sorted(targets)]))\n"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(snls.solver.__file__))
    argv = [json.dumps(snls.config.config_to_dict(cfg)), str(rows), str(tmp_path / "states.npy")]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    equal, running = json.loads(proc.stdout)
    assert not set(disabled) & set(running)
    assert equal == rows
    here = np.stack([rep.trajectory.states for rep in solve_paths(cfg, [path_for(cfg, i) for i in range(rows)], keep_states=True)])
    there = np.load(tmp_path / "states.npy")
    assert np.max(np.abs(there - here)) <= 1e-14 * np.max(np.abs(here))


def _overflow_config(amplitude, **kw):
    """d = 1, alpha = gamma = 3, coefficient [amplitude, amplitude]: strong
    enough noise that some paths blow up early."""
    return config(
        params=ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3), lam=1),
        grid=Grid(d=1, n=64, L=32.0),
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": [amplitude, amplitude], "width": 3.0}]},
        seed=0,
        **kw,
    )


def test_rows_after_a_failure_equal_their_solo_solves():
    """A row that blows up mid-run marches on with the others, and its
    BlowUp is read from its columns afterwards.  Every other row still
    equals its solo solve bitwise (columns, states, leakage, tau), and the
    failed row's BlowUp is its solo solve's."""
    cfg = _overflow_config(5)
    paths = [path_for(cfg, i) for i in range(6)]
    stack = solve_paths(cfg, paths, keep_states=True)
    assert [i for i, rep in enumerate(stack) if isinstance(rep, BlowUp)] == [3]
    assert str(stack[3]) == "step from t=0.0625 blew up: L^2 norm 3.08e+48 (from 4.6377e+09, Z=104.873)"
    assert stack[3].t == 0.0625
    for path, rep in zip(paths, stack):
        (solo,) = solve_paths(cfg, [path], keep_states=True)
        if isinstance(rep, BlowUp):
            assert (str(rep), rep.t, rep.z, rep.l2) == (str(solo), solo.t, solo.z, solo.l2)
            continue
        assert _fingerprint(rep) == _fingerprint(solo)
        assert rep.trajectory.states.tobytes() == solo.trajectory.states.tobytes()


def test_path_coincidence_raises_a_failing_paths_blowup():
    """A path that blows up at either level is raised, not compared."""
    cfg = _overflow_config(3, scheme="picard", ic_spec={"kind": "gaussian_bump", "amplitude": 2.0, "width": 2.0})
    with pytest.raises(BlowUp) as info:
        path_coincidence_check(cfg, [path_for(cfg, 0)], (1e100, 1e101))
    assert str(info.value) == "step from t=0.046875 blew up: L^2 norm 8.96e+20 (from 17693.3, Z=10.6774)"


def test_solve_paths_of_no_paths_is_empty():
    assert solve_paths(config(), []) == []


def test_cutoff_flags_are_read_from_the_z_column():
    """Picard's truncation_ever_active is theta(Z_l) < 1 at some step l < K
    of the path's own Z column: pinned on the criterion-6 paths (seed 42,
    paths 0-19) at three levels near where the cutoff starts to act.
    Split-step never applies the cutoff, so its flag stays False."""
    cfg = config(scheme="picard", ic_spec=CUTOFF_IC, seed=42)
    paths = [path_for(cfg, i) for i in range(20)]
    expected = {3.75: "10101101101111101011", 3.8: "00000101000110001010", 3.85: "00000000000010000010"}
    for level, flags in expected.items():
        reps = solve_paths(replace(cfg, truncation_level=level), paths)
        assert "".join(str(int(rep.truncation_ever_active)) for rep in reps) == flags, level
        for rep in reps:
            c1, c2 = rep.trajectory.z_columns()
            assert rep.truncation_ever_active == bool(np.any(theta(c1[:-1] + c2[:-1], level) < 1.0))
    reps = solve_paths(replace(cfg, scheme="splitstep", truncation_level=3.75), paths)
    assert not any(rep.truncation_ever_active for rep in reps)


def _textbook_strang_states(cfg, path):
    """The Strang step as written down, phase half, linear step, phase half:
    the rotation by half the nonlinear and noise phases (for non-conservative
    noise, half the nonlinear one, then one Euler–Maruyama step from the
    oracle's drift and kick); U(dt) as two half linear steps, each
    transform, multiply, inverse; the same half rotation again.  Four
    transforms and two `exp` per step, on one path; returns the (K+1, size)
    states."""
    plan = get_plan(cfg.grid, cfg.enable_laplacian)
    half = plan.multiplier(0.5 * cfg.dt)
    alpha, gamma = float(cfg.params.alpha), float(cfg.params.gamma)
    lam = cfg.params.lam if cfg.enable_nonlinearity else 0
    model = cfg.model
    n_e = model.n_modes
    exact = model.conservative and model.linear_real

    def half_rotation(v, dinc):
        phase = lam * cfg.dt * np.abs(v) ** (alpha - 1.0)
        if exact:
            phase = phase + (dinc[:n_e] @ model.coeffs.real) * np.abs(v) ** (gamma - 1.0) + dinc[n_e:] @ model.linear_coeffs.real
        return v * np.exp(-0.5j * phase)

    v = cfg.u0.values
    states = [v]
    for l in range(cfg.n_steps):
        dinc = path.increments[:, l]
        v = half_rotation(v, dinc)
        if not exact:
            v = v + cfg.dt * stratonovich_drift(v, model, gamma) + noise_term(v, model, gamma, dinc)
        v = plan.inverse(half * plan.forward(v))
        v = plan.inverse(half * plan.forward(v))
        v = half_rotation(v, dinc)
        states.append(v)
    return np.stack(states)


GRID_2D = Grid(d=2, n=16, L=16.0)
LINEAR_AND_BUMP_NOISE = {
    "coefficients": [{"kind": "gaussian_bump", "amplitude": 0.5, "width": 3.0}],
    "linear_coefficients": [{"kind": "gaussian_bump", "amplitude": 0.3, "width": 4.0}],
}
TEXTBOOK_CASES = {
    "d1-gamma1": {},
    "d1-gamma3/2": dict(params=ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3, 2), lam=-1)),
    "d1-linear-mode": dict(noise_spec=LINEAR_AND_BUMP_NOISE, dt=1.0 / 256.0),
    "d1-no-laplacian": dict(enable_laplacian=False),
    "d1-nonconservative": dict(noise_spec={"coefficients": [{"kind": "constant", "value": [0.1, 0.4]}]}),
    "d2-gamma1": dict(params=ModelParams(d=2, alpha=Fraction(2), gamma=Fraction(1), lam=1), grid=GRID_2D),
    "d2-gamma3/2-linear-mode": dict(
        params=ModelParams(d=2, alpha=Fraction(3), gamma=Fraction(3, 2), lam=1), grid=GRID_2D, noise_spec=LINEAR_AND_BUMP_NOISE
    ),
}


@pytest.mark.parametrize("case", sorted(TEXTBOOK_CASES))
def test_splitstep_equals_the_textbook_strang_step(case):
    """The engine's step (one rotation merging a step's trailing half with
    the next step's leading half, then U(dt); kept states rotated by their
    pending half) is the textbook four-transform, two-`exp` Strang step up
    to rounding: every kept state of a two-path stack within 1e-12
    relative L^2 of the reference march."""
    cfg = config(**TEXTBOOK_CASES[case])
    assert cfg.n_steps <= 256
    paths = [path_for(cfg, i) for i in range(2)]
    for path, rep in zip(paths, solve_paths(cfg, paths, keep_states=True)):
        expected = _textbook_strang_states(cfg, path)
        got = rep.trajectory.states
        gap = lp_norm_rows(got - expected, 2, cfg.grid) / lp_norm_rows(expected, 2, cfg.grid)
        assert np.max(gap) <= 1e-12, (case, path.path_index, float(np.max(gap)))


def _block_case(case):
    """(config, number of paths) of a block-recording case."""
    if case == "gamma1":  # the second accumulator is a running max; every row resolves
        return config(), 6
    if case == "gamma3-blowup":  # power integrals; row 3 blows up at step 4, mid-block
        return _overflow_config(5), 6
    if case == "d2":  # one path at d = 2, n = 64: four steps per block at the default cap
        return config(params=TEXTBOOK_CASES["d2-gamma1"]["params"], grid=Grid(d=2, n=64, L=16.0)), 1
    # gamma = 1, non-conservative noise: every row blows up at step 15 or 16
    cfg = _overflow_config(20)
    return replace(cfg, params=replace(cfg.params, gamma=Fraction(1))), 6


def _verdicts(rep):
    if isinstance(rep, BlowUp):
        return (str(rep), rep.t, rep.z, rep.l2)
    traj = rep.trajectory
    columns = (traj.running_mass, traj.acc1, traj.acc2) + ((traj.states,) if traj.states is not None else ())
    return (rep.tau, rep.halfbox_leakage, rep.truncation_ever_active) + tuple(c.tobytes() for c in columns)


@pytest.mark.parametrize("keep_states", [True, False])
@pytest.mark.parametrize("case", ["gamma1", "gamma1-blowup", "gamma3-blowup", "d2"])
def test_block_recording_equals_step_by_step_recording(monkeypatch, case, keep_states):
    """Split-step records per block of steps, a block holding the states
    that `stack_slices` puts in one stack.  With a cap of three states per
    block, K = 64 spans 21 full blocks and a partial block of two, and a
    row of a six-path stack solved alone gets blocks of 18 (three full, one
    partial); at the default cap, the d = 2, n = 64 path gets blocks of 4.
    Every column, tau, leakage, cutoff flag and BlowUp equals, bitwise, a
    march that records every step on its own."""
    cfg, n_paths = _block_case(case)
    paths = [path_for(cfg, i) for i in range(n_paths)]
    default = snls.grid_field.CHUNK_STACK_BYTES

    def march(cap, rows):
        monkeypatch.setattr(snls.grid_field, "CHUNK_STACK_BYTES", cap)
        return [_verdicts(rep) for rep in solve_paths(cfg, rows, keep_states)]

    cap = 3 * 16 * len(paths) * cfg.grid.size
    assert cfg.n_steps == 64
    step_by_step = march(1, paths)
    assert march(cap, paths) == step_by_step
    assert [march(cap, [p])[0] for p in paths] == step_by_step
    assert [march(default, [p])[0] for p in paths] == step_by_step
    failed = [i for i, v in enumerate(step_by_step) if isinstance(v[0], str)]
    assert failed == {"gamma1": [], "gamma1-blowup": list(range(6)), "gamma3-blowup": [3], "d2": []}[case]


def test_recording_blocks_follow_the_one_stack_rule(monkeypatch, stack_cap):
    """A split-step march records its states in the blocks that
    `stack_slices` makes of K + 1 rows of P * size values, one
    `norms_and_leakage` call each: 2, 7 and 65 calls for two paths and
    K = 64 at the three caps.  Picard records each of its K + 1 states
    alone, because its step l reads Z at t_l."""
    calls = []
    record = snls.solver.norms_and_leakage

    def counted(*args):
        calls.append(len(args[0]))
        return record(*args)

    monkeypatch.setattr(snls.solver, "norms_and_leakage", counted)
    splitstep_blocks = stack_slices(65, 2 * GRID.size)
    assert len(splitstep_blocks) == {None: 2, 5 * 16 * 512: 7, 1: 65}[stack_cap]
    for scheme, blocks in (("splitstep", splitstep_blocks), ("picard", [slice(l, l + 1) for l in range(65)])):
        cfg = config(scheme=scheme)
        assert cfg.n_steps == 64
        calls.clear()
        solve_paths(cfg, [path_for(cfg, i) for i in range(2)])
        assert calls == [b.stop - b.start for b in blocks]


@pytest.mark.parametrize("scheme", ["picard", "splitstep"])
@pytest.mark.parametrize("d", [1, 2])
def test_every_step_runs_two_transforms(monkeypatch, d, scheme):
    """Both schemes are a pointwise map, then U(dt), which the engine
    applies at one site: one solve_paths makes d K forward and d K inverse
    one-axis FFT calls, one of each per axis and step, and no transform of
    u0."""
    cfg = config(dt=1.0 / 16.0) if d == 1 else config(**TEXTBOOK_CASES["d2-gamma1"], dt=1.0 / 16.0)
    cfg = replace(cfg, scheme=scheme)
    paths = [path_for(cfg, i) for i in range(2)]
    calls = []

    def counted(name):
        transform = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls.append(name)
            return transform(*args, **kwargs)

        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    solve_paths(cfg, paths)
    K = cfg.n_steps
    assert (calls.count("fft"), calls.count("ifft")) == (d * K, d * K)
    assert len(calls) == 2 * d * K


@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(3, 2)], ids=["gamma1", "gamma3/2"])
def test_splitstep_strong_order_is_one(gamma):
    """Split-step's strong order on the full equation (alpha = 3, one
    conservative bump mode): 8 paths at dt = 2^-5 ... 2^-10, each coarsened
    from one fine path, and the order fitted to the mean relative L^2 gaps
    at T between successive levels.  Over seeds 1-20 split-step read
    0.76-1.18 at either gamma and Picard 0.28-0.69, so the bounds tell the
    schemes apart."""
    fine_cfg = config(params=replace(PARAMS_31, gamma=gamma), dt=2.0**-10)
    fine = [path_for(fine_cfg, i) for i in range(8)]
    finals = []
    for k in range(5, 11):
        paths = [coarsen_path(p, 2 ** (10 - k)) for p in fine]
        reps = solve_paths(replace(fine_cfg, dt=2.0**-k), paths, keep_states=True)
        finals.append(np.stack([rep.trajectory.states[-1] for rep in reps]))
    gaps = [np.mean(lp_norm_rows(a - b, 2, GRID) / lp_norm_rows(b, 2, GRID)) for a, b in zip(finals, finals[1:])]
    order = np.polyfit(np.log(2.0 ** -np.arange(5, 10)), np.log(gaps), 1)[0]
    assert 0.75 <= order <= 1.25, order


PLANE_WAVE_AMPLITUDE = complex(0.9, 0.6)


def plane_wave(d, alpha, gamma, n, lam, c, **kw) -> SimConfig:
    """u0 = A e^{ik.x} on [-4, 4)^d, one constant real noise mode c (none at
    c = 0); T = 1/2 and dt = 1/64 unless `kw` says otherwise."""
    noise = {"coefficients": [{"kind": "constant", "value": c}] if c else []}
    mode = [1, -2, 1][:d]
    a = PLANE_WAVE_AMPLITUDE
    ic = {"kind": "plane_wave", "mode": mode, "amplitude": [a.real, a.imag]}
    params = ModelParams(d=d, alpha=Fraction(alpha), gamma=Fraction(gamma), lam=lam)
    base = dict(params=params, grid=Grid(d=d, n=n, L=8.0), noise_spec=noise, ic_spec=ic, T=0.5, dt=1.0 / 64.0)
    return SimConfig(**dict(base, **kw))


def plane_wave_exact(cfg: SimConfig, paths) -> np.ndarray:
    """The exact solution at every mesh time, (P, K + 1, size):

        u = A e^{ik.x} exp(-i |k|^2 t - i lam |A|^(alpha-1) t - i c |A|^(gamma-1) beta_t),

    |u| = |A| being constant, with beta_t the cumulative sum of a path's
    increments."""
    k_sq = (2.0 * np.pi / cfg.grid.L) ** 2 * float(np.sum(np.square(cfg.ic_spec["mode"])))
    a, t = abs(PLANE_WAVE_AMPLITUDE), cfg.mesh()
    c = cfg.model.coeffs[:, 0].real
    beta = np.stack([np.concatenate([[0.0], np.cumsum(c @ path.increments)]) for path in paths])
    phase = (k_sq + cfg.params.lam * a ** float(cfg.params.alpha - 1)) * t + a ** float(cfg.params.gamma - 1) * beta
    return cfg.u0.values * np.exp(-1j * phase)[..., None]


@pytest.mark.parametrize("lam", [1, -1], ids=["defocusing", "focusing"])
@pytest.mark.parametrize(
    "d, alpha, gamma, n", [(1, 5, 3, 64), (2, 3, 2, 32), (3, Fraction(7, 3), Fraction(5, 3), 16)], ids=["d1", "d2", "d3"]
)
def test_plane_wave_is_exact_for_splitstep(d, alpha, gamma, n, lam):
    """A plane wave keeps |u| = |A|, so every split-step rotation is the
    exact one and the linear step is exact on its mode: split-step matches
    the exact solution at every recorded time of 3 paths to 1e-13 relative
    L^2 (5.8e-15 measured) in d = 1, 2 and 3.  Picard marches the d = 3
    config to a report on every path."""
    cfg = plane_wave(d, alpha, gamma, n, lam, 0.7)
    paths = [path_for(cfg, i) for i in range(3)]
    exact = plane_wave_exact(cfg, paths)
    for rep, want in zip(solve_paths(cfg, paths, keep_states=True), exact):
        gap = lp_norm_rows(rep.trajectory.states - want, 2, cfg.grid) / lp_norm_rows(want, 2, cfg.grid)
        assert np.max(gap) <= 1e-13, float(np.max(gap))
    if d == 3:
        assert all(isinstance(rep, SolveReport) for rep in solve_paths(replace(cfg, scheme="picard"), paths))


@pytest.mark.parametrize(
    "c, gamma, lo, hi", [(0.0, 1, 0.95, 1.05), (0.7, 1, 0.4, 0.75), (0.7, Fraction(3, 2), 0.4, 0.75)],
    ids=["noise-free", "gamma1", "gamma3/2"],
)
def test_picard_strong_order_against_the_plane_wave(c, gamma, lo, hi):
    """Picard's strong order on the full equation, against the exact plane
    wave (d = 1, n = 16, alpha = 3, lam = 1, T = 1): 128 paths at
    dt = 2^-4 ... 2^-8, each coarsened from one fine path, and the order
    fitted to the mean relative L^2 error at T.  Noise-free it read 1.014;
    with one constant mode c = 0.7, over seeds 1-20, 0.503-0.634 at
    gamma = 1 and 0.499-0.639 at gamma = 3/2: order 1/2, as an
    exponential-Euler step with Ito increments has."""
    fine_cfg = plane_wave(1, 3, gamma, 16, 1, c, scheme="picard", T=1.0, dt=2.0**-8, seed=1)
    fine = [path_for(fine_cfg, i) for i in range(128)]
    exact = plane_wave_exact(fine_cfg, fine)[:, -1]
    errors = []
    for k in range(4, 9):
        reps = solve_paths(replace(fine_cfg, dt=2.0**-k), [coarsen_path(p, 2 ** (8 - k)) for p in fine], keep_states=True)
        got = np.stack([rep.trajectory.states[-1] for rep in reps])
        errors.append(np.mean(lp_norm_rows(got - exact, 2, fine_cfg.grid) / lp_norm_rows(exact, 2, fine_cfg.grid)))
    order = np.polyfit(np.log(2.0 ** -np.arange(4, 9)), np.log(errors), 1)[0]
    assert lo <= order <= hi, order


@pytest.mark.parametrize("scheme", ["picard", "splitstep"])
def test_append_rebuild_matches_engine_columns(scheme):
    """`Trajectory.from_states` and the engine share one arithmetic for the
    norms and the accumulators: rebuilding a kept-states solve from its
    states reproduces its columns, bitwise for Picard, whose kept states
    are the states it records.  Split-step records |z_l| and keeps
    u_l = z_l rotated by its pending half, whose modulus equals |z_l| up
    to that rotation's rounding, so there the columns agree to 1e-14
    relative."""
    cfg = config(scheme=scheme, ic_spec=CUTOFF_IC, truncation_level=3.5)
    traj = solve(cfg, path_index=1, keep_states=True).trajectory
    rebuilt = Trajectory.from_states(traj.times, [state_at(traj, j) for j in range(len(traj.times))], traj.zexp)
    assert np.array_equal(rebuilt.times, traj.times)
    for name in ("running_mass", "acc1", "acc2"):
        a, b = getattr(rebuilt, name), getattr(traj, name)
        assert np.array_equal(a, b) if scheme == "picard" else np.allclose(a, b, rtol=1e-14, atol=0.0), name


@pytest.mark.parametrize("modes", [0, 2])
def test_path_mode_count_must_match_model(modes):
    """A path whose mode count differs from the model's raises
    LengthMismatch instead of dropping modes or indexing past them."""
    cfg = config()
    assert cfg.model.total_modes == 1
    path = sample_brownian_path(cfg.mesh(), modes, cfg.seed, 0)
    with pytest.raises(LengthMismatch, match="modes"):
        solve_paths(cfg, [path])
    with pytest.raises(LengthMismatch):
        solve(cfg, path)


def test_ragged_path_list_is_checked_before_the_stack():
    """Paths are checked one by one before they are stacked: a 1-mode and a
    2-mode path raise LengthMismatch naming both mode counts, in the engine
    and in the coincidence check, and a path off the mesh MeshMismatch."""
    cfg = config(scheme="picard")
    ragged = [sample_brownian_path(cfg.mesh(), modes, cfg.seed, 0) for modes in (1, 2)]
    with pytest.raises(LengthMismatch, match="path 1 .*2, 64.* 1 modes"):
        solve_paths(cfg, ragged)
    with pytest.raises(LengthMismatch):
        path_coincidence_check(cfg, ragged, (2.0, 4.0))
    with pytest.raises(MeshMismatch):
        solve_paths(cfg, [path_for(cfg, 0), coarsen_path(path_for(cfg, 1), 2)])


def test_mesh_check_is_absolute():
    """A path's mesh may differ from the config mesh by 1e-12 at most, with
    no relative slack: a mesh that ends 5e-6 late is refused."""
    cfg = config()
    M = cfg.model.total_modes
    for end in (1.0 + 5e-6, 1.0 + 5e-5):
        late = sample_brownian_path(np.linspace(0.0, end, cfg.n_steps + 1), M, cfg.seed, 0)
        with pytest.raises(MeshMismatch):
            solve_paths(cfg, [late])
    close = sample_brownian_path(cfg.mesh() + 5e-13, M, cfg.seed, 0)
    (report,) = solve_paths(cfg, [close])
    assert report.tau == cfg.T


# Values passed from Python, read as the config file's are: a boolean or a
# string is no number and a string no switch, and a number is kept as the
# float the file would give.
PYTHON_VALUES = {
    "dt-true": lambda cfg, path: replace(cfg, dt=True),
    "T-string": lambda cfg, path: replace(cfg, T="1"),
    "level-true": lambda cfg, path: replace(cfg, truncation_level=True),
    "level-string": lambda cfg, path: replace(cfg, truncation_level="3"),
    "level-inf-string": lambda cfg, path: replace(cfg, truncation_level="inf"),
    "laplacian-string": lambda cfg, path: replace(cfg, enable_laplacian="no"),
    "nonlinearity-int": lambda cfg, path: replace(cfg, enable_nonlinearity=1),
    "solve-paths-level-string": lambda cfg, path: solve_paths(cfg, [path], levels=["3"]),
    "solve-paths-level-inf-string": lambda cfg, path: solve_paths(cfg, [path], levels=["inf"]),
    "solve-paths-level-true": lambda cfg, path: solve_paths(cfg, [path], levels=[True]),
    "T-int": lambda cfg, path: replace(cfg, T=1),
}


@pytest.mark.parametrize("case", sorted(PYTHON_VALUES))
def test_python_values_follow_the_config_files_types(case):
    cfg = config()
    if case == "T-int":
        same = PYTHON_VALUES[case](cfg, None)
        assert type(same.T) is float and snls.config.config_hash(same) == snls.config.config_hash(cfg)
        return
    with pytest.raises(ConfigError):
        PYTHON_VALUES[case](cfg, path_for(cfg))


def test_seed_must_be_an_integer():
    """A seed that is not an integer raises ConfigError instead of being
    truncated to another seed's paths; an integral float reads as the int."""
    for bad in (2.5, True, "5", math.nan):
        with pytest.raises(ConfigError, match="seed"):
            config(seed=bad)
    assert config(seed=5.0).seed == 5 and type(config(seed=5.0).seed) is int
