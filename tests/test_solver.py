"""Both integrators: exactness cases, oracles, cross-validation."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.errors import BlowUp, ConfigError
from snls.exponents import ModelParams
from snls.grid_field import Grid, Trajectory, lp_norm
from snls.noise import coarsen_path, diffusion_only_exact, sample_brownian_path
from snls.propagator import free_evolve
from snls.solver import (
    BLOWUP_L2,
    SimConfig,
    materialize,
    path_coincidence_check,
    path_for,
    picard_solve,
    solve,
    solve_paths,
    splitstep_solve,
)

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


def test_splitstep_pure_free_evolution():
    """Noise off, nonlinearity off: split-step is exactly the free group."""
    cfg = config(noise_spec=NO_NOISE, enable_nonlinearity=False, dt=1.0 / 32.0)
    rep = splitstep_solve(cfg)
    _, _, u0 = materialize(cfg)
    expected = free_evolve(u0, cfg.T)
    got = rep.trajectory.state_at_index(-1)
    assert lp_norm(got - expected, 2) / lp_norm(expected, 2) < 1e-12


def test_splitstep_conservative_mass():
    cfg = config(dt=1.0 / 512.0)
    for pi in range(3):
        rep = splitstep_solve(cfg, path_index=pi)
        m = np.asarray(rep.trajectory.running_mass)
        assert np.max(np.abs(m - m[0])) / m[0] < 1e-12


def test_splitstep_nonconservative_fallback_runs():
    cfg = config(noise_spec={"coefficients": [{"kind": "constant", "value": [0.0, 0.4]}]})
    rep = splitstep_solve(cfg)
    m = np.asarray(rep.trajectory.running_mass)
    # complex coefficients do not preserve mass; drift is reported, not asserted
    assert np.all(np.isfinite(m))


def test_picard_linear_free_equation_one_iteration():
    """No forcing at all: the march is the free group, step by step."""
    cfg = config(scheme="picard", noise_spec=NO_NOISE, enable_nonlinearity=False)
    rep = picard_solve(cfg)
    _, _, u0 = materialize(cfg)
    got = rep.trajectory.state_at_index(-1)
    expected = free_evolve(u0, cfg.T)
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
        _, model, u0 = materialize(cfg)
        per_path = []
        for pi in range(6):
            fine_path = sample_brownian_path(fine_mesh, model.total_modes, cfg.seed, pi)
            rep = picard_solve(cfg, coarsen_path(fine_path, fine // steps))
            exact = diffusion_only_exact(u0, model, float(cfg.params.gamma), fine_path, 1.0)
            got = rep.trajectory.state_at_index(-1)
            per_path.append(lp_norm(got - exact, 2))
        errs.append(np.mean(per_path))
    assert errs[1] < errs[0]
    assert errs[1] < 0.6 * errs[0]  # at least ~0.37 observed for order 1/2 over 4x refinement


def test_splitstep_matches_picard_at_first_order_deterministic():
    """Noise off, defocusing cubic: the same-dt gap between split-step and
    Picard decreases at order >= 1 (it is dominated by the first-order
    quadrature of the Picard scheme; Strang splitting sits far below)."""
    base = dict(noise_spec=NO_NOISE, T=0.5)
    gaps = []
    steps_list = (32, 64, 128, 256)
    for steps in steps_list:
        ss = splitstep_solve(config(dt=0.5 / steps, **base))
        pic = picard_solve(config(scheme="picard", dt=0.5 / steps, **base))
        a = ss.trajectory.state_at_index(-1)
        b = pic.trajectory.state_at_index(-1)
        gaps.append(lp_norm(a - b, 2))
    order = np.polyfit(np.log2([0.5 / s for s in steps_list]), np.log2(gaps), 1)[0]
    assert 0.9 <= order <= 1.5, f"deterministic cross-scheme order {order} not ~1"


def test_cross_scheme_consistency_on_one_path():
    cfg_ss = config(dt=1.0 / 256.0, noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.2, "width": 3.0}]})
    cfg_pi = replace(cfg_ss, scheme="picard")
    path = path_for(cfg_ss, 2)
    a = splitstep_solve(cfg_ss, path).trajectory.state_at_index(-1)
    b = picard_solve(cfg_pi, path).trajectory.state_at_index(-1)
    assert lp_norm(a - b, 2) / lp_norm(a, 2) < 0.02


def test_picard_fixed_point_satisfies_mild_equation():
    """The solution satisfies u(T) = U(T)u0 + K_det[u] + K_strat[u]
    + K_stoch[u] assembled independently with the propagator-module
    convolutions (direct sums, not the solver's recursive sweep)."""
    import math as _math

    from snls.propagator import duhamel_convolution, free_evolve as fe, get_plan, stochastic_convolution

    grid = Grid(d=1, n=64, L=32.0)
    cfg = config(
        grid=grid,
        scheme="picard",
        T=0.25,
        dt=1.0 / 64.0,
        truncation_level=_math.inf,
    )
    _, model, u0 = materialize(cfg)
    path = path_for(cfg, 0, model)
    rep = picard_solve(cfg, path)
    traj = rep.trajectory
    alpha = float(cfg.params.alpha)
    gamma = float(cfg.params.gamma)

    forcing = np.empty((len(traj), grid.size), dtype=complex)
    mode_fields = np.empty((len(traj), model.n_modes, grid.size), dtype=complex)
    for j in range(len(traj)):
        v = traj.state_at_index(j).values
        forcing[j] = _mild_forcing(v, model, alpha, gamma, cfg.params.lam)
        mode_fields[j] = -1j * model.coeffs * (np.abs(v) ** (gamma - 1.0) * v)[None, :]

    T = cfg.T
    plan = get_plan(grid)
    det = duhamel_convolution(plan, traj.times, forcing, T)
    (sto,) = stochastic_convolution(plan, path.mesh, mode_fields, path.increments[None], T)
    expected = fe(u0, T).values + det + sto
    got = traj.state_at_index(-1).values
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
    r1 = picard_solve(cfg, path_for(cfg, 5))
    r2 = picard_solve(cfg, path_for(cfg, 5))
    for j in range(len(r1.trajectory)):
        assert np.array_equal(
            r1.trajectory.state_at_index(j).values, r2.trajectory.state_at_index(j).values
        )


def test_picard_is_causal():
    """Negating the increments from step 20 on leaves states 0..20 bitwise
    unchanged: a step reads only the past."""
    cfg = config(scheme="picard", ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0})
    for pi in range(3):
        path = path_for(cfg, pi)
        inc = path.increments.copy()
        inc[:, 20:] *= -1.0
        a = picard_solve(cfg, path).trajectory
        b = picard_solve(cfg, replace(path, increments=inc)).trajectory
        for j in range(21):
            assert np.array_equal(a.state_at_index(j).values, b.state_at_index(j).values), (pi, j)
        assert not np.array_equal(a.state_at_index(-1).values, b.state_at_index(-1).values)


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
            picard_solve(cfg)
    err = info.value
    assert 0.0 <= err.t < cfg.T
    assert err.t / cfg.dt == pytest.approx(round(err.t / cfg.dt))
    assert math.isfinite(err.z) and err.z > 0
    assert math.isfinite(err.l2) and 0 < err.l2 <= BLOWUP_L2


def test_picard_truncation_freezes_dynamics():
    """A level far below the running norm freezes the nonlinear terms and
    the run reports the cutoff as active, with tau at the first mesh time."""
    cfg = config(scheme="picard", truncation_level=0.05)
    rep = picard_solve(cfg)
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
        _, model, _ = materialize(cfg)
        per_path = []
        for pi in range(4):
            path = coarsen_path(sample_brownian_path(fine_mesh, model.total_modes, 4, pi), fine // steps)
            rep = picard_solve(cfg, path)
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


def test_path_coincidence_rejects_bad_levels():
    cfg = config(scheme="picard")
    with pytest.raises(ConfigError):
        path_coincidence_check(cfg, [path_for(cfg, 0)], (4.0, 2.0))


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
    rep = splitstep_solve(cfg)
    assert any("critical" in n for n in rep.notes)
    assert any("focusing" in n for n in rep.notes)


def test_keep_states_false_still_tracks_norms():
    cfg = config(scheme="picard", dt=1.0 / 32.0)
    rep = picard_solve(cfg, keep_states=False)
    assert len(rep.trajectory.running_mass) == cfg.n_steps + 1
    c1, c2 = rep.trajectory.z_components_at(cfg.T)
    assert c1 > 0 and c2 > 0


# -- the path-batched engine -------------------------------------------------

CUTOFF_IC = {"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0}


def _fingerprint(rep):
    """Everything a solved path reports, as bitwise-comparable values."""
    traj = rep.trajectory
    c1, c2 = traj.z_components_at(traj.t_end)
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
        traj.state_at_index(-1).values.tobytes(),
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
    _, model, u0 = materialize(cfg)
    paths = [path_for(cfg, i, model) for i in order[:size]]
    alone = {p.path_index: _fingerprint(solve_paths(cfg, [p], model, u0)[0]) for p in paths}
    batch = solve_paths(cfg, paths, model, u0)
    for p, rep in zip(paths, batch):
        assert rep.path_index == p.path_index
        assert _fingerprint(rep) == alone[p.path_index]
    if level == 3.5:
        assert any(rep.tau < cfg.T for rep in batch)
        if scheme == "picard":
            assert any(rep.truncation_ever_active for rep in batch)


def test_rows_after_a_failure_equal_their_solo_solves():
    """Once a row blows up mid-run the engine marches the other rows by
    their index instead of by views.  Every surviving row still equals its
    solo solve bitwise (columns, states, leakage, tau), and the failed row's
    BlowUp is its solo solve's."""
    cfg = config(
        params=ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3), lam=1),
        grid=Grid(d=1, n=64, L=32.0),
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": [5, 5], "width": 3.0}]},
        seed=0,
    )
    _, model, u0 = materialize(cfg)
    paths = [path_for(cfg, i, model) for i in range(6)]
    stack = solve_paths(cfg, paths, model, u0)
    assert [i for i, rep in enumerate(stack) if isinstance(rep, BlowUp)] == [3]
    assert 0.0 < stack[3].t < cfg.T / 2
    for path, rep in zip(paths, stack):
        (solo,) = solve_paths(cfg, [path], model, u0)
        if isinstance(rep, BlowUp):
            assert (str(rep), rep.t, rep.z, rep.l2) == (str(solo), solo.t, solo.z, solo.l2)
            continue
        assert _fingerprint(rep) == _fingerprint(solo)
        assert rep.trajectory.states.tobytes() == solo.trajectory.states.tobytes()


@pytest.mark.parametrize("scheme", ["picard", "splitstep"])
def test_append_rebuild_matches_engine_columns(scheme):
    """`Trajectory.from_states` and the engine share one arithmetic for the
    norms and the accumulators: rebuilding a kept-states solve from its
    states reproduces its columns bitwise."""
    cfg = config(scheme=scheme, ic_spec=CUTOFF_IC, truncation_level=3.5)
    traj = solve(cfg, path_index=1).trajectory
    rebuilt = Trajectory.from_states(traj.times, [traj.state_at_index(j) for j in range(len(traj))], traj.zexp)
    for name in ("times", "running_mass", "acc1", "acc2"):
        assert np.array_equal(getattr(rebuilt, name), getattr(traj, name)), name
    assert rebuilt.last_norms == traj.last_norms
    assert rebuilt.z_end() == traj.z_end()
