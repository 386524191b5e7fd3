"""Free group, convolutions, empirical Strichartz estimates."""

import math

import numpy as np
import pytest

from snls.errors import GridMismatch, MeshMismatch
from snls.exponents import strichartz_pair
from snls.grid_field import (
    ComplexField,
    Grid,
    Trajectory,
    gaussian_field,
    lp_norm,
    mass_outside_central_halfbox,
    plane_wave_field,
    random_field,
    zero_field,
)
from snls.noise import sample_brownian_path
from snls.propagator import (
    ModeForcing,
    SpectralPlan,
    duhamel_convolution,
    estimate_strichartz_constant,
    free_evolve,
    get_plan,
    stochastic_convolution,
)
from snls.exponents import ModelParams, z_exponents

GRID = Grid(d=1, n=256, L=32.0)
ZX = z_exponents(ModelParams(d=1, alpha=3, gamma=1, lam=1))


def test_identity_at_t_zero():
    rng = np.random.default_rng(0)
    f = random_field(GRID, rng)
    out = free_evolve(f, 0.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-15


def test_plane_wave_is_eigenfunction():
    g = Grid(d=1, n=64, L=2 * np.pi)
    for mode in (1, 3, -5):
        f = plane_wave_field(g, [mode], 1.0)
        t = 0.37
        k = 2 * np.pi * mode / g.L
        expected = np.exp(-1j * k**2 * t) * f.values
        got = free_evolve(f, t).values
        assert np.max(np.abs(got - expected)) < 1e-12


def test_plane_wave_eigenfunction_2d():
    g = Grid(d=2, n=16, L=4.0)
    f = plane_wave_field(g, [2, -1], 0.5)
    ksq = (2 * np.pi / g.L) ** 2 * (4 + 1)
    got = free_evolve(f, 0.21).values
    assert np.max(np.abs(got - np.exp(-1j * ksq * 0.21) * f.values)) < 1e-12


def test_unitarity_group_law_reversal():
    rng = np.random.default_rng(1)
    g = Grid(d=1, n=512, L=64.0)
    worst_u = worst_g = worst_r = 0.0
    for _ in range(200):
        f = random_field(g, rng)
        s, t = rng.uniform(-2.0, 2.0, size=2)
        n0 = lp_norm(f, 2)
        worst_u = max(worst_u, abs(lp_norm(free_evolve(f, t), 2) - n0) / n0)
        worst_g = max(
            worst_g, lp_norm(free_evolve(free_evolve(f, s), t) - free_evolve(f, s + t), 2) / n0
        )
        worst_r = max(worst_r, lp_norm(free_evolve(free_evolve(f, t), -t) - f, 2) / n0)
    assert worst_u < 1e-12
    assert worst_g < 1e-12
    assert worst_r < 1e-12


def test_multiplier_is_phase_only():
    plan = get_plan(GRID)
    for t in (0.0, 0.5, -3.7, 42.0):
        assert np.max(np.abs(np.abs(plan.multiplier(t)) - 1.0)) < 1e-14


def test_gaussian_dispersive_decay_slope():
    """Sup norm of a free Gaussian decays like t^(-1/2) before wrap-around.

    Oracle: closed-form free evolution of exp(-x^2/(4a)) has sup norm
    (a^2/(a^2+t^2))^(1/4).
    """
    g = Grid(d=1, n=2048, L=512.0)
    a = 0.5
    u0 = gaussian_field(g, 1.0, math.sqrt(2 * a))  # width w: a = w^2/2
    ts = np.linspace(2.0, 10.0, 9)
    sups, oracle = [], []
    for t in ts:
        ut = free_evolve(u0, float(t))
        assert mass_outside_central_halfbox(ut) < 1e-8
        sups.append(lp_norm(ut, math.inf))
        oracle.append((a**2 / (a**2 + t**2)) ** 0.25)
    assert np.allclose(sups, oracle, rtol=1e-6)
    slope = np.polyfit(np.log(ts), np.log(sups), 1)[0]
    assert -0.55 <= slope <= -0.45


def test_grid_mismatch_rejected():
    plan = get_plan(GRID)
    other = random_field(Grid(d=1, n=128, L=32.0), np.random.default_rng(2))
    with pytest.raises(GridMismatch):
        plan.free_evolve(other, 0.1)


def _forcing_trajectory(states, times):
    return Trajectory.from_states(times, states, ZX)


def test_duhamel_zero_forcing():
    traj = _forcing_trajectory([zero_field(GRID)] * 3, [0.0, 0.5, 1.0])
    out = duhamel_convolution(traj, 1.0)
    assert lp_norm(out, 2) == 0.0


def test_duhamel_single_step():
    rng = np.random.default_rng(3)
    f0 = random_field(GRID, rng)
    traj = _forcing_trajectory([f0], [0.0])
    t = 0.25
    out = duhamel_convolution(traj, t)
    expected = free_evolve(f0, t).values * t
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_duhamel_semigroup_forcing():
    """Forcing f(s) = U(s) g gives exactly t * U(t) g under left sums,
    because U(t - s) U(s) = U(t) holds mode by mode."""
    rng = np.random.default_rng(4)
    g0 = random_field(GRID, rng, unit_l2=True)
    times = np.linspace(0.0, 1.0, 33)
    states = [free_evolve(g0, float(s)) for s in times]
    traj = _forcing_trajectory(states, times)
    t = 1.0
    out = duhamel_convolution(traj, t)
    expected = t * free_evolve(g0, t).values
    assert lp_norm(ComplexField(GRID, out.values - expected), 2) < 1e-11


def test_duhamel_time_derivative_consistency():
    """d/dt of the convolution approximates i Lap(conv) + f(t) to O(dt)."""
    g = Grid(d=1, n=256, L=16.0)
    f0 = gaussian_field(g, 1.0, 1.5)
    dt = 1e-3
    times = np.arange(0.0, 1.0 + dt / 2, dt)
    states = [free_evolve(f0, float(0.3 * s)) for s in times]  # smooth forcing
    traj = _forcing_trajectory(states, times)
    t = 0.5
    plan = get_plan(g)
    conv_plus = duhamel_convolution(traj, t + dt, plan)
    conv_at = duhamel_convolution(traj, t, plan)
    lhs = (conv_plus.values - conv_at.values) / dt
    lap = plan.inverse(-plan.wavenumber_squares.reshape(-1) * plan.forward(conv_at.values))
    f_at = states[int(round(t / dt))].values
    rhs = 1j * lap + f_at
    err = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) * g.cell_volume)
    assert err < 50 * dt


def test_stochastic_convolution_zero_increments():
    mesh = np.linspace(0.0, 1.0, 9)
    fields = np.ones((9, 1, GRID.size), dtype=complex)
    forcing = ModeForcing(GRID, mesh, fields)
    path = sample_brownian_path(mesh, 1, 0, 0)
    zeroed = type(path)(mesh=path.mesh, increments=np.zeros_like(path.increments), seed=0, path_index=0)
    out = stochastic_convolution(forcing, zeroed, 1.0)
    assert lp_norm(out, 2) == 0.0


def test_stochastic_convolution_single_mode_single_step():
    rng = np.random.default_rng(5)
    phi0 = random_field(GRID, rng)
    mesh = np.array([0.0, 0.5])
    fields = phi0.values[None, None, :].repeat(2, axis=0)
    forcing = ModeForcing(GRID, mesh, fields)
    path = sample_brownian_path(mesh, 1, 7, 0)
    out = stochastic_convolution(forcing, path, 0.5)
    expected = free_evolve(phi0, 0.5).values * path.increments[0, 0]
    assert np.max(np.abs(out.values - expected)) < 1e-13


def test_stochastic_convolution_scalar_reduction():
    """With the Laplacian disabled the sum collapses to g * beta(t)."""
    plan = SpectralPlan(GRID, laplacian_enabled=False)
    rng = np.random.default_rng(6)
    g0 = random_field(GRID, rng)
    mesh = np.linspace(0.0, 1.0, 65)
    fields = np.broadcast_to(g0.values, (65, 1, GRID.size)).copy()
    forcing = ModeForcing(GRID, mesh, fields)
    path = sample_brownian_path(mesh, 1, 11, 3)
    out = stochastic_convolution(forcing, path, 1.0, plan)
    beta_T = float(np.sum(path.increments[0]))
    assert np.max(np.abs(out.values - g0.values * beta_T)) < 1e-13


def test_stochastic_convolution_linearity():
    rng = np.random.default_rng(7)
    g0 = random_field(GRID, rng)
    mesh = np.linspace(0.0, 1.0, 17)
    fields = np.broadcast_to(g0.values, (17, 2, GRID.size)).copy()
    forcing = ModeForcing(GRID, mesh, fields)
    path = sample_brownian_path(mesh, 2, 13, 0)
    doubled = type(path)(mesh=path.mesh, increments=2.0 * path.increments, seed=13, path_index=0)
    out1 = stochastic_convolution(forcing, path, 1.0)
    out2 = stochastic_convolution(forcing, doubled, 1.0)
    assert np.max(np.abs(out2.values - 2.0 * out1.values)) < 1e-12

    half = ModeForcing(GRID, mesh, 0.5 * fields)
    out3 = stochastic_convolution(half, path, 1.0)
    assert np.max(np.abs(out3.values - 0.5 * out1.values)) < 1e-12


def test_stochastic_convolution_mesh_mismatch():
    mesh = np.linspace(0.0, 1.0, 9)
    forcing = ModeForcing(GRID, mesh, np.ones((9, 1, GRID.size), dtype=complex))
    path = sample_brownian_path(np.linspace(0.0, 1.0, 17), 1, 0, 0)
    with pytest.raises(MeshMismatch):
        stochastic_convolution(forcing, path, 1.0)


def test_estimate_strichartz_plane_wave_exact():
    """One plane wave: the free evolution has constant modulus, so the
    L^q(0,T;L^p) norm is ||x||_p T^(1/q) and the estimate equals it."""
    g = Grid(d=1, n=64, L=2 * np.pi)
    pair = strichartz_pair(4, 1)
    plan = get_plan(g)
    x = plane_wave_field(g, [2], 1.0)
    x = x.scaled(1.0 / lp_norm(x, 2))
    q, p = float(pair.q), float(pair.p)
    mesh = np.linspace(0.0, 1.0, 65)
    total = sum(lp_norm(plan.free_evolve(x, float(s)), p) ** q * (1.0 / 64.0) for s in mesh[:-1])
    by_hand = total ** (1.0 / q)
    assert by_hand == pytest.approx(lp_norm(x, p) * 1.0 ** (1 / q), rel=1e-12)


def test_estimate_strichartz_monotone_in_samples():
    pair = strichartz_pair(4, 1)
    plan = get_plan(Grid(d=1, n=128, L=32.0))
    vals = [estimate_strichartz_constant(plan, s, pair, 1.0, seed=42, steps=16) for s in (1, 3, 10)]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[2] < 10.0
