"""Free group, convolutions, empirical Strichartz estimates."""

import math

import numpy as np
import pytest

from snls.errors import EmptyTrajectory, GridMismatch, LengthMismatch, MeshMismatch, OutOfRange
from snls.exponents import strichartz_pair
from snls.grid_field import (
    Grid,
    gaussian_field,
    lp_norm,
    lp_norm_rows,
    mass_outside_central_halfbox,
    plane_wave_field,
    random_field,
)
from snls.noise import sample_brownian_path
from snls.propagator import (
    SpectralPlan,
    duhamel_convolution,
    estimate_strichartz_constant,
    free_evolve,
    free_strichartz_norm,
    get_plan,
    stochastic_convolution,
)

GRID = Grid(d=1, n=256, L=32.0)
PLAN = get_plan(GRID)


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


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("laplacian", [True, False])
def test_transforms_equal_fftn_bitwise(d, n, laplacian):
    """forward/inverse (one 1-D FFT per axis) are np.fft.fftn/ifftn over the
    spatial axes bitwise, for one flat field and a (P, size) stack, and so
    is a free evolution step with or without the Laplacian."""
    grid = Grid(d=d, n=n, L=10.0)
    plan = SpectralPlan(grid, laplacian)
    rng = np.random.default_rng(d)
    flat = random_field(grid, rng).values
    stack = np.stack([random_field(grid, rng).values for _ in range(3)])
    for x in (flat, stack):
        axes = tuple(range(x.ndim - 1, x.ndim - 1 + d))
        shaped = x.reshape(x.shape[:-1] + grid.shape)
        fwd = np.fft.fftn(shaped, axes=axes).reshape(x.shape)
        assert plan.forward(x).tobytes() == fwd.tobytes()
        inv = np.fft.ifftn(shaped, axes=axes).reshape(x.shape)
        assert plan.inverse(x).tobytes() == inv.tobytes()
        mult = plan.multiplier(0.3)
        step = np.fft.ifftn((mult * fwd).reshape(shaped.shape), axes=axes).reshape(x.shape)
        assert plan.evolve_values(x, 0.3).tobytes() == step.tobytes()


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
    other = random_field(Grid(d=1, n=128, L=32.0), np.random.default_rng(2))
    with pytest.raises(GridMismatch):
        duhamel_convolution(PLAN, [0.0], other.values[None], 0.1)
    with pytest.raises(GridMismatch):
        stochastic_convolution(PLAN, [0.0, 0.1], np.stack([other.values] * 2)[:, None], np.zeros((1, 1, 1)), 0.1)


def test_duhamel_zero_forcing():
    out = duhamel_convolution(PLAN, [0.0, 0.5, 1.0], np.zeros((3, GRID.size)), 1.0)
    assert lp_norm_rows(out, 2, GRID) == 0.0


def test_duhamel_single_step():
    rng = np.random.default_rng(3)
    f0 = random_field(GRID, rng)
    t = 0.25
    out = duhamel_convolution(PLAN, [0.0], f0.values[None], t)
    expected = free_evolve(f0, t).values * t
    assert np.max(np.abs(out - expected)) < 1e-12


def test_duhamel_rejects_malformed_forcing():
    with pytest.raises(LengthMismatch):
        duhamel_convolution(PLAN, [0.0, 0.5], np.zeros((3, GRID.size)), 1.0)
    with pytest.raises(EmptyTrajectory):
        duhamel_convolution(PLAN, [], np.zeros((0, GRID.size)), 1.0)
    with pytest.raises(OutOfRange):  # NaN precedes no sample: not a zero sum
        duhamel_convolution(PLAN, [0.0, 0.5], np.ones((2, GRID.size)), math.nan)


def test_duhamel_semigroup_forcing():
    """Forcing f(s) = U(s) g gives exactly t * U(t) g under left sums,
    because U(t - s) U(s) = U(t) holds mode by mode."""
    rng = np.random.default_rng(4)
    g0 = random_field(GRID, rng, unit_l2=True)
    times = np.linspace(0.0, 1.0, 33)
    forcing = np.stack([free_evolve(g0, float(s)).values for s in times])
    t = 1.0
    out = duhamel_convolution(PLAN, times, forcing, t)
    expected = t * free_evolve(g0, t).values
    assert lp_norm_rows(out - expected, 2, GRID) < 1e-11


def test_duhamel_time_derivative_consistency():
    """d/dt of the convolution approximates i Lap(conv) + f(t) to O(dt)."""
    g = Grid(d=1, n=256, L=16.0)
    f0 = gaussian_field(g, 1.0, 1.5)
    dt = 1e-3
    times = np.arange(0.0, 1.0 + dt / 2, dt)
    forcing = np.stack([free_evolve(f0, float(0.3 * s)).values for s in times])  # smooth forcing
    t = 0.5
    plan = get_plan(g)
    conv_plus = duhamel_convolution(plan, times, forcing, t + dt)
    conv_at = duhamel_convolution(plan, times, forcing, t)
    lhs = (conv_plus - conv_at) / dt
    lap = plan.inverse(-plan.wavenumber_squares.reshape(-1) * plan.forward(conv_at))
    f_at = forcing[int(round(t / dt))]
    rhs = 1j * lap + f_at
    err = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2) * g.cell_volume)
    assert err < 50 * dt


def test_stochastic_convolution_zero_increments():
    mesh = np.linspace(0.0, 1.0, 9)
    fields = np.ones((9, 1, GRID.size), dtype=complex)
    out = stochastic_convolution(PLAN, mesh, fields, np.zeros((2, 1, 8)), 1.0)
    assert out.shape == (2, GRID.size)
    assert np.all(lp_norm_rows(out, 2, GRID) == 0.0)
    no_modes = stochastic_convolution(PLAN, mesh, fields[:, :0], np.zeros((2, 0, 8)), 1.0)
    assert no_modes.shape == (2, GRID.size) and not no_modes.any()


def test_stochastic_convolution_single_mode_single_step():
    rng = np.random.default_rng(5)
    phi0 = random_field(GRID, rng)
    mesh = np.array([0.0, 0.5])
    fields = phi0.values[None, None, :].repeat(2, axis=0)
    path = sample_brownian_path(mesh, 1, 7, 0)
    (out,) = stochastic_convolution(PLAN, mesh, fields, path.increments[None], 0.5)
    expected = free_evolve(phi0, 0.5).values * path.increments[0, 0]
    assert np.max(np.abs(out - expected)) < 1e-13


def test_stochastic_convolution_scalar_reduction():
    """With the Laplacian disabled the sum collapses to g * beta(t), for
    every path of a stack."""
    plan = SpectralPlan(GRID, laplacian_enabled=False)
    rng = np.random.default_rng(6)
    g0 = random_field(GRID, rng)
    mesh = np.linspace(0.0, 1.0, 65)
    fields = np.broadcast_to(g0.values, (65, 1, GRID.size))
    increments = np.stack([sample_brownian_path(mesh, 1, 11, pi).increments for pi in (3, 4)])
    out = stochastic_convolution(plan, mesh, fields, increments, 1.0)
    beta_T = np.sum(increments[:, 0], axis=-1)
    assert np.max(np.abs(out - g0.values * beta_T[:, None])) < 1e-13


def test_stochastic_convolution_linearity():
    rng = np.random.default_rng(7)
    g0 = random_field(GRID, rng)
    mesh = np.linspace(0.0, 1.0, 17)
    fields = np.broadcast_to(g0.values, (17, 2, GRID.size)).copy()
    increments = sample_brownian_path(mesh, 2, 13, 0).increments[None]
    out1 = stochastic_convolution(PLAN, mesh, fields, increments, 1.0)
    out2 = stochastic_convolution(PLAN, mesh, fields, 2.0 * increments, 1.0)
    assert np.max(np.abs(out2 - 2.0 * out1)) < 1e-12

    out3 = stochastic_convolution(PLAN, mesh, 0.5 * fields, increments, 1.0)
    assert np.max(np.abs(out3 - 0.5 * out1)) < 1e-12


def test_stochastic_convolution_mesh_mismatch():
    mesh = np.linspace(0.0, 1.0, 9)
    fields = np.ones((9, 1, GRID.size), dtype=complex)
    increments = sample_brownian_path(np.linspace(0.0, 1.0, 17), 1, 0, 0).increments[None]
    with pytest.raises(MeshMismatch):
        stochastic_convolution(PLAN, mesh, fields, increments, 1.0)
    with pytest.raises(MeshMismatch):
        stochastic_convolution(PLAN, np.linspace(0.0, 1.0, 17), fields, increments, 1.0)
    with pytest.raises(OutOfRange):  # NaN precedes no mesh point: not a zero sum
        stochastic_convolution(PLAN, np.linspace(0.0, 1.0, 17), fields[:1].repeat(17, axis=0), increments, math.nan)


def test_stochastic_convolution_rows_are_their_solo_sums():
    """A path's row of a stack equals the sum for that path alone, bitwise."""
    rng = np.random.default_rng(8)
    mesh = np.linspace(0.0, 1.0, 17)
    fields = np.stack([np.stack([random_field(GRID, rng).values for _ in range(3)]) for _ in mesh])
    increments = np.stack([sample_brownian_path(mesh, 3, 19, pi).increments for pi in range(4)])
    stack = stochastic_convolution(PLAN, mesh, fields, increments, 0.7)
    for p in range(4):
        (solo,) = stochastic_convolution(PLAN, mesh, fields, increments[p : p + 1], 0.7)
        assert stack[p].tobytes() == solo.tobytes()


def test_estimate_strichartz_plane_wave_exact():
    """One plane wave: the free evolution has constant modulus, so the
    discrete L^q(0,T;L^p) norm is ||x||_p T^(1/q)."""
    g = Grid(d=1, n=64, L=2 * np.pi)
    pair = strichartz_pair(4, 1)
    x = plane_wave_field(g, [2], 1.0)
    x = x.scaled(1.0 / lp_norm(x, 2))
    mesh = np.linspace(0.0, 1.0, 65)
    norm = free_strichartz_norm(get_plan(g), x.values, pair, mesh)
    assert norm == pytest.approx(lp_norm(x, float(pair.p)) * 1.0 ** (1 / float(pair.q)), rel=1e-12)


def test_estimate_strichartz_monotone_in_samples():
    pair = strichartz_pair(4, 1)
    plan = get_plan(Grid(d=1, n=128, L=32.0))
    vals = [estimate_strichartz_constant(plan, s, pair, 1.0, seed=42) for s in (1, 3, 10)]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[2] < 10.0
