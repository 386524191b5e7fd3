"""Grids, fields, discrete norms and trajectory bookkeeping."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snls.errors import GridMismatch, OutOfRange, SnlsError
from snls.exponents import ModelParams, bootstrap_exponents, z_exponents
from snls.grid_field import (
    ComplexField,
    Grid,
    Trajectory,
    constant_field,
    fill_accumulators,
    field_from_bytes,
    field_to_bytes,
    gaussian_field,
    lp_norm,
    mass_outside_central_halfbox,
    plane_wave_field,
    random_field,
    trajectory_csv_lines,
)

from reference import bochner_norm, zero_field

GRID = Grid(d=1, n=64, L=8.0)
PARAMS = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3, 2), lam=1)
ZX = z_exponents(PARAMS)


def test_grid_validation():
    with pytest.raises(OutOfRange):
        Grid(d=4, n=8, L=1.0)
    with pytest.raises(OutOfRange):
        Grid(d=1, n=48, L=1.0)  # not a power of two
    with pytest.raises(OutOfRange):
        Grid(d=1, n=8, L=-1.0)
    g = Grid(d=2, n=16, L=4.0)
    assert g.size == 256 and g.h == 0.25 and g.cell_volume == 0.0625
    # d and n are ints and L a real number, none of them a bool: no float
    # size, and no bare TypeError
    for kw in (dict(d=2.0), dict(d=True), dict(n=4.0), dict(n=np.int64(4)), dict(L="1"), dict(L=True)):
        with pytest.raises(OutOfRange):
            Grid(**dict(dict(d=2, n=4, L=1.0), **kw))
    g = Grid(d=2, n=4, L=1)
    assert g.L == 1.0 and type(g.L) is float and type(g.size) is int


def test_wavenumbers_match_fft_convention():
    g = Grid(d=1, n=8, L=2 * np.pi)
    ksq = g.wavenumbers_squared()
    assert ksq.shape == (8,)
    # modes 0, 1, 2, 3, -4, -3, -2, -1 at spacing 2 pi / L = 1
    assert np.allclose(np.sort(ksq), np.sort(np.array([0, 1, 2, 3, 4, 1, 2, 3], float) ** 2))


def test_field_requires_finite_values():
    bad = np.ones(GRID.size, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(SnlsError):
        ComplexField(GRID, bad)
    with pytest.raises(GridMismatch):
        ComplexField(GRID, np.ones(5, dtype=complex))


def test_field_values_frozen_and_copied():
    src = np.ones(GRID.size, dtype=complex)
    f = ComplexField(GRID, src)
    src[0] = 7.0  # must not leak into the field
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_lp_norm_constant_field():
    # constant |c| on the box: ||f||_p = |c| * L^(1/p)
    f = constant_field(GRID, 2.0 - 1.0j)
    c = abs(2.0 - 1.0j)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(f, p) == pytest.approx(c * GRID.L ** (1.0 / p), rel=1e-13)
    assert lp_norm(f, math.inf) == pytest.approx(c, rel=1e-14)
    assert lp_norm(zero_field(GRID), 2.0) == 0.0
    for p in (0.5, math.nan):
        with pytest.raises(OutOfRange):
            lp_norm(f, p)


def test_lp_norm_matches_naive_summation():
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = random_field(GRID, rng)
        naive = math.sqrt(sum(abs(z) ** 2 * GRID.h for z in f.values))
        assert lp_norm(f, 2) == pytest.approx(naive, rel=1e-13)


def test_parseval_consistency():
    """||f||_2 equals the l2 norm of the DFT coefficients times sqrt(h^d / n^d)."""
    rng = np.random.default_rng(2)
    scale = math.sqrt(GRID.cell_volume / GRID.size)
    for _ in range(100):
        f = random_field(GRID, rng)
        coeffs = np.fft.fftn(f.values.reshape(f.grid.shape))
        assert lp_norm(f, 2) == pytest.approx(np.linalg.norm(coeffs) * scale, rel=1e-12)


def test_mass_outside_central_halfbox():
    rng = np.random.default_rng(4)
    for grid in (GRID, Grid(d=2, n=32, L=16.0), Grid(d=3, n=16, L=8.0)):
        narrow = gaussian_field(grid, 1.0, 0.3)
        assert mass_outside_central_halfbox(narrow) < 1e-10
        center = np.zeros(grid.d)
        center[0] = grid.L * 0.3
        shifted = gaussian_field(grid, 1.0, 0.3, center=center)
        assert mass_outside_central_halfbox(shifted) > 0.5
        # reference: the mask rebuilt from the meshgrid on every call
        f = random_field(grid, rng)
        outside = np.zeros(grid.shape, dtype=bool)
        for ax in grid.meshgrid():
            outside |= np.abs(ax) >= 0.25 * grid.L
        a2 = np.abs(f.values.reshape(f.grid.shape)) ** 2
        expected = float(np.sum(a2[outside])) / float(np.sum(a2))
        assert mass_outside_central_halfbox(f) == expected
        assert mass_outside_central_halfbox(f) == expected  # cached mask


def test_bochner_norm_single_step_constant():
    f = constant_field(GRID, 1.0 + 0j)
    traj = Trajectory.from_states([0.0, 2.0], [f, f], ZX)
    # constant state: ||u||_{L^q(0,t;L^p)} = ||u||_p * t^(1/q)
    got = bochner_norm(traj, 4.0, 2.0, 2.0)
    assert got == pytest.approx(lp_norm(f, 2) * 2.0 ** 0.25, rel=1e-13)
    for t_end in (math.nan, 2.5):
        with pytest.raises(OutOfRange):
            bochner_norm(traj, 4.0, 2.0, t_end)


def test_bochner_norm_piecewise_hand_quadrature():
    # states with L^p norms 1 on [0,1) and 2 on [1,2): ((1^q + 2^q))^(1/q)
    c = GRID.L ** -0.5  # unit L^2 norm constant field
    u1 = constant_field(GRID, c)
    u2 = constant_field(GRID, 2 * c)
    traj = Trajectory.from_states([0.0, 1.0, 2.0], [u1, u2, u2], ZX)
    q = 3.0
    assert bochner_norm(traj, q, 2.0, 2.0) == pytest.approx((1 + 2**q) ** (1 / q), rel=1e-13)


def test_bochner_norm_sup_in_time():
    c = GRID.L ** -0.5
    traj = Trajectory.from_states(
        [0.0, 0.5, 1.0],
        [constant_field(GRID, c), constant_field(GRID, 3 * c), constant_field(GRID, 2 * c)],
        ZX,
    )
    assert bochner_norm(traj, math.inf, 2.0, 1.0) == pytest.approx(3.0, rel=1e-13)
    # left convention: at t = 0.5 only the first state counts
    assert bochner_norm(traj, math.inf, 2.0, 0.5) == pytest.approx(1.0, rel=1e-13)


def test_z_process_zero_at_origin_and_matches_bochner():
    rng = np.random.default_rng(3)
    states = [random_field(GRID, rng) for _ in range(6)]
    times = [0.0, 0.2, 0.5, 0.6, 1.1, 1.4]
    traj = Trajectory.from_states(times, states, ZX)
    assert sum(traj.z_components_at(0.0)) == 0.0
    for t in (0.2, 0.6, 1.4):
        expected = bochner_norm(traj, float(ZX.q), float(ZX.p1), t) + bochner_norm(
            traj, float(ZX.q_tilde), float(ZX.p2), t
        )
        assert sum(traj.z_components_at(t)) == pytest.approx(expected, rel=1e-12)


def test_z_process_gamma_one_uses_running_sup():
    params1 = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1)
    zx1 = z_exponents(params1)
    rng = np.random.default_rng(4)
    states = [random_field(GRID, rng) for _ in range(4)]
    traj = Trajectory.from_states([0.0, 0.5, 1.0, 1.5], states, zx1)
    expected = bochner_norm(traj, float(zx1.q), float(zx1.p1), 1.5) + bochner_norm(
        traj, math.inf, 2.0, 1.5
    )
    assert sum(traj.z_components_at(1.5)) == pytest.approx(expected, rel=1e-12)


def test_z_process_monotone_and_continuous():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n_states = int(rng.integers(3, 8))
        states = [random_field(GRID, rng) for _ in range(n_states)]
        times = np.cumsum(rng.uniform(0.05, 0.5, size=n_states))
        times -= times[0]
        traj = Trajectory.from_states(times, states, ZX)
        zs = [sum(traj.z_components_at(t)) for t in traj.times]  # Z exists at recorded times only
        assert all(b >= a - 1e-12 for a, b in zip(zs, zs[1:]))


def test_z_components_at_reads_only_inside_the_record():
    """Z is read at the recorded times (1e-12 slack) and nowhere else: no
    extrapolation past the last state, no interpolation between samples,
    and NaN is out of range too."""
    rng = np.random.default_rng(11)
    traj = Trajectory.from_states([0.0, 0.25, 0.5], [random_field(GRID, rng) for _ in range(3)], ZX)
    end = traj.z_components_at(traj.times[-1])
    assert traj.z_components_at(traj.times[-1] + 1e-13) == end
    assert traj.z_components_at(0.25 - 1e-13) == traj.z_components_at(0.25)
    for t in (traj.times[-1] + 0.25, math.nan, -0.25, 0.125):
        with pytest.raises(OutOfRange):
            traj.z_components_at(t)


def test_discrete_interpolation_inequality():
    """||u||_{Lqt L2g}^qt <= (sup ||u||_2)^(qt (1-th)) ||u||_{Lq Lp1}^(qt th)."""
    rng = np.random.default_rng(6)
    th = float(bootstrap_exponents(PARAMS).theta_interp)
    qt = float(ZX.q_tilde)
    q = float(ZX.q)
    for _ in range(100):
        n_states = int(rng.integers(3, 9))
        states = [random_field(GRID, rng) for _ in range(n_states)]
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=n_states - 1))])
        traj = Trajectory.from_states(times, states, ZX)
        t_end = float(times[-1])
        lhs = bochner_norm(traj, qt, float(ZX.p2), t_end) ** qt
        sup_mass = max(lp_norm(s, 2) for s in states[:-1])
        rhs = sup_mass ** (qt * (1 - th)) * bochner_norm(traj, q, float(ZX.p1), t_end) ** (qt * th)
        assert lhs <= rhs * (1 + 1e-12)


def test_trajectory_times_must_increase():
    f = zero_field(GRID)
    with pytest.raises(OutOfRange):
        Trajectory.from_states([0.0, 0.0], [f, f], ZX)
    with pytest.raises(OutOfRange):
        Trajectory.from_states([0.0, 1.0, 0.5], [f, f, f], ZX)
    with pytest.raises(OutOfRange):
        Trajectory.from_states([0.0, math.nan, 1.0], [f, f, f], ZX)
    with pytest.raises(GridMismatch):
        Trajectory.from_states([0.0, 1.0], [f, zero_field(Grid(d=1, n=32, L=8.0))], ZX)


def test_field_serialization_roundtrip():
    rng = np.random.default_rng(7)
    for g in (GRID, Grid(d=2, n=8, L=3.0)):
        f = random_field(g, rng)
        blob = field_to_bytes(f)
        assert len(blob) == 24 + 16 * g.size
        back = field_from_bytes(blob)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)


def test_serialization_header_layout():
    f = constant_field(Grid(d=1, n=2, L=1.0), 1.0 + 2.0j)
    blob = field_to_bytes(f)
    assert int.from_bytes(blob[0:8], "little") == 1
    assert int.from_bytes(blob[8:16], "little") == 2
    assert np.frombuffer(blob, dtype="<f8", offset=16, count=1)[0] == 1.0
    re0, im0 = np.frombuffer(blob, dtype="<f8", offset=24, count=2)
    assert (re0, im0) == (1.0, 2.0)


def test_trajectory_csv_layout():
    f = gaussian_field(GRID, 1.0, 1.0)
    traj = Trajectory.from_states([0.0, 1.0], [f, f], ZX)
    lines = list(trajectory_csv_lines(traj))
    assert lines[0] == "t,mass,z_component_1,z_component_2,z_total"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and float(row[4]) == 0.0


def test_trajectory_csv_columns_match_pointwise_lookups():
    """The one-pass export gives, row for row, the text of a
    `z_components_at` lookup at each recorded time."""
    rng = np.random.default_rng(8)
    for zexp in (ZX, z_exponents(ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1))):
        states = [random_field(GRID, rng) for _ in range(7)]
        traj = Trajectory.from_states(np.cumsum(rng.uniform(0.05, 0.4, size=7)) - 0.05, states, zexp)
        lines = list(trajectory_csv_lines(traj))[1:]
        assert len(lines) == len(traj.times)
        for j, line in enumerate(lines):
            t = float(traj.times[j])
            c1, c2 = traj.z_components_at(t)
            assert line == f"{t!r},{float(traj.running_mass[j])!r},{c1!r},{c2!r},{(c1 + c2)!r}"


def test_plane_wave_field_is_single_mode():
    g = Grid(d=1, n=32, L=4.0)
    f = plane_wave_field(g, [3], 2.0)
    coeffs = np.fft.fft(f.values)
    mags = np.abs(coeffs)
    assert np.argmax(mags) == 3
    mags[3] = 0.0
    assert np.max(mags) < 1e-10 * g.n


_NORMS = st.one_of(
    st.sampled_from([0.0, math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=100.0),
)


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
    data=st.data(),
    rows=st.integers(1, 3),
    m=st.integers(0, 12),
)
def test_fill_accumulators_is_the_scalar_left_fold(gamma, data, rows, m):
    """`fill_accumulators` on a (m + 1, rows) block equals, bitwise, adding
    ||u(t_j)||^q dt_j (or taking the running max when qt = inf) one step at
    a time from a nonzero start, as a window that continues a prefix does;
    norms include 0, inf and NaN, and the step lengths are not uniform."""
    zexp = z_exponents(ModelParams(d=1, alpha=Fraction(3), gamma=gamma, lam=1))
    q, qt = zexp.powers

    def draw(values, size):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

    n1, n2 = draw(_NORMS, m * rows).reshape(m, rows), draw(_NORMS, m * rows).reshape(m, rows)
    dt = draw(st.floats(1e-6, 1.0), m)[:, None]
    start = draw(st.floats(1e-3, 1e3), 2 * rows)
    acc1, acc2 = np.empty((m + 1, rows)), np.empty((m + 1, rows))
    acc1[0], acc2[0] = start[:rows], start[rows:]
    fill_accumulators(acc1, acc2, n1, n2, dt, zexp)
    for r in range(rows):
        a1, a2 = np.float64(start[r]), np.float64(start[rows + r])
        fold1, fold2 = [a1], [a2]
        for j in range(m):
            a1 = a1 + np.power(n1[j, r], q) * dt[j, 0]
            a2 = a2 + np.power(n2[j, r], qt) * dt[j, 0] if zexp.q_tilde_finite else np.maximum(a2, n2[j, r])
            fold1.append(a1)
            fold2.append(a2)
        assert acc1[:, r].tobytes() == np.array(fold1).tobytes()
        assert acc2[:, r].tobytes() == np.array(fold2).tobytes()


def test_gaussian_field_refuses_a_nan_width():
    with pytest.raises(OutOfRange, match="width"):
        gaussian_field(GRID, 1.0, math.nan)
