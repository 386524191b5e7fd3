"""Cutoff, window chaining of the running norm, stopping-time detector."""

import math
from fractions import Fraction

import numpy as np
import pytest

from snls.dynamics import cutoff, detect_stopping_time, theta
from snls.errors import OutOfRange
from snls.exponents import ModelParams, z_exponents
from snls.grid_field import Grid, Trajectory, random_field

from reference import zero_field

GRID = Grid(d=1, n=32, L=8.0)
PARAMS = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3, 2), lam=1)
ZX = z_exponents(PARAMS)


def random_trajectory(rng, n_states=6):
    states = [random_field(GRID, rng) for _ in range(n_states)]
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=n_states - 1))])
    return Trajectory.from_states(times, states, ZX)


def test_theta_breakpoints_and_support():
    level = 2.0
    assert theta(0.0, level) == 1.0
    assert theta(level, level) == 1.0
    assert theta(1.5 * level, level) == 0.5
    assert theta(2 * level, level) == 0.0
    assert theta(5 * level, level) == 0.0
    assert theta(1.0, math.inf) == 1.0


def test_theta_lipschitz_randomized():
    rng = np.random.default_rng(3)
    for _ in range(10**4):
        level = float(rng.uniform(0.05, 20.0))
        x, y = rng.uniform(0.0, 4.0 * level, size=2)
        assert abs(theta(x, level) - theta(y, level)) <= abs(x - y) / level + 1e-15
        # scalar and array inputs take different code paths with the same arithmetic
        assert theta(x, level) == theta(np.array([x]), level)[0]


def test_theta_takes_a_level_per_row():
    """A level array that broadcasts against x gives, element by element,
    bitwise the scalar-level call; an infinite level gives exactly 1.0 even
    at Z = inf or NaN, as the scalar call does; any level <= 0 raises."""
    rng = np.random.default_rng(11)
    levels = np.array([0.05, 0.7, 2.0, 13.0, math.inf])
    x = rng.uniform(0.0, 30.0, size=(5, 40))
    x[:, :3] = [0.0, math.inf, math.nan]
    x[:, 3:5] = levels[:, None] * [1.0, 2.0]
    got = theta(x, levels[:, None])
    assert got.shape == x.shape
    for r, level in enumerate(levels):
        row = theta(x[r], level)
        assert got[r].tobytes() == row.tobytes()
        assert all(np.array_equal(theta(v, level), got[r, j], equal_nan=True) for j, v in enumerate(x[r]))
    assert np.all(got[-1] == 1.0) and theta(math.inf, math.inf) == theta(math.nan, math.inf) == 1.0
    assert np.all(theta(x[-1], math.inf) == 1.0) and np.all(theta(x[-1], np.float64(math.inf)) == 1.0)
    # a level per column broadcasts the other way
    assert theta(x[:4].T, levels[:4]).tobytes() == got[:4].T.copy().tobytes()
    for bad in ([1.0, 0.0], [-1.0, math.inf], [[2.0], [-0.5]]):
        with pytest.raises(OutOfRange):
            theta(np.ones(2), np.array(bad))


def test_cutoff_nonincreasing_along_trajectory():
    rng = np.random.default_rng(5)
    for _ in range(20):
        traj = random_trajectory(rng)
        level = 0.7 * sum(traj.z_components_at(traj.times[-1]))
        c1, c2 = traj.z_columns()
        phis = theta(c1 + c2, level)
        assert np.all(np.diff(phis) <= 1e-12)


def test_window_chaining_matches_concatenation():
    """A window that starts from its head's last accumulators, on its own
    clock from 0, gives the Z and the cutoff of the concatenated trajectory
    (the two-window identity), on 50 random cases."""
    rng = np.random.default_rng(6)
    for zexp in (ZX, z_exponents(ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1))):
        for _ in range(25):
            n_total = int(rng.integers(4, 10))
            split = int(rng.integers(1, n_total))
            states = [random_field(GRID, rng) for _ in range(n_total + 1)]
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, size=n_total))])
            full = Trajectory.from_states(times, states, zexp)
            head = Trajectory.from_states(times[: split + 1], states[: split + 1], zexp)
            window = Trajectory.from_states(
                times[split:] - times[split], states[split:], zexp, acc0=(head.acc1[-1], head.acc2[-1])
            )
            level = max(0.5 * sum(full.z_components_at(float(times[-1]))), 1e-6)
            for j in range(split, n_total + 1):
                z_c = sum(window.z_components_at(float(times[j] - times[split])))
                z_f = sum(full.z_components_at(float(times[j])))
                assert z_c == pytest.approx(z_f, rel=1e-12, abs=1e-12)
                assert theta(z_c, level) == pytest.approx(theta(z_f, level), abs=1e-12)
            assert sum(window.z_components_at(0.0)) == sum(head.z_components_at(head.times[-1]))


def test_detect_stopping_time_zero_solution():
    traj = Trajectory.from_states([0.0, 0.5, 1.0], [zero_field(GRID)] * 3, ZX)
    assert detect_stopping_time(traj.times, np.add(*traj.z_columns()), 1e-6) == 1.0


def test_detect_stopping_time_tiny_level():
    rng = np.random.default_rng(7)
    traj = random_trajectory(rng)
    tau = detect_stopping_time(traj.times, np.add(*traj.z_columns()), 1e-12)
    assert tau == pytest.approx(traj.times[1])


def test_detect_stopping_time_monotone_in_level():
    rng = np.random.default_rng(8)
    for _ in range(100):
        traj = random_trajectory(rng, n_states=int(rng.integers(3, 8)))
        z_end = sum(traj.z_components_at(traj.times[-1]))
        levels = sorted(rng.uniform(0.05 * z_end, 1.5 * z_end, size=4))
        taus = [detect_stopping_time(traj.times, np.add(*traj.z_columns()), lv) for lv in levels]
        assert all(b >= a for a, b in zip(taus, taus[1:]))


def test_detect_stopping_time_matches_pointwise_scan():
    """The vectorised detector equals the scan of `z_components_at` over the
    recorded times: the first time with Z >= level, else the last time."""
    rng = np.random.default_rng(10)
    for _ in range(100):
        traj = random_trajectory(rng, n_states=int(rng.integers(2, 9)))
        z_end = sum(traj.z_components_at(traj.times[-1]))
        level = float(rng.uniform(0.05, 1.5)) * max(z_end, 1e-3)
        expected = float(traj.times[-1])
        for t in traj.times:
            if sum(traj.z_components_at(float(t))) >= level:
                expected = float(t)
                break
        assert detect_stopping_time(traj.times, np.add(*traj.z_columns()), level) == expected


def test_stopping_time_T_implies_phi_one():
    """tau = T means the cutoff never engaged at any mesh time up to T."""
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(50):
        traj = random_trajectory(rng)
        level = 1.2 * sum(traj.z_components_at(traj.times[-1]))
        T = traj.times[-1]
        if detect_stopping_time(traj.times, np.add(*traj.z_columns()), level) == T:
            hits += 1
            c1, c2 = traj.z_columns()
            assert np.all(theta(c1 + c2, level) == 1.0)
    assert hits > 0


def test_theta_refuses_a_nan_level():
    with pytest.raises(OutOfRange):
        theta(1.0, math.nan)


def test_cutoff_refuses_a_nan_level():
    with pytest.raises(OutOfRange):
        cutoff([2.0, math.nan])


def test_stopping_time_refuses_a_nan_level():
    with pytest.raises(OutOfRange):
        detect_stopping_time(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 2.0]), math.nan)
