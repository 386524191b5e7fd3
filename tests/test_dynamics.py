"""Cutoff machinery, power nonlinearity, stopping-time detector."""

import math
from fractions import Fraction

import numpy as np
import pytest

from snls.dynamics import (
    TruncationState,
    ZPrefix,
    chained_z_value,
    detect_stopping_time,
    evaluate_phi,
    evaluate_phi_chained,
    power_nonlinearity,
    theta,
)
from snls.exponents import ModelParams, z_exponents
from snls.grid_field import (
    Grid,
    Trajectory,
    constant_field,
    lp_norm,
    random_field,
    z_process,
    zero_field,
)

GRID = Grid(d=1, n=32, L=8.0)
PARAMS = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3, 2), lam=1)
ZX = z_exponents(PARAMS)


def random_trajectory(rng, n_states=6, zexp=ZX, scale=1.0):
    states = [random_field(GRID, rng).scaled(scale) for _ in range(n_states)]
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=n_states - 1))])
    traj = Trajectory.start(states[0], zexp, 0.0)
    for t, s in zip(times[1:], states[1:]):
        traj.append(float(t), s)
    return traj


def test_power_nonlinearity_identity_and_cube():
    u = random_field(GRID, np.random.default_rng(0))
    assert power_nonlinearity(u, 1) is u
    two = constant_field(GRID, 2.0)
    out = power_nonlinearity(two, 3)
    assert np.max(np.abs(out.values - 8.0)) < 1e-14
    assert lp_norm(power_nonlinearity(zero_field(GRID), Fraction(3, 2)), 2) == 0.0


def test_power_nonlinearity_modulus():
    rng = np.random.default_rng(1)
    for sigma in (1.0, 1.25, 2.0, 3.0):
        u = random_field(GRID, rng)
        out = power_nonlinearity(u, sigma)
        assert np.max(np.abs(np.abs(out.values) - np.abs(u.values) ** sigma)) < 1e-13


def test_power_nonlinearity_local_lipschitz():
    """||G(u) - G(v)||_{(a+1)/a} <= C (||u|| + ||v||)^(s-1) ||u - v||_{a+1}
    with a stable empirical C across 500 random pairs."""
    rng = np.random.default_rng(2)
    alpha = 3.0
    p = alpha + 1.0
    dual = p / alpha
    ratios = []
    for _ in range(500):
        u = random_field(GRID, rng)
        v = random_field(GRID, rng)
        lhs = lp_norm(power_nonlinearity(u, alpha) - power_nonlinearity(v, alpha), dual)
        rhs = (lp_norm(u, p) + lp_norm(v, p)) ** (alpha - 1.0) * lp_norm(u - v, p)
        if rhs > 0:
            ratios.append(lhs / rhs)
    assert max(ratios) < 3.0  # fitted constant stays O(1)


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


def test_evaluate_phi_fresh_trajectory():
    traj = Trajectory.start(zero_field(GRID), ZX)
    trunc = TruncationState(level=1.0)
    assert evaluate_phi(traj, 0.0, trunc, PARAMS) == 1.0
    assert not trunc.active


def test_evaluate_phi_frozen_beyond_support():
    rng = np.random.default_rng(4)
    traj = random_trajectory(rng, scale=20.0)
    level = z_process(traj, traj.t_end) / 3.0
    trunc = TruncationState(level=level)
    phi = evaluate_phi(traj, traj.t_end, trunc, PARAMS)
    assert phi == 0.0 and trunc.active


def test_evaluate_phi_nonincreasing_along_trajectory():
    rng = np.random.default_rng(5)
    for _ in range(20):
        traj = random_trajectory(rng)
        level = 0.7 * z_process(traj, traj.t_end)
        trunc = TruncationState(level=level)
        phis = [evaluate_phi(traj, t, trunc, PARAMS) for t in traj.times]
        assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))


def test_window_chaining_matches_concatenation():
    """Chained accumulation equals the cutoff of the concatenated
    trajectory (the two-window identity), on 50 random cases."""
    rng = np.random.default_rng(6)
    for zexp, params in (
        (ZX, PARAMS),
        (z_exponents(ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1)),
         ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1)),
    ):
        for _ in range(25):
            n_total = int(rng.integers(4, 10))
            split = int(rng.integers(1, n_total))
            states = [random_field(GRID, rng) for _ in range(n_total + 1)]
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, size=n_total))])
            full = Trajectory.start(states[0], zexp)
            for j in range(1, n_total + 1):
                full.append(float(times[j]), states[j])
            head = Trajectory.start(states[0], zexp)
            for j in range(1, split + 1):
                head.append(float(times[j]), states[j])
            prefix = ZPrefix.of(head)
            window = Trajectory.start(states[split], zexp)
            for j in range(split + 1, n_total + 1):
                window.append(float(times[j] - times[split]), states[j])
            level = max(0.5 * z_process(full, float(times[-1])), 1e-6)
            trunc_a = TruncationState(level=level)
            trunc_b = TruncationState(level=level)
            for j in range(split, n_total + 1):
                t_local = float(times[j] - times[split])
                phi_chained = evaluate_phi_chained(prefix, window, t_local, trunc_a)
                phi_full = evaluate_phi(full, float(times[j]), trunc_b, params)
                assert phi_chained == pytest.approx(phi_full, abs=1e-12)
                z_c = chained_z_value(prefix, window, t_local)
                z_f = z_process(full, float(times[j]))
                assert z_c == pytest.approx(z_f, rel=1e-12, abs=1e-12)


def test_detect_stopping_time_zero_solution():
    traj = Trajectory.start(zero_field(GRID), ZX)
    for t in (0.5, 1.0):
        traj.append(t, zero_field(GRID))
    assert detect_stopping_time(traj, 1e-6, 1.0, PARAMS) == 1.0


def test_detect_stopping_time_tiny_level():
    rng = np.random.default_rng(7)
    traj = random_trajectory(rng)
    tau = detect_stopping_time(traj, 1e-12, traj.t_end, PARAMS)
    assert tau == pytest.approx(traj.times[1])


def test_detect_stopping_time_monotone_in_level():
    rng = np.random.default_rng(8)
    for _ in range(100):
        traj = random_trajectory(rng, n_states=int(rng.integers(3, 8)))
        z_end = z_process(traj, traj.t_end)
        levels = sorted(rng.uniform(0.05 * z_end, 1.5 * z_end, size=4))
        taus = [detect_stopping_time(traj, lv, traj.t_end, PARAMS) for lv in levels]
        assert all(b >= a for a, b in zip(taus, taus[1:]))


def test_detect_stopping_time_matches_pointwise_scan():
    """The vectorised detector equals the scan of z_process over the
    recorded times, including T inside the record and T past its end."""
    rng = np.random.default_rng(10)
    for _ in range(100):
        traj = random_trajectory(rng, n_states=int(rng.integers(2, 9)))
        z_end = z_process(traj, traj.t_end)
        level = float(rng.uniform(0.05, 1.5)) * max(z_end, 1e-3)
        T = float(rng.choice([traj.t_end, 0.5 * traj.t_end, 2.0 * traj.t_end]))
        expected = T
        for t in traj.times:
            if t > T + 1e-12:
                break
            if z_process(traj, float(t), PARAMS) >= level:
                expected = float(min(t, T))
                break
        assert detect_stopping_time(traj, level, T, PARAMS) == expected


def test_stopping_time_T_implies_phi_one():
    """tau = T means the cutoff never engaged at any mesh time up to T."""
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(50):
        traj = random_trajectory(rng)
        level = 1.2 * z_process(traj, traj.t_end)
        T = traj.t_end
        if detect_stopping_time(traj, level, T, PARAMS) == T:
            hits += 1
            trunc = TruncationState(level=level)
            for t in traj.times:
                assert evaluate_phi(traj, t, trunc, PARAMS) == 1.0
    assert hits > 0
