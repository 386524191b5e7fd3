"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every criterion is property-based and runs at desk scale with fixed seeds;
tolerances are pinned here, not calibrated elsewhere.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from snls.errors import SolverError
from snls.exponents import (
    ModelParams,
    bootstrap_exponents,
    z_exponents,
)
from snls.grid_field import Grid, Trajectory, lp_norm, random_field
from snls.montecarlo import chebyshev_consistency, truncation_uniformity_study
from snls.noise import sample_brownian_path
from snls.solver import SimConfig, path_coincidence_check, solve_paths
from snls.verify import (
    cutoff_lipschitz_ok,
    dispersive_decay,
    exponent_identities,
    mass_drift,
    oracle_sde_orders,
    propagator_residuals,
    running_masses,
    window_chaining_gap,
)

from reference import bochner_norm, coarsen_path, state_at


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    line = f"{'PASS' if ok and elapsed < budget else 'FAIL'} {name}: {detail} [{elapsed:.1f}s < {budget:.0f}s]"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_exponent_algebra():
    """Scaling identity exact on the (d, alpha) grid; pairs coincide at the
    critical power."""
    t0 = time.monotonic()
    scaling_ok, critical_ok, points = exponent_identities()
    ok = scaling_ok and critical_ok
    _report("criterion-1-exponents", ok, f"exact rational identity on {points} grid points", time.monotonic() - t0, 1.0)


def test_criterion_2_propagator():
    """Unitarity and group-law residuals < 1e-12 on 1000 random fields
    (d=1, n=512); free-Gaussian sup-norm decay slope in [-0.55, -0.45]."""
    t0 = time.monotonic()
    worst_u, worst_g, _ = propagator_residuals(1000, seed=2024, t_max=2.0)
    slope, leak = dispersive_decay()
    ok = worst_u < 1e-12 and worst_g < 1e-12 and -0.55 <= slope <= -0.45 and leak < 1e-8
    _report(
        "criterion-2-propagator",
        ok,
        f"unitarity {worst_u:.2e}, group-law {worst_g:.2e}, decay slope {slope:.3f}",
        time.monotonic() - t0,
        30.0,
    )


def test_criterion_3_sde_oracle():
    """Euler-Maruyama converges strongly to the exact diffusion-only flow
    with fitted order 0.5 +- 0.1 over dt in {2^-6..2^-10} T, 100 paths,
    gamma in {1, 2}."""
    t0 = time.monotonic()
    slopes = oracle_sde_orders(100)
    ok = all(0.4 <= slope <= 0.6 for slope in slopes.values())
    _report(
        "criterion-3-sde-oracle",
        ok,
        f"strong orders gamma=1: {slopes[1.0]:.3f}, gamma=2: {slopes[2.0]:.3f}",
        time.monotonic() - t0,
        120.0,
    )


def _mass_cfg(gamma: Fraction, dt: float, scheme: str) -> SimConfig:
    return SimConfig(
        params=ModelParams(d=1, alpha=Fraction(3), gamma=gamma, lam=1),
        grid=Grid(d=1, n=128, L=32.0),
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.5, "width": 3.0}]},
        ic_spec={"kind": "gaussian_bump", "amplitude": 1.0, "width": 2.0},
        T=1.0,
        dt=dt,
        scheme=scheme,
        seed=4,
    )


def test_criterion_4_mass_law():
    """Split-step conserves discrete mass to < 1e-10 relative over 1e3
    steps on 20 paths (gamma 1 and 3/2); the Picard sup-mass overshoot
    above ||u0||_2 shrinks at measured order >= 0.5 under dt-halving."""
    t0 = time.monotonic()
    worst_drift = max(
        mass_drift(_mass_cfg(gamma, 1.0 / 1000.0, "splitstep"), 20) for gamma in (Fraction(1), Fraction(3, 2))
    )
    drift_ok = worst_drift < 1e-10

    fine = 512
    fine_mesh = np.linspace(0.0, 1.0, fine + 1)
    overshoots = []
    steps_list = (64, 128, 256, 512)
    for steps in steps_list:
        # weak noise so the deterministic quadrature error sets the rate;
        # the stochastic contribution alone would sit exactly at order 1/2
        cfg = replace(
            _mass_cfg(Fraction(1), 1.0 / steps, "picard"),
            noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.1, "width": 3.0}]},
        )
        paths = [
            coarsen_path(sample_brownian_path(fine_mesh, cfg.model.total_modes, 5, pi), fine // steps)
            for pi in range(16)
        ]
        per_path = [max(0.0, float(m.max() / m[0]) - 1.0) for m in running_masses(cfg, paths)]
        overshoots.append(float(np.mean(per_path)))
    if max(overshoots) < 1e-12:
        order = math.inf  # no overshoot at all: the inequality holds outright
    else:
        order = float(np.polyfit(np.log2([1.0 / s for s in steps_list]), np.log2(overshoots), 1)[0])
    ok = drift_ok and order >= 0.5
    _report(
        "criterion-4-mass-law",
        ok,
        f"max split-step drift {worst_drift:.2e}, overshoot order {order:.3f}",
        time.monotonic() - t0,
        180.0,
    )


def test_criterion_5_cross_validation():
    """Picard (cutoff inactive) vs split-step on identical increments:
    path-averaged relative L2 gap at T decreases at order >= 0.5 over four
    dt levels."""
    t0 = time.monotonic()
    params = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1)
    grid = Grid(d=1, n=256, L=32.0)
    base = dict(
        params=params,
        grid=grid,
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.2, "width": 3.0}]},
        ic_spec={"kind": "gaussian_bump", "amplitude": 1.0, "width": 2.0},
        T=1.0,
        seed=3,
    )
    steps_list = (32, 64, 128, 256)
    fine = steps_list[-1]
    fine_paths = [sample_brownian_path(np.linspace(0.0, 1.0, fine + 1), 1, 3, pi) for pi in range(12)]
    means = []
    for steps in steps_list:
        paths = [coarsen_path(p, fine // steps) for p in fine_paths]
        ss, pic = (SimConfig(**base, dt=1.0 / steps, scheme=scheme) for scheme in ("splitstep", "picard"))
        gaps = []
        for rep_ss, rep_pic in zip(*(solve_paths(c, paths, keep_states=True) for c in (ss, pic))):
            for rep in (rep_ss, rep_pic):
                if isinstance(rep, SolverError):
                    raise rep
            a = state_at(rep_ss.trajectory, -1)
            b = state_at(rep_pic.trajectory, -1)
            gaps.append(lp_norm(a - b, 2) / lp_norm(a, 2))
        means.append(float(np.mean(gaps)))
    order = float(np.polyfit(np.log2([1.0 / s for s in steps_list]), np.log2(means), 1)[0])
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ok = order >= 0.5 and decreasing
    _report(
        "criterion-5-cross-validation",
        ok,
        f"mean gaps {['%.2e' % g for g in means]}, order {order:.3f}",
        time.monotonic() - t0,
        300.0,
    )


def test_criterion_6_localization():
    """Picard runs at cutoff levels (n, 2n) on the same path coincide up to
    tau_n within 1e-7, on 20 paths."""
    t0 = time.monotonic()
    cfg = SimConfig(
        params=ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1),
        grid=Grid(d=1, n=128, L=32.0),
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.5, "width": 3.0}]},
        ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0},
        T=1.0,
        dt=1.0 / 64.0,
        scheme="picard",
        seed=42,
    )
    paths = [sample_brownian_path(cfg.mesh(), cfg.model.total_modes, cfg.seed, pi) for pi in range(20)]
    gaps, taus = path_coincidence_check(cfg, paths, (3.5, 7.0))
    worst = max(gaps)
    interior_taus = sum(0.0 < tau < cfg.T for tau in taus)
    ok = worst <= 1e-7 and interior_taus > 0
    _report(
        "criterion-6-localization",
        ok,
        f"max discrepancy {worst:.2e} <= 1e-07; {interior_taus}/20 paths stop inside (0, T)",
        time.monotonic() - t0,
        120.0,
    )


def test_criterion_7_global_existence_shadow():
    """Defocusing d=1, alpha=2, gamma=1, conservative noise, 200 paths:
    P(tau_n = T) non-decreasing over n in {4, 8, 16}, >= 0.95 at n = 16;
    the Markov/Chebyshev consistency check passes."""
    t0 = time.monotonic()
    cfg = SimConfig(
        params=ModelParams(d=1, alpha=Fraction(2), gamma=Fraction(1), lam=1),
        grid=Grid(d=1, n=128, L=32.0),
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.4, "width": 3.0}]},
        ic_spec={"kind": "gaussian_bump", "amplitude": 1.2, "width": 2.0},
        T=1.0,
        dt=1.0 / 64.0,
        scheme="picard",
        seed=2024,
    )
    study = truncation_uniformity_study(cfg, [4.0, 8.0, 16.0], 200, seed=2024)
    freqs = [s.tau_equals_T_frequency for s in study.summaries]
    monotone = all(b >= a for a, b in zip(freqs, freqs[1:]))
    cheb = chebyshev_consistency(study.summaries[-1], [4.0, 8.0, 16.0])
    cheb_ok = bool(cheb) and all(r["ok"] for r in cheb)
    no_failures = all(s.n_failed == 0 for s in study.summaries)
    ok = monotone and freqs[-1] >= 0.95 and cheb_ok and no_failures
    _report(
        "criterion-7-global-existence",
        ok,
        f"frequencies {['%.3f' % f for f in freqs]} over n=4,8,16; chebyshev ok={cheb_ok}",
        time.monotonic() - t0,
        600.0,
    )


def test_criterion_8_truncation_machinery():
    """Cutoff Lipschitz bound holds on 1e4 random pairs; the two-window
    chaining identity matches the concatenated-trajectory oracle to 1e-12
    on 50 cases."""
    t0 = time.monotonic()
    lip_ok = cutoff_lipschitz_ok(88, level_lo=0.05, span=3.5)
    worst = window_chaining_gap(900)
    ok = lip_ok and worst < 1e-12
    _report(
        "criterion-8-truncation",
        ok,
        f"lipschitz ok={lip_ok}, chaining max relative gap {worst:.2e}",
        time.monotonic() - t0,
        10.0,
    )


def test_criterion_9_discrete_interpolation():
    """The discrete Lyapunov/Hoelder chain holds with zero violations on
    100 random trajectories:
    ||u||_{Lqt L2g}^qt <= (sup_s ||u||_2)^(qt(1-th)) ||u||_{Lq Lp1}^(qt th)."""
    t0 = time.monotonic()
    grid = Grid(d=1, n=64, L=8.0)
    rng = np.random.default_rng(9)
    violations = 0
    cases = 0
    for _ in range(100):
        d_alpha = int(rng.integers(9, 33))  # alpha in (1, 5] on a 1/8 grid
        alpha = Fraction(d_alpha, 8)
        hi = min(Fraction(3), (alpha + 1) / 2)  # gamma <= 1 + 2/d and 2g <= a+1
        if hi <= 1:
            continue
        gamma = 1 + (hi - 1) * Fraction(int(rng.integers(1, 9)), 9)
        params = ModelParams(d=1, alpha=alpha, gamma=gamma, lam=1)
        zx = z_exponents(params)
        th = float(bootstrap_exponents(params).theta_interp)
        qt = float(zx.q_tilde)
        n_states = int(rng.integers(3, 9))
        states = [random_field(grid, rng) for _ in range(n_states)]
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, size=n_states - 1))])
        traj = Trajectory.from_states(times, states, zx)
        t_end = float(times[-1])
        lhs = bochner_norm(traj, qt, float(zx.p2), t_end) ** qt
        sup_mass = max(lp_norm(s, 2) for s in states[:-1])
        rhs = sup_mass ** (qt * (1 - th)) * bochner_norm(traj, float(zx.q), float(zx.p1), t_end) ** (qt * th)
        cases += 1
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    ok = violations == 0 and cases >= 90
    _report(
        "criterion-9-interpolation",
        ok,
        f"{violations} violations on {cases} random trajectories",
        time.monotonic() - t0,
        10.0,
    )
