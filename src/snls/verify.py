"""Named invariant suites behind the `verify` CLI subcommand.

Every suite runs with fixed seeds and desk-scale sizes and returns a
machine-readable record; a suite passes iff all of its checks pass.
Available suites: unitarity, mass, oracle-sde, strichartz, truncation,
exponents, all.

The oracle and mass suites march their paths as one stack: the
Euler–Maruyama oracle through `noise.euler_maruyama_paths` against
`noise.diffusion_only_exact_paths`, the mass law through
`solver.solve_paths`.  The strichartz suite calls the propagator's
quadratures: `propagator.free_strichartz_norm` for the homogeneous ratios,
`propagator.estimate_strichartz_constant` for the empirical constant and
`propagator.stochastic_convolution` on stacks of its Brownian paths for
the moment ratio.  The checks are coded once, as helpers shared with
the acceptance criteria, which run them with their own seeds, counts and
ranges: `exponent_identities` (criterion 1), `propagator_residuals` and
`dispersive_decay` (criterion 2), `oracle_sde_orders` (criterion 3),
`running_masses` and `mass_drift` (criterion 4), `cutoff_lipschitz_ok` and
`window_chaining_gap` (criterion 8).

The sampling helpers march their samples as stacks of rows, each capped
at `grid_field.CHUNK_STACK_BYTES`, and draw in the one-sample order; a
row-wise FFT is bitwise the FFT of the row alone and the rest is
elementwise, so every record is bitwise what one-sample loops give.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import exponents as xp
from .config import SimConfig
from .dynamics import cutoff, theta
from .errors import ConfigError, SolverError
from .grid_field import (
    ComplexField,
    Grid,
    Trajectory,
    gaussian_field,
    lp_norm,
    lp_norm_rows,
    mass_outside_central_halfbox,
    random_field,
    stack_slices,
)
from .noise import (
    NoiseModel,
    coarsen_increments,
    diffusion_only_exact_paths,
    euler_maruyama_paths,
    make_noise_model,
    sample_brownian_path,
)
from .propagator import (
    estimate_strichartz_constant,
    free_strichartz_norm,
    get_plan,
    stochastic_convolution,
)
from .solver import path_for, solve_paths


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def exponent_identities() -> tuple[bool, bool, int]:
    """(scaling_ok, critical_ok, points): with p = alpha + 1, the q of
    `strichartz_pair` meets 2/q + d/p = d/2 exactly at every point of the
    (d, alpha) grid alpha = 1 + k/8 <= 1 + 4/d, d = 1, 2, 3; and q = alpha + 1
    at the critical power alpha = 1 + 4/d, on the grid and for d = 1..6."""
    grid = [(d, 1 + Fraction(k, 8)) for d in (1, 2, 3) for k in range(1, 32 // d + 1)]
    qs = [xp.strichartz_pair(alpha + 1, d).q for d, alpha in grid]
    scaling_ok = all(2 / q + Fraction(d) / (alpha + 1) == Fraction(d, 2) for (d, alpha), q in zip(grid, qs))
    critical_ok = all(q == alpha + 1 for (d, alpha), q in zip(grid, qs) if alpha == 1 + Fraction(4, d))
    critical_ok &= all(xp.strichartz_q(2 + Fraction(4, d), d) == 2 + Fraction(4, d) for d in range(1, 7))
    return scaling_ok, critical_ok, len(grid)


def suite_exponents() -> list[dict]:
    scaling_ok, critical_ok, _ = exponent_identities()
    checks = [
        _check("scaling-identity-exact", scaling_ok, "2/q + d/p = d/2 on the (d, alpha) grid"),
        _check("critical-pair-coincides", critical_ok, "q = alpha + 1 at alpha = 1 + 4/d, d = 1..6"),
    ]

    bound_ok = True
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        d = int(rng.integers(1, 4))
        num = int(rng.integers(1, 64))
        alpha = 1 + Fraction(num, 16)
        if not alpha < 1 + Fraction(4, d):
            continue
        count += 1
        if not xp.gamma_global_bound(d, alpha) < 1 + Fraction(2, d):
            bound_ok = False
    checks.append(_check("gamma-bound-inside-range", bound_ok, "bound < 1 + 2/d on 100 samples"))

    window_ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        alpha = 1 + Fraction(int(rng.integers(1, 4 * 16 // d)), 16)
        delta = 1 + Fraction(d) * (1 - alpha) / 4
        if delta <= 0:
            continue
        K = float(rng.uniform(0.01, 50.0))
        C1 = float(rng.uniform(0.1, 10.0))
        T = float(rng.uniform(0.1, 20.0))
        sigma = xp.picard_window_length(K, C1, delta, alpha, T)
        lhs = C1 * sigma ** float(delta) * K ** float(alpha - 1)
        if lhs > 2.0 ** (-float(alpha + 1)) + 1e-15:
            window_ok = False
    checks.append(_check("window-length-inequality", window_ok, "C1 sigma^delta K^(alpha-1) <= 2^-(alpha+1) on 1000 samples"))

    roots_ok = True
    for alpha in (2, 3, 5):
        c1, c2 = xp.dichotomy_roots(Fraction(alpha))
        for c in (c1, c2):
            if abs(1 + c**alpha / 2 ** (alpha + 1) - c) > 1e-10:
                roots_ok = False
        if not (c1 <= 2.0 < c2):
            roots_ok = False
    checks.append(_check("dichotomy-roots", roots_ok, "both roots satisfy x = 1 + x^a/2^(a+1) to 1e-10, c1 <= 2 < c2"))
    return checks


def propagator_residuals(n_fields: int, seed: int, t_max: float) -> tuple[float, float, float]:
    """Worst relative unitarity drift, group-law residual and time-reversal
    residual of U(t) over random fields on d = 1, n = 512, L = 64, with s, t
    uniform in [-t_max, t_max].

    Each field is drawn with its t and s, in that order, and the fields are
    evolved in stacks capped at CHUNK_STACK_BYTES; every residual is bitwise
    the one-field result."""
    grid = Grid(d=1, n=512, L=64.0)
    plan = get_plan(grid)
    rng = np.random.default_rng(seed)
    worst = [0.0, 0.0, 0.0]
    for rows in stack_slices(n_fields, grid.size):
        x = np.empty((rows.stop - rows.start, grid.size), dtype=np.complex128)
        t, s = np.empty((2, len(x)))
        for i in range(len(x)):
            x[i] = random_field(grid, rng).values
            t[i] = rng.uniform(-t_max, t_max)
            s[i] = rng.uniform(-t_max, t_max)
        for j, residuals in enumerate(_residual_rows(plan, x, t, s)):
            worst[j] = max(worst[j], *residuals.tolist())
    return tuple(worst)


def _residual_rows(plan, x: np.ndarray, t: np.ndarray, s: np.ndarray):
    """Relative unitarity drift, group-law and time-reversal residuals of
    each row of the stack x, at its times t and s.  At most four stacks
    live at once: x, one result and the two of `evolve_values`."""
    grid = plan.grid
    n0 = lp_norm_rows(x, 2, grid)
    ut = plan.evolve_values(x, t)
    unit = np.abs(lp_norm_rows(ut, 2, grid) - n0) / n0
    back = plan.evolve_values(ut, -t)
    del ut
    rev = lp_norm_rows(np.subtract(back, x, out=back), 2, grid) / n0
    del back
    ab = plan.evolve_values(plan.evolve_values(x, s), t)
    group = lp_norm_rows(np.subtract(ab, plan.evolve_values(x, s + t), out=ab), 2, grid) / n0
    return unit, group, rev


def dispersive_decay() -> tuple[float, float]:
    """Log-log slope of sup |U(t) u0| over t = 2..10 for a unit Gaussian on
    a wide box (d = 1, n = 2048, L = 512; the free rate is -1/2), and the
    largest half-box leakage along the way.  The times are evolved as
    stacks of rows."""
    wide = Grid(d=1, n=2048, L=512.0)
    u0 = gaussian_field(wide, 1.0, 1.0)
    ts = np.linspace(2.0, 10.0, 9)
    plan = get_plan(wide)
    evolved = [
        ComplexField(wide, row)
        for rows in stack_slices(ts.size, wide.size)
        for row in plan.evolve_values(u0.values, ts[rows])
    ]
    sups = [lp_norm(ut, math.inf) for ut in evolved]
    slope = float(np.polyfit(np.log(ts), np.log(sups), 1)[0])
    return slope, max(mass_outside_central_halfbox(ut) for ut in evolved)


def suite_unitarity() -> list[dict]:
    worst_unit, worst_group, worst_rev = propagator_residuals(300, seed=11, t_max=3.0)
    slope, _ = dispersive_decay()
    return [
        _check("unitarity", worst_unit < 1e-12, f"max relative L2 drift {worst_unit:.2e}"),
        _check("group-law", worst_group < 1e-12, f"max residual {worst_group:.2e}"),
        _check("time-reversal", worst_rev < 1e-12, f"max residual {worst_rev:.2e}"),
        _check("dispersive-decay", -0.55 <= slope <= -0.45, f"log-log slope {slope:.4f}"),
    ]


def _mass_config(gamma: Fraction) -> SimConfig:
    params = xp.ModelParams(d=1, alpha=Fraction(3), gamma=gamma, lam=1)
    return SimConfig(
        params=params,
        grid=Grid(d=1, n=128, L=32.0),
        noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": 0.5, "width": 3.0}]},
        ic_spec={"kind": "gaussian_bump", "amplitude": 1.0, "width": 2.0},
        T=1.0,
        dt=1.0 / 1000.0,
        scheme="splitstep",
        seed=5,
    )


def running_masses(cfg: SimConfig, paths) -> list[np.ndarray]:
    """Running mass of each path, solved by cfg's scheme as one stack
    without keeping states.  Raises the SolverError of the first path that
    failed."""
    masses = []
    for rep in solve_paths(cfg, paths):
        if isinstance(rep, SolverError):
            raise rep
        masses.append(rep.trajectory.running_mass)
    return masses


def mass_drift(cfg: SimConfig, n_paths: int) -> float:
    """Largest relative drift of the running mass, max_t |m(t) - m(0)| /
    m(0), over paths 0..n_paths-1 of cfg."""
    paths = [path_for(cfg, i) for i in range(n_paths)]
    return max(float(np.max(np.abs(m - m[0])) / m[0]) for m in running_masses(cfg, paths))


def suite_mass() -> list[dict]:
    checks = []
    for gamma in (Fraction(1), Fraction(3, 2)):
        name = f"splitstep-mass-gamma-{gamma}"
        try:
            worst = mass_drift(_mass_config(gamma), 5)
        except SolverError as exc:
            checks.append(_check(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        checks.append(_check(name, worst < 1e-10, f"max relative drift {worst:.2e} over 1000 steps x 5 paths"))
    return checks


def em_strong_errors(model: NoiseModel, u0: ComplexField, gammas, n_paths: int, seed: int, fine: int, ks) -> dict:
    """L^2 gap at T = 1 between Euler–Maruyama with dt = 2^-k and the exact
    diffusion-only flow, per path: {gamma: (len(ks), n_paths) array}.

    Paths 0..n_paths-1 of `seed` are drawn once on the fine mesh of `fine`
    steps; each gamma takes the exact flow once and marches every level as
    one stack of coarsened increments.
    """
    mesh = np.linspace(0.0, 1.0, fine + 1)
    increments = np.stack(
        [sample_brownian_path(mesh, model.total_modes, seed, pi).increments for pi in range(n_paths)]
    )
    errors = {}
    for gamma in gammas:
        exact = diffusion_only_exact_paths(u0, model, gamma, mesh, increments, 1.0)
        rows = []
        for k in ks:
            factor = fine // 2**k
            em = euler_maruyama_paths(u0, model, gamma, mesh[::factor], coarsen_increments(increments, factor))
            rows.append(lp_norm_rows(em - exact, 2, u0.grid))
        errors[gamma] = np.array(rows)
    return errors


def strong_order(ks, per_path: np.ndarray) -> float:
    """Slope of log2(mean error) against log2(dt) = -k: the fitted order."""
    errs = [float(np.mean(row)) for row in per_path]
    return float(np.polyfit([-k for k in ks], np.log2(errs), 1)[0])


def oracle_sde_orders(n_paths: int) -> dict:
    """Fitted strong order of Euler–Maruyama for gamma 1 and 2 on the
    oracle problem (d = 1, n = 64, e = 0.5 bump, u0 = 2 bump, seed 11,
    dt = 2^-6..2^-10)."""
    grid = Grid(d=1, n=64, L=16.0)
    e = gaussian_field(grid, amplitude=0.5, width=2.0)
    model = make_noise_model([e], [], grid)
    u0 = gaussian_field(grid, amplitude=2.0, width=2.0)
    ks = (6, 7, 8, 9, 10)
    errors = em_strong_errors(model, u0, (1.0, 2.0), n_paths, seed=11, fine=2**10, ks=ks)
    return {gamma: strong_order(ks, per_path) for gamma, per_path in errors.items()}


def suite_oracle_sde() -> list[dict]:
    return [
        _check(f"em-strong-order-gamma-{gamma}", 0.4 <= slope <= 0.6, f"fitted order {slope:.3f} over dt in 2^-6..2^-10")
        for gamma, slope in oracle_sde_orders(50).items()
    ]


def suite_strichartz() -> list[dict]:
    checks = []
    pair = xp.strichartz_pair(4, 1)  # (p, q) = (4, 8) in d = 1
    mesh = np.linspace(0.0, 1.0, 65)
    values = []
    for n in (256, 512, 1024):
        grid = Grid(d=1, n=n, L=64.0)
        u0 = gaussian_field(grid, 1.0, 1.5)
        values.append(free_strichartz_norm(get_plan(grid), u0.values, pair, mesh) / lp_norm(u0, 2))
    spread = max(values) / min(values) - 1.0
    checks.append(
        _check(
            "homogeneous-constant-stable",
            max(values) < 10.0 and spread < 0.05,
            f"ratios {[f'{v:.4f}' for v in values]} across n=256,512,1024 (spread {spread:.2e})",
        )
    )
    grid = Grid(d=1, n=256, L=64.0)
    plan = get_plan(grid)
    est = estimate_strichartz_constant(plan, samples=20, pair=pair, T=1.0, seed=3)
    checks.append(_check("homogeneous-constant-bounded", est < 10.0, f"empirical lower bound {est:.4f} (never asserted as exact)"))

    # stochastic convolution moment ratio, 200 paths (95%-style convention):
    # J(T) = sum_l U(T - t_l) g dbeta(t_l)
    g = gaussian_field(grid, 1.0, 1.5)
    increments = np.stack([sample_brownian_path(mesh, 1, 17, pi).increments for pi in range(200)])
    fields = np.broadcast_to(g.values, (mesh.size, 1, grid.size))
    # eight stacks of 25 paths keep the peak memory of this check small
    jT = np.concatenate(
        [lp_norm_rows(stochastic_convolution(plan, mesh, fields, block, 1.0), 2, grid) for block in np.split(increments, 8)]
    )
    lhs = float(np.mean(jT**2))
    rhs = 1.0 * lp_norm(g, 2) ** 2  # E ||Phi||^2_{L2(0,T;L2)} = T ||g||^2
    checks.append(
        _check("stochastic-moment-bounded", lhs <= 10.0 * rhs, f"E|J(T)|^2 / E||Phi||^2 = {lhs / rhs:.4f} (MC, 200 paths)")
    )
    return checks


def cutoff_lipschitz_ok(seed: int, level_lo: float, span: float) -> bool:
    """|theta(x) - theta(y)| <= |x - y| / level on 1e4 random pairs, with
    level uniform in [level_lo, 10] and x, y uniform in [0, span level].

    One draw of 3e4 doubles gives each pair's level, x and y in turn, as
    `Generator.uniform(low, high)` would, low + (high - low) u, and the
    cutoff is evaluated on the arrays at once."""
    u = np.random.default_rng(seed).random((10**4, 3))
    level = level_lo + (10.0 - level_lo) * u[:, 0]
    x, y = 0.0 + span * level * u[:, 1:].T
    cut = cutoff(level)
    return bool(np.all(np.abs(cut(x) - cut(y)) <= np.abs(x - y) / level + 1e-15))


def window_chaining_gap(first_seed: int) -> float:
    """Largest relative gap between Z on a whole trajectory and Z on a
    window that continues its head from the head's last accumulators, at
    every time the two share, over 50 random two-window cases (seeds first_seed..first_seed+49; d = 1,
    alpha = 3, gamma = 3/2).  The window keeps its own clock from 0, as the
    local-existence proof chains its Picard windows."""
    grid = Grid(d=1, n=32, L=8.0)
    zx = xp.z_exponents(xp.ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3, 2), lam=1))
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(first_seed + case)
        n_total = int(rng.integers(4, 12))
        split = int(rng.integers(1, n_total))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, size=n_total))])
        states = [random_field(grid, rng) for _ in range(n_total + 1)]
        full = Trajectory.from_states(times, states, zx)
        head = Trajectory.from_states(times[: split + 1], states[: split + 1], zx)
        window = Trajectory.from_states(
            times[split:] - times[split], states[split:], zx, acc0=(head.acc1[-1], head.acc2[-1])
        )
        z_chain = np.add(*window.z_columns())
        z_full = np.add(*full.z_columns())[split:]
        worst = max(worst, float(np.max(np.abs(z_chain - z_full) / np.maximum(z_full, 1e-30))))
    return worst


def suite_truncation() -> list[dict]:
    lip_ok = cutoff_lipschitz_ok(23, level_lo=0.1, span=4.0)
    exact_ok = all(
        theta(v * 1.0, 1.0) == e for v, e in ((0.0, 1.0), (1.0, 1.0), (1.5, 0.5), (2.0, 0.0), (3.0, 0.0))
    )
    worst = window_chaining_gap(100)
    return [
        _check("cutoff-lipschitz", lip_ok, "|theta(x)-theta(y)| <= |x-y|/level on 1e4 pairs"),
        _check("cutoff-breakpoints", exact_ok, "exact piecewise values at 0, n, 1.5n, 2n, 3n"),
        _check("window-chaining-identity", worst < 1e-12, f"max relative gap {worst:.2e} on 50 two-window cases"),
    ]


SUITES = {
    "exponents": suite_exponents,
    "unitarity": suite_unitarity,
    "mass": suite_mass,
    "oracle-sde": suite_oracle_sde,
    "strichartz": suite_strichartz,
    "truncation": suite_truncation,
}


def run_suites(names) -> dict:
    """Run the named suites ("all" expands to every suite); collect results."""
    if isinstance(names, str):
        names = [names]
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    seen = dict.fromkeys(expanded)
    results = {}
    for name in seen:
        checks = SUITES[name]()
        results[name] = {"passed": all(c["passed"] for c in checks), "checks": checks}
    return {
        "passed": all(r["passed"] for r in results.values()),
        "suites": results,
    }
