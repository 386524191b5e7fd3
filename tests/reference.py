"""Reference helpers that only tests call: a zero field, a kept state of a
trajectory as a field, the Bochner norm recomputed from stored states, a
mesh-thinned Brownian path, the Stratonovich–Heun diffusion march, a
record of the noise-model builds, and one-sample-at-a-time forms of the
stacked sampling helpers: the free group on one field (`free_evolve`), the
propagator residuals, the dispersive decay, the cutoff's Lipschitz check,
the free Strichartz norm and constant, and the Euler–Maruyama march.  The
one-sample forms are the loops that the package's stacked helpers replaced,
kept to pin that every number stays bitwise the same.

Each is written against the public `snls` names alone, so a test that
compares the package with one of them checks the package from outside.
"""

import math
from dataclasses import replace

import numpy as np

from snls import (
    BrownianPath,
    ComplexField,
    Grid,
    GridMismatch,
    NoiseModel,
    OutOfRange,
    Trajectory,
    coarsen_increments,
    SnlsError,
    gaussian_field,
    get_plan,
    lp_norm,
    mass_outside_central_halfbox,
    noise_term,
    random_field,
    stratonovich_drift,
    theta,
)


def zero_field(grid: Grid) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.size, dtype=np.complex128))


def state_at(traj: Trajectory, j: int) -> ComplexField:
    """Kept state j of a trajectory (any index into `traj.states`) as a field."""
    return ComplexField(traj.grid, traj.states[j])


def bochner_norm(traj: Trajectory, q: float, p: float, t_end: float) -> float:
    """(sum_j ||u(t_j)||_p^q dt_j)^(1/q) up to t_end, left-endpoint quadrature.

    For q = inf, the running max of ||u(t_j)||_p over samples t_j < t_end.
    Recomputed from the stored states, independently of the trajectory's
    accumulators.
    """
    times = np.asarray(traj.times)
    if not t_end <= times[-1] + 1e-12:
        raise OutOfRange(f"t_end={t_end} beyond trajectory end {times[-1]}")
    if q == math.inf:
        best = 0.0
        for j, tj in enumerate(times):
            if tj >= t_end:
                break
            best = max(best, lp_norm(state_at(traj, j), p))
        return best
    total = 0.0
    for j, tj in enumerate(times):
        if tj >= t_end:
            break
        t_next = times[j + 1] if j + 1 < len(times) else t_end
        dt = min(t_next, t_end) - tj
        total += lp_norm(state_at(traj, j), p) ** q * dt
    return total ** (1.0 / q) if total > 0 else 0.0


def coarsen_path(path: BrownianPath, factor: int) -> BrownianPath:
    """Same Brownian motion on a mesh thinned by `factor` (increments summed)."""
    inc = coarsen_increments(path.increments, factor)
    mesh = path.mesh[::factor].copy()
    inc.setflags(write=False)
    mesh.setflags(write=False)
    return replace(path, mesh=mesh, increments=inc)


def heun_stratonovich_diffusion(
    u0: ComplexField, model: NoiseModel, gamma, path: BrownianPath
) -> ComplexField:
    """Stratonovich–Heun march of the diffusion-only dynamics (no drift).

    Predictor-corrector on du = -i sum_m e_m |u|^(gamma-1) u o dbeta_m
    (the noise term at phi = 1); used to re-verify the closed form of
    `diffusion_only_exact`.
    """
    if u0.grid != model.grid:
        raise GridMismatch("field grid differs from noise-model grid")
    g = float(gamma)
    v = u0.values.copy()
    for l in range(path.increments.shape[1]):
        inc = path.increments[:, l]
        k1 = noise_term(v, model, g, inc)
        k2 = noise_term(v + k1, model, g, inc)
        v = v + 0.5 * (k1 + k2)
    return ComplexField(u0.grid, v)


def count_model_builds(monkeypatch) -> list:
    """Patch the noise model builder to record its calls; return the record."""
    import snls.config

    builds = []
    build = snls.config.build_noise_model
    monkeypatch.setattr(snls.config, "build_noise_model", lambda *a: builds.append(a) or build(*a))
    return builds


def free_evolve(f: ComplexField, t: float) -> ComplexField:
    """U(t) f through a cached plan for f's grid."""
    return ComplexField(f.grid, get_plan(f.grid).evolve_values(f.values, t))


def propagator_residuals(n_fields: int, seed: int, t_max: float) -> tuple:
    """`verify.propagator_residuals`, one field and one time per call."""
    grid = Grid(d=1, n=512, L=64.0)
    rng = np.random.default_rng(seed)
    worst_unit = worst_group = worst_rev = 0.0
    for _ in range(n_fields):
        f = random_field(grid, rng)
        t = float(rng.uniform(-t_max, t_max))
        s = float(rng.uniform(-t_max, t_max))
        n0 = lp_norm(f, 2)
        worst_unit = max(worst_unit, abs(lp_norm(free_evolve(f, t), 2) - n0) / n0)
        ab = free_evolve(free_evolve(f, s), t)
        worst_group = max(worst_group, lp_norm(ab - free_evolve(f, s + t), 2) / n0)
        worst_rev = max(worst_rev, lp_norm(free_evolve(free_evolve(f, t), -t) - f, 2) / n0)
    return worst_unit, worst_group, worst_rev


def dispersive_decay() -> tuple:
    """`verify.dispersive_decay`, one time per call."""
    wide = Grid(d=1, n=2048, L=512.0)
    u0 = gaussian_field(wide, 1.0, 1.0)
    ts = np.linspace(2.0, 10.0, 9)
    evolved = [free_evolve(u0, float(t)) for t in ts]
    sups = [lp_norm(ut, math.inf) for ut in evolved]
    slope = float(np.polyfit(np.log(ts), np.log(sups), 1)[0])
    return slope, max(mass_outside_central_halfbox(ut) for ut in evolved)


def cutoff_lipschitz_ok(seed: int, level_lo: float, span: float) -> bool:
    """`verify.cutoff_lipschitz_ok`, one draw and one scalar cutoff per call."""
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(10**4):
        level = float(rng.uniform(level_lo, 10.0))
        x, y = rng.uniform(0.0, span * level, size=2)
        ok &= abs(theta(x, level) - theta(y, level)) <= abs(x - y) / level + 1e-15
    return bool(ok)


def free_strichartz_norm(plan, values: np.ndarray, pair, mesh) -> float:
    """`propagator.free_strichartz_norm`, one mesh time per call."""
    mesh = np.asarray(mesh, dtype=float)
    q, p = float(pair.q), float(pair.p)
    total = 0.0
    for tl, dt in zip(mesh[:-1], np.diff(mesh)):
        total += lp_norm(ComplexField(plan.grid, plan.evolve_values(values, tl)), p) ** q * dt
    return total ** (1.0 / q)


def estimate_strichartz_constant(plan, samples: int, pair, T: float, seed: int) -> float:
    """`propagator.estimate_strichartz_constant` through the reference norm."""
    rng = np.random.default_rng(seed)
    mesh = np.linspace(0.0, T, 65)
    return max(
        (free_strichartz_norm(plan, random_field(plan.grid, rng, unit_l2=True).values, pair, mesh) for _ in range(samples)),
        default=0.0,
    )


def euler_maruyama_paths(u0: ComplexField, model: NoiseModel, gamma, mesh, increments) -> np.ndarray:
    """`noise.euler_maruyama_paths` as one stack, |v| taken by each term and
    finiteness checked after every step."""
    g = float(gamma)
    v = np.repeat(u0.values[None, :], increments.shape[0], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(increments.shape[2]):
            dt = mesh[l + 1] - mesh[l]
            v = v + dt * stratonovich_drift(v, model, g) + noise_term(v, model, g, increments[:, :, l])
            if not np.all(np.isfinite(v)):
                raise SnlsError("field contains non-finite values")
    return v
