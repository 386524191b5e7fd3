"""Reference helpers that only tests call: a zero field, a kept state of a
trajectory as a field, the Bochner norm recomputed from stored states, a
mesh-thinned Brownian path, the Stratonovich–Heun diffusion march and a
record of the noise-model builds.

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
    lp_norm,
    noise_term,
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
