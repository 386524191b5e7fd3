"""Time integrators: Picard (exponential-Euler) march and split-step reference.

The Picard scheme realizes the mild formulation

    u(t) = U(t) u0 + K_det[u](t) + K_strat[u](t) + K_stoch[u](t)

with the three convolution operators discretized by left-endpoint sums and
the cutoff evaluated on the running norm Z.  That discrete equation is
causal: v_{l+1} depends only on v_0..v_l, and the cutoff at step l reads Z
only up to t_l.  Its fixed point is therefore the explicit exponential-Euler
(Lawson) recurrence, which the solver marches one step at a time with the
sampled Brownian increments held fixed, so each path is solved
deterministically (`_picard_step`).  The split-step scheme
(`_splitstep_step`) is the untruncated reference: Strang splitting in its
phase-linear-phase order, whose sub-steps conserve discrete mass to
rounding for conservative noise; it carries the state before its trailing
half rotation, whose modulus is the state's.

Both schemes are a pointwise map, then the free group's step U(dt), and
both run in one engine, `solve_paths`, which applies U(dt) at one site, two
transforms per step, to P paths marched as a (P, grid.size) stack: a
batched 1-D FFT per spatial axis and transform, one |v|^2 pass per block of
steps for the norms and the half-box leakage, kept with the accumulators as
columns, and the cutoff theta(Z) per row, at the row's level.  A
split-step block holds the states that `stack_slices` puts in one stack; a
Picard block is one step.  A path's result does not depend on the blocks
or on the other rows of its stack, bitwise.  Every row marches to the last
step; the march only records.  Each path's verdicts are read from its
columns afterwards: its stopping time, whether the cutoff ever acted, its
half-box leakage (the row max), and, for a row whose L^2 norm leaves
BLOWUP_L2 or whose running-norm accumulators stop being finite, the BlowUp
at the first such step.  `solve` is the P = 1 case, in the config's scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import SimConfig, read_levels
from .dynamics import cutoff, detect_stopping_time, theta
from .errors import BlowUp, ConfigError, LengthMismatch, MeshMismatch, SolverError
from .exponents import z_exponents
from .grid_field import TIME_SLACK, Trajectory, fill_accumulators, lp_norm_rows, mode_sum, norms_and_leakage, stack_slices, time_index, z_components
from .noise import BrownianPath, NoiseModel, sample_brownian_path
from .propagator import get_plan

# L^2 norm beyond which a step counts as blown up (either scheme).
BLOWUP_L2 = 1e12


@dataclass
class SolveReport:
    """One solved path: trajectory, stopping time and resolution monitors."""

    trajectory: Trajectory
    tau: float
    truncation_ever_active: bool
    scheme: str
    halfbox_leakage: float
    seed: int
    path_index: int
    notes: list = field(default_factory=list)

    def summary_dict(self) -> dict:
        """Every field but the trajectory."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trajectory"}


def materialize(config: SimConfig):
    """(grid, noise model, initial state) of the config: an accessor kept
    for the benchmark's set-up, which calls it; the package reads
    `config.model` and `config.u0`."""
    return config.grid, config.model, config.u0


def path_for(config: SimConfig, path_index: int = 0) -> BrownianPath:
    """Brownian path on the config mesh with the model's total mode count."""
    return sample_brownian_path(config.mesh(), config.model.total_modes, config.seed, path_index)


def solve(
    config: SimConfig,
    path: BrownianPath | None = None,
    path_index: int = 0,
    keep_states: bool = False,
) -> SolveReport:
    """Solve one path with config.scheme: the P = 1 case of `solve_paths`.

    Raises the path's BlowUp if it failed.
    """
    if path is None:
        path = path_for(config, path_index)
    (result,) = solve_paths(config, [path], keep_states)
    if isinstance(result, SolverError):
        raise result
    return result


# ---------------------------------------------------------------------------
# The path-batched engine
# ---------------------------------------------------------------------------


def solve_paths(config: SimConfig, paths, keep_states: bool = False, levels=None) -> list:
    """March P paths of config.scheme as one (P, grid.size) stack, from the
    config's initial state with its noise model.  Row r's cutoff level is
    levels[r], by default config.truncation_level for every row; a path
    given twice with two levels is solved at each.

    Returns one result per path, in order: its SolveReport, or the BlowUp
    of a path whose step gave non-finite values, an L^2 norm above
    BLOWUP_L2 or non-finite running-norm accumulators.  Every row marches to
    the last step, a failed one too; its BlowUp is read from its columns at
    the first failing step, as are tau, the cutoff flag
    (truncation_ever_active: theta(Z_l) < 1 at some step l < K, Picard
    only) and the half-box leakage (the max of its column) of the others.
    The march goes block by block over the states 0 .. K: each state's |v|
    goes into the block, then one pass records the block's norms, leakage
    and accumulators.  Split-step takes its blocks from
    `stack_slices(K + 1, P * grid.size)`, as many states as a stack of
    complex rows of P * grid.size values holds; Picard takes one step per
    block, because its step l reads Z at t_l.  Each step is
    v_{l+1} = U(dt) map_l(v_l): the scheme gives the pointwise map, and the
    march applies U(dt) for both, in two transforms.  The columns read |v|,
    which for split-step is |z_l| = |u_l|.  With keep_states each state is
    also copied into the kept states (split-step's rotated there by its
    pending half, so kept state l is u_l), which the recording never reads,
    so the columns are the same with and without them.
    Every row is computed with numpy ufuncs, row-wise FFTs and sums over
    the C-contiguous last axis, mode sums in a fixed order and accumulators
    as left folds along time, so a path's result is bitwise the same in any
    batch, at any position, for any blocks.  Split-step rotates v in place:
    numpy computes v * exp(-i phase) of 256 KiB or more (a stack at the cap)
    as exp(-i phase) * v, which its SIMD kernels do not round alike.  Each
    row's path is checked once, before the stack: a mesh more than
    TIME_SLACK off the config mesh at any point raises MeshMismatch,
    increments not of shape (config.model.total_modes, K) LengthMismatch,
    `levels` not of length P LengthMismatch, and a level that is a
    boolean, a string or not positive (NaN included) ConfigError, as in
    SimConfig.
    """
    mesh, model = config.mesh(), config.model
    P, M, K = len(paths), model.total_modes, config.n_steps
    if levels is None:
        levels = np.full(P, config.truncation_level)
    else:
        levels = np.asarray(levels, dtype=object)  # keeps a boolean or a string apart from the numbers
        if any(isinstance(n, (bool, str)) for n in levels.flat):
            raise ConfigError(f"truncation levels must be numbers, got {levels.tolist()}")
        levels = levels.astype(float)
    if levels.shape != (P,):
        raise LengthMismatch(f"{np.size(levels)} cutoff levels for {P} paths")
    if not (levels > 0).all():
        raise ConfigError(f"truncation level must be positive, got {levels[~(levels > 0)][0]}")
    for r, path in enumerate(paths):
        if np.shape(path.mesh) != mesh.shape or not (np.abs(path.mesh - mesh) <= TIME_SLACK).all():
            raise MeshMismatch(f"path {r} mesh ({np.size(path.mesh)} points) is not the config mesh ({mesh.size})")
        shape = np.shape(path.increments)
        if shape != (M, K):
            raise LengthMismatch(f"path {r} has (modes, steps) {shape}; the model has {M} modes, the mesh {K} steps")
    if not P:
        return []
    grid = config.grid
    zexp = z_exponents(config.params)
    p1, p2 = float(zexp.p1), float(zexp.p2)
    increments = np.stack([path.increments for path in paths])
    dts = np.diff(mesh)[:, None]

    # Time-major columns and block: a block of steps is one contiguous slab.
    mass = np.empty((K + 1, P))
    leak = np.empty((K + 1, P))
    acc1 = np.zeros((K + 1, P))
    acc2 = np.zeros((K + 1, P))
    states = np.empty((K + 1, P, grid.size), dtype=np.complex128) if keep_states else None
    v = np.repeat(config.u0.values[None, :], P, axis=0)
    if config.scheme == "picard":
        pointwise, pending = _picard_step(config, model, zexp, levels, increments), None
        blocks = [slice(l, l + 1) for l in range(K + 1)]
    else:
        pointwise, pending = _splitstep_step(config, model, increments)
        blocks = stack_slices(K + 1, P * grid.size)
    block = np.empty((blocks[0].stop, P, grid.size))
    plan = get_plan(grid, config.enable_laplacian)
    mult = plan.multiplier(config.dt)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for b in blocks:
            for l in range(b.start, b.stop):
                if l:
                    v = plan.inverse(mult * plan.forward(pointwise(v, acc1[l - 1], acc2[l - 1], l - 1)))
                np.abs(v, out=block[l - b.start])
                if keep_states:
                    states[l] = v
                    if pending and l:
                        pending(states[l], l - 1)
            # the block's columns, then the accumulators up to min(b.stop, K)
            mass[b], n1, n2, leak[b] = norms_and_leakage(block[: b.stop - b.start], grid, p1, p2)
            s, end = b.start, min(b.stop, K)
            fill_accumulators(acc1[s : end + 1], acc2[s : end + 1], n1[: end - s], n2[: end - s], dts[s:end], zexp)
        # The verdicts, read from the columns (one row per path from here on):
        # failed[r, l] when step l left a bound, whether the cutoff that step
        # l read from Z at t_l was ever below 1, and the largest leakage.
        mass, leak, acc1, acc2 = mass.T, leak.T, acc1.T, acc2.T
        failed = ~((mass[:, 1:] <= BLOWUP_L2) & np.isfinite(acc1[:, 1:] + acc2[:, 1:]))
        z = np.add(*z_components(acc1, acc2, zexp))
        active = (config.scheme == "picard") & np.any(theta(z[:, :K], levels[:, None]) < 1.0, axis=1)
        halfbox = np.max(leak, axis=1)
    notes = _config_notes(config)
    results = []
    for r, path in enumerate(paths):
        if failed[r].any():
            l = int(np.argmax(failed[r]))
            last, l2, zr = float(mass[r, l]), mass[r, l + 1], z[r, l]
            what = f"L^2 norm {l2:.3g}"
            if l2 <= BLOWUP_L2:
                what = f"running norm Z overflowed, {what}"
            msg = f"step from t={mesh[l]:.6g} blew up: {what} (from {last:.6g}, Z={zr:.6g})"
            results.append(BlowUp(msg, t=float(mesh[l]), z=float(zr), l2=last))
            continue
        traj = Trajectory(grid, zexp, mesh, mass[r], acc1[r], acc2[r], states[:, r] if keep_states else None)
        results.append(
            SolveReport(
                trajectory=traj,
                tau=detect_stopping_time(mesh, z[r], float(levels[r])),
                truncation_ever_active=bool(active[r]),
                scheme=config.scheme,
                halfbox_leakage=float(halfbox[r]),
                seed=path.seed,
                path_index=path.path_index,
                notes=list(notes),
            )
        )
    return results


def _config_notes(config: SimConfig) -> list:
    notes = []
    params = config.params
    if params.alpha_critical:
        notes.append("critical nonlinearity: only local existence is guaranteed")
        if params.lam == -1:
            notes.append("focusing critical run: deterministic blow-up data exist")
    if params.gamma_critical:
        notes.append("critical noise power")
    return notes


def _ito_step(v, phi, dinc, dt, lam, alpha, gamma, model: NoiseModel) -> np.ndarray:
    """v + dt F(v, phi) + K(v, phi, dbeta) row by row, phi of shape (R, 1) or 1.0."""
    # The Euler–Maruyama oracle (`noise.stratonovich_drift` + `noise_term`)
    # computes the same terms in another association order, on purpose: the
    # oracle checks this step only while it shares no arithmetic with it.
    absv = np.abs(v)
    w = v.copy()
    if lam:
        w += (-1j * lam * phi * dt) * absv ** (alpha - 1.0) * v
    n_e = model.n_modes
    if n_e:
        drift, kick = (phi * dt) * model.mu1, (-1j * phi) * mode_sum(dinc[:, :n_e], model.coeffs)
        if gamma != 1.0:  # |v| ** 0 is exactly 1
            drift, kick = drift * absv ** (2.0 * (gamma - 1.0)), kick * absv ** (gamma - 1.0)
        w += drift * v
        w += kick * v
    if model.n_linear_modes:
        w += (dt * model.mu2 - 1j * mode_sum(dinc[:, n_e:], model.linear_coeffs)) * v
    return w


def _splitstep_step(config: SimConfig, model: NoiseModel, increments):
    """Split-step's pointwise map of a (R, size) stack and the pending half
    rotation of a kept state, both in place; the cutoff is never applied.

    The Strang step u_{l+1} = R_l U(dt) R_l u_l rotates by R_l, half of
    phase_l(|u|) = lam dt |u|^(alpha-1) + (dbeta_l . e) |u|^(gamma-1) +
    dbeta'_l . b, before and after the unitary linear step, so every
    sub-step is an isometry on the grid and discrete mass is conserved to
    rounding.  No rotation changes |u|, so R_l and R_{l+1} compose exactly
    into one rotation: the scheme carries z_l, u_l before its trailing half
    (z_0 = u0, u_l = R_{l-1} z_l), and step l rotates z_l by
    w_l lam dt |z|^(alpha-1) + (c_l . e) |z|^(gamma-1) + c'_l . b, with
    c_l = (dbeta_{l-1} + dbeta_l) / 2, dbeta_{-1} = 0, w_0 = 1/2 and w_l = 1
    after; the engine then applies U(dt).  Non-conservative noise rotates
    by the nonlinear phase alone, then takes one Euler-Maruyama step with
    the Ito correction drift and dbeta_l; its pending half is the
    nonlinear one.
    """
    dt = config.dt
    alpha, gamma = float(config.params.alpha), float(config.params.gamma)
    lam_dt = dt * config.params.lam if config.enable_nonlinearity else 0.0
    exact_noise = model.conservative and model.linear_real
    n_e, n_b = (model.n_modes, model.n_linear_modes) if exact_noise else (0, 0)
    coeffs_real, linear_real = model.coeffs.real, model.linear_coeffs.real
    halves = 0.5 * increments
    merged = halves.copy()  # c_l, elementwise, so a row does not depend on its stack
    merged[:, :, 1:] += halves[:, :, :-1]

    def rotate(z, lam_w, c):
        if lam_w or n_e or n_b:  # the noise phase joins only for exact_noise
            absz = np.abs(z)
            phase = lam_w * absz ** (alpha - 1.0) if lam_w else 0.0
            if n_e:
                kick = mode_sum(c[:, :n_e], coeffs_real)
                if gamma != 1.0:  # |z| ** 0 is exactly 1
                    kick = kick * absz ** (gamma - 1.0)
                phase = phase + kick
            if n_b:
                phase = phase + mode_sum(c[:, n_e:], linear_real)
            z *= np.exp(-1j * phase)
        return z

    def step(z, acc1, acc2, l):
        z = rotate(z, 0.5 * lam_dt if l == 0 else lam_dt, merged[:, :, l])
        return z if exact_noise else _ito_step(z, 1.0, increments[:, :, l], dt, 0, alpha, gamma, model)

    def pending(z, l):
        rotate(z, 0.5 * lam_dt, halves[:, :, l])

    return step, pending


def _picard_step(config: SimConfig, model: NoiseModel, zexp, levels, increments):
    """Picard's pointwise map of a (R, size) stack, v_l -> the step's input
    to U(dt): one exponential-Euler (Lawson) step is

        v_{l+1} = U(dt) (v_l + dt F(v_l, phi_l) + K(v_l, phi_l, dbeta_l)).

    Step l reads phi_l = theta(Z_{t_l}, level) per row, at the row's entry
    of `levels` (one `cutoff` for the march), from the running-norm
    accumulators of the states up to t_l.  The forcing and the noise kick
    (`noise.stratonovich_drift` and `noise.noise_term` are their noise
    terms at phi = 1) are

        F = -i lam phi |v|^(alpha-1) v + phi mu1 |v|^(2(gamma-1)) v + mu2 v,
        K = -i phi (dbeta_l . e) |v|^(gamma-1) v - i (dbeta'_l . b) v.
    """
    dt = config.dt
    alpha, gamma = float(config.params.alpha), float(config.params.gamma)
    lam = config.params.lam if config.enable_nonlinearity else 0
    phi_of = cutoff(levels)

    def step(v, acc1, acc2, l):
        z1, z2 = z_components(acc1, acc2, zexp)
        phi = phi_of(z1 + z2)
        return _ito_step(v, phi[:, None], increments[:, :, l], dt, lam, alpha, gamma, model)

    return step


def path_coincidence_check(config: SimConfig, paths, levels) -> tuple[list, list]:
    """Picard solves of `paths` at two cutoff levels, marched as one
    level-major stack.

    Returns (gaps, taus): per path, the max relative L^2 gap between the
    two runs over the mesh times up to the lower level's stopping time, and
    that stopping time.  Raises the SolverError of the first path that
    failed at either level, and ConfigError unless `levels` is two
    increasing levels.
    """
    read = read_levels(levels)
    if len(read) != 2 or not read[0] < read[1]:
        raise ConfigError(f"path coincidence needs two increasing levels, got {levels}")
    paths = list(paths)
    levels = np.repeat(read, len(paths))
    results = solve_paths(replace(config, scheme="picard"), paths * 2, keep_states=True, levels=levels)
    gaps, taus = [], []
    for rep1, rep2 in zip(results[: len(paths)], results[len(paths) :]):
        for rep in (rep1, rep2):
            if isinstance(rep, SolverError):
                raise rep
        t1, t2 = rep1.trajectory, rep2.trajectory
        upto = time_index(t1.times, rep1.tau) + 1
        a, b = t1.states[:upto], t2.states[:upto]
        rel = lp_norm_rows(a - b, 2, config.grid) / np.maximum(lp_norm_rows(a, 2, config.grid), 1e-300)
        gaps.append(float(np.max(rel, initial=0.0)))
        taus.append(rep1.tau)
    return gaps, taus
