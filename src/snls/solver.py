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
(`_splitstep_step`) is the untruncated reference: Strang splitting whose
sub-steps conserve discrete mass to rounding for conservative noise.  Its
nonlinear and noise phases compose into one pointwise rotation, and the
spectral array that ends a step starts the next, so a step costs three
transforms: the engine transforms u0 once and carries v̂ alone.

Both schemes run in one engine, `solve_paths`, which marches P paths as a
(P, grid.size) stack: a batched 1-D FFT per spatial axis and transform, one
|v|^2 pass per block of steps for the norms and the half-box leakage, kept
with the accumulators as columns, and the cutoff theta(Z) per row.  A path's
result does not depend on the block size or on the other rows of its stack,
bitwise.  Every row marches to the last step; the march only records.  Each
path's verdicts are read from its columns afterwards: its stopping time,
whether the cutoff ever acted, its half-box leakage (the row max), and, for
a row whose L^2 norm leaves BLOWUP_L2 or whose running-norm accumulators
stop being finite, the BlowUp at the first such step.  `solve` is the P = 1
case, in the config's scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .dynamics import detect_stopping_time, theta
from .errors import BlowUp, ConfigError, LengthMismatch, MeshMismatch, SolverError
from .exponents import ModelParams, z_exponents
from .grid_field import (
    ComplexField,
    Grid,
    Trajectory,
    fill_accumulators,
    lp_norm_rows,
    norms_and_leakage,
    z_components,
)
from .noise import BrownianPath, NoiseModel, mode_sum, sample_brownian_path
from .propagator import get_plan
from .specs import as_integer, as_level, build_field, build_noise_model

SCHEMES = ("picard", "splitstep")

# L^2 norm beyond which a step counts as blown up (either scheme).
BLOWUP_L2 = 1e12

# Bytes of |v| that split-step keeps per block of steps before it records
# the block's norms, leakage and accumulators at once (see `solve_paths`):
# 32 rows of a single d = 1, n = 128 path, which removes almost all of the
# per-call cost of per-step recording (larger blocks were no faster), and a
# single row of a 20-path stack, whose peak memory a larger block would raise.
RECORD_BLOCK_BYTES = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """Everything a single-path solve needs, JSON-representable.

    Physical data (params, grid, noise, initial condition, horizon) have no
    defaults; discretization and solver choices do.  `truncation_level`
    is the cutoff level of the Picard solver (inf disables the cutoff);
    split-step always solves the untruncated equation and only monitors the
    stopping time against this level.

    The config is frozen, and builds its noise model (`model`) and initial
    state (`u0`) from its specs on first use, once per object; a changed
    config is a new object (`dataclasses.replace`), which builds its own.
    The spec dicts are read only then, so they must not be edited in place.
    """

    params: ModelParams
    grid: Grid
    noise_spec: dict
    ic_spec: dict
    T: float
    dt: float
    scheme: str = "splitstep"
    truncation_level: float = math.inf
    seed: int = 0
    enable_laplacian: bool = True
    enable_nonlinearity: bool = True

    def __post_init__(self):
        if self.grid.d != self.params.d:
            raise ConfigError(f"grid dimension {self.grid.d} differs from the model's d = {self.params.d}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ConfigError(f"horizon T must be positive and finite, got {self.T}")
        if not (self.dt > 0 and self.dt <= self.T):
            raise ConfigError(f"dt must lie in (0, T], got {self.dt}")
        steps = self.T / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ConfigError(f"dt={self.dt} does not divide T={self.T}")
        if not self.truncation_level > 0:
            raise ConfigError(f"truncation level must be positive, got {self.truncation_level}")
        try:
            object.__setattr__(self, "seed", as_integer(self.seed))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}") from exc
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2^64), got {self.seed}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def mesh(self) -> np.ndarray:
        """The K + 1 mesh times; the last is T exactly."""
        return np.linspace(0.0, self.T, self.n_steps + 1)

    @cached_property
    def model(self) -> NoiseModel:
        return build_noise_model(self.noise_spec, self.grid)

    @cached_property
    def u0(self) -> ComplexField:
        return build_field(self.ic_spec, self.grid)


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


def solve_paths(config: SimConfig, paths, keep_states: bool = False) -> list:
    """March P paths of config.scheme as one (P, grid.size) stack, from the
    config's initial state with its noise model.

    Returns one result per path, in order: its SolveReport, or the BlowUp
    of a path whose step gave non-finite values, an L^2 norm above
    BLOWUP_L2 or non-finite running-norm accumulators.  Every row marches to
    the last step, a failed one too; its BlowUp is read from its columns at
    the first failing step, as are tau, the cutoff flag
    (truncation_ever_active: theta(Z_l) < 1 at some step l < K, Picard
    only) and the half-box leakage (the max of its column) of the others.
    Each step's |v| goes into a block of B steps, whose norms, leakage and
    accumulators are recorded at once when it is full: B = 1 for Picard,
    whose step l reads Z at t_l, and for split-step as many as
    RECORD_BLOCK_BYTES of |v| hold (at least one).  With keep_states each
    step's v is also copied into the kept states, which the recording never
    reads, so the columns are the same with and without them.
    Every row is computed with numpy ufuncs, row-wise FFTs and sums over
    the C-contiguous last axis, mode sums in a fixed order and accumulators
    as left folds along time, so a path's result is bitwise the same in any
    batch, at any position, for any B.  Each path is checked once, before
    the stack: a mesh more than 1e-12 off the config mesh at any point
    raises MeshMismatch, increments not of shape (config.model.total_modes, K)
    LengthMismatch.
    """
    mesh, model = config.mesh(), config.model
    P, M, K = len(paths), model.total_modes, config.n_steps
    for r, path in enumerate(paths):
        if np.shape(path.mesh) != mesh.shape or not np.allclose(path.mesh, mesh, rtol=0.0, atol=1e-12):
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
        step, carry, B = _picard_step(config, model, zexp), v, 1
    else:
        step, carry = _splitstep_step(config, model), get_plan(grid, config.enable_laplacian).forward(v)
        B = max(1, RECORD_BLOCK_BYTES // (8 * P * grid.size))
    block = np.empty((B, P, grid.size))
    first = 0  # the block holds |v| of the states first .. l

    def record(l, v, carry):
        """Keep |v| of state l in the block (and v in `states`, when kept);
        once the block is full, or l = K, fill its columns and the
        accumulators up to min(l + 1, K).  Returns carry, so that a step's
        v is bound only while it is recorded."""
        nonlocal first
        np.abs(v, out=block[l - first])
        if keep_states:
            states[l] = v
        if l - first + 1 < B and l < K:
            return carry
        mass[first : l + 1], n1, n2, leak[first : l + 1] = norms_and_leakage(block[: l + 1 - first], grid, p1, p2)
        end = min(l + 1, K)
        fill_accumulators(
            acc1[first : end + 1], acc2[first : end + 1], n1[: end - first], n2[: end - first], dts[first:end], zexp
        )
        first = l + 1
        return carry

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        carry = record(0, v, carry)
        del v  # between steps only the carry stays alive (v̂ for split-step)
        for l in range(K):
            carry = record(l + 1, *step(carry, acc1[l], acc2[l], increments[:, :, l]))
        # The verdicts, read from the columns (one row per path from here on):
        # failed[r, l] when step l left a bound, whether the cutoff that step
        # l read from Z at t_l was ever below 1, and the largest leakage.
        mass, leak, acc1, acc2 = mass.T, leak.T, acc1.T, acc2.T
        failed = ~((mass[:, 1:] <= BLOWUP_L2) & np.isfinite(acc1[:, 1:] + acc2[:, 1:]))
        z = np.add(*z_components(acc1, acc2, zexp))
        active = (config.scheme == "picard") & np.any(theta(z[:, :K], config.truncation_level) < 1.0, axis=1)
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
                tau=detect_stopping_time(mesh, z[r], config.truncation_level),
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
    """v + dt F(v, phi) + K(v, phi, dbeta) row by row, phi of shape (R, 1)."""
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


def _splitstep_step(config: SimConfig, model: NoiseModel):
    """One Strang step of a (R, size) stack, v̂_l -> (v_{l+1}, v̂_{l+1})
    with v̂ the spectral array whose inverse transform is v; the cutoff is
    never applied.

    Half linear step, phase rotation, half linear step:

        v_mid = inverse(half v̂_l),
        v̂_{l+1} = half forward(v_mid exp(-i phase(|v_mid|))),
        v_{l+1} = inverse(v̂_{l+1}),

    with half = exp(-i |k|^2 dt/2) and phase = lam dt |v|^(alpha-1) +
    (dbeta_l . e) |v|^(gamma-1) + dbeta'_l . b.  The nonlinear and the
    conservative-noise sub-steps are pointwise rotations by phases that
    depend only on |v|, which neither changes, so they compose exactly into
    this one rotation.  v̂_{l+1} is carried into the next step, so a step
    costs three transforms (the engine transforms u0 once).  With the
    unitary linear half-steps every sub-step is an isometry on the grid, so
    discrete mass is conserved to rounding.  Non-conservative noise falls
    back to the nonlinear rotation followed by one Euler–Maruyama step with
    the Itô correction drift.
    """
    plan = get_plan(config.grid, config.enable_laplacian)
    dt = config.dt
    alpha = float(config.params.alpha)
    gamma = float(config.params.gamma)
    lam = config.params.lam if config.enable_nonlinearity else 0
    half_mult = plan.multiplier(0.5 * dt)
    n_e = model.n_modes
    exact_noise = model.conservative and model.linear_real
    coeffs_real = model.coeffs.real
    linear_real = model.linear_coeffs.real

    def step(v_hat, acc1, acc2, dinc):
        v = plan.inverse(half_mult * v_hat)
        if not exact_noise:
            if lam:
                v = v * np.exp(-1j * lam * dt * np.abs(v) ** (alpha - 1.0))
            v = _ito_step(v, np.ones((len(v), 1)), dinc, dt, 0, alpha, gamma, model)
        elif lam or model.total_modes:
            absv = np.abs(v)
            phase = (lam * dt) * absv ** (alpha - 1.0) if lam else 0.0
            if n_e:
                kick = mode_sum(dinc[:, :n_e], coeffs_real)
                if gamma != 1.0:  # |v| ** 0 is exactly 1
                    kick = kick * absv ** (gamma - 1.0)
                phase = phase + kick
            if model.n_linear_modes:
                phase = phase + mode_sum(dinc[:, n_e:], linear_real)
            v = v * np.exp(-1j * phase)
        v_hat = half_mult * plan.forward(v)
        return plan.inverse(v_hat), v_hat

    return step


def _picard_step(config: SimConfig, model: NoiseModel, zexp):
    """One exponential-Euler (Lawson) step of a (R, size) stack, v_l ->
    (v_{l+1}, v_{l+1}): the state to record and the next step's input.

    Step l reads phi_l = theta(Z_{t_l}, level) from the running-norm
    accumulators of the states up to t_l, then sets

        v_{l+1} = U(dt) (v_l + dt F(v_l, phi_l) + K(v_l, phi_l, dbeta_l))

    with the forcing and the noise kick (`noise.stratonovich_drift` and
    `noise.noise_term` are their noise terms at phi = 1)

        F = -i lam phi |v|^(alpha-1) v + phi mu1 |v|^(2(gamma-1)) v + mu2 v,
        K = -i phi (dbeta_l . e) |v|^(gamma-1) v - i (dbeta'_l . b) v.
    """
    plan = get_plan(config.grid, config.enable_laplacian)
    dt = config.dt
    alpha = float(config.params.alpha)
    gamma = float(config.params.gamma)
    lam = config.params.lam if config.enable_nonlinearity else 0
    mult_dt = plan.multiplier(dt)
    level = config.truncation_level

    def step(v, acc1, acc2, dinc):
        z1, z2 = z_components(acc1, acc2, zexp)
        phi = theta(z1 + z2, level)
        w = _ito_step(v, phi[:, None], dinc, dt, lam, alpha, gamma, model)
        v = plan.inverse(mult_dt * plan.forward(w))
        return v, v

    return step


def read_levels(levels) -> list:
    """Cutoff levels read by the config's level rule (`specs.as_level`)."""
    try:
        return [as_level(n) for n in levels]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f'truncation levels {levels} are not all finite numbers or "inf": {exc}') from exc


def path_coincidence_check(config: SimConfig, paths, levels) -> tuple[list, list]:
    """Picard solves of `paths` at two cutoff levels, each level one stack.

    Returns (gaps, taus): per path, the max relative L^2 gap between the
    two runs over the mesh times up to the lower level's stopping time, and
    that stopping time.  Raises the SolverError of the first path that
    failed at either level, and ConfigError unless `levels` is two
    increasing levels.
    """
    read = read_levels(levels)
    if len(read) != 2 or not read[0] < read[1]:
        raise ConfigError(f"path coincidence needs two increasing levels, got {levels}")
    low, high = (
        solve_paths(replace(config, scheme="picard", truncation_level=n), paths, keep_states=True) for n in read
    )
    gaps, taus = [], []
    for rep1, rep2 in zip(low, high):
        for rep in (rep1, rep2):
            if isinstance(rep, SolverError):
                raise rep
        t1, t2 = rep1.trajectory, rep2.trajectory
        upto = int(np.searchsorted(t1.times, rep1.tau + 1e-12, side="right"))
        a, b = t1.states[:upto], t2.states[:upto]
        rel = lp_norm_rows(a - b, 2, config.grid) / np.maximum(lp_norm_rows(a, 2, config.grid), 1e-300)
        gaps.append(float(np.max(rel, initial=0.0)))
        taus.append(rep1.tau)
    return gaps, taus
