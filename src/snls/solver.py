"""Time integrators: Picard (exponential-Euler) march and split-step reference.

`picard_solve` realizes the mild formulation

    u(t) = U(t) u0 + K_det[u](t) + K_strat[u](t) + K_stoch[u](t)

with the three convolution operators discretized by left-endpoint sums and
the cutoff evaluated on the running norm Z.  That discrete equation is
causal: v_{l+1} depends only on v_0..v_l, and the cutoff at step l reads Z
only up to t_l.  Its fixed point is therefore the explicit exponential-Euler
(Lawson) recurrence, which the solver marches one step at a time with the
sampled Brownian increments held fixed, so each path is solved
deterministically.

`splitstep_solve` is the untruncated reference scheme: Strang splitting
with an exactly unitary linear half-step, an exact pointwise phase step for
the power nonlinearity, and an exact phase step for conservative noise
(Euler–Maruyama fallback otherwise), so discrete mass is conserved to
rounding when every sub-step is an isometry.

Both schemes run in one engine, `solve_paths`, which marches P paths as a
(P, grid.size) stack: a batched 1-D FFT per spatial axis and transform, one
|v|^2 pass per step for the norms and the half-box monitor, kept with the
accumulators as (P, K+1) columns, and the cutoff theta(Z) per row.  A path's
result does not depend on the other rows of its stack, bitwise.  A row whose
step gives non-finite values, an L^2 norm above BLOWUP_L2 or running-norm
accumulators that overflow becomes a BlowUp and leaves the stack; the others
march on.  `solve`, `picard_solve` and `splitstep_solve` are the P = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import detect_stopping_time, theta
from .errors import BlowUp, ConfigError, MeshMismatch, SolverError
from .exponents import ModelParams, z_exponents
from .grid_field import (
    ComplexField,
    Grid,
    Trajectory,
    advance_accumulators,
    lp_norm_rows,
    norms_and_leakage,
    z_components,
)
from .noise import BrownianPath, NoiseModel, mode_sum, sample_brownian_path
from .propagator import get_plan
from .specs import build_field, build_noise_model

SCHEMES = ("picard", "splitstep")

# L^2 norm beyond which a step counts as blown up (either scheme).
BLOWUP_L2 = 1e12


@dataclass
class SimConfig:
    """Everything a single-path solve needs, JSON-representable.

    Physical data (params, grid, noise, initial condition, horizon) have no
    defaults; discretization and solver choices do.  `truncation_level`
    is the cutoff level of the Picard solver (inf disables the cutoff);
    split-step always solves the untruncated equation and only monitors the
    stopping time against this level.
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
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2^64), got {self.seed}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def mesh(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


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
        return {
            "scheme": self.scheme,
            "tau": self.tau,
            "truncation_ever_active": self.truncation_ever_active,
            "halfbox_leakage": self.halfbox_leakage,
            "seed": self.seed,
            "path_index": self.path_index,
            "notes": list(self.notes),
        }


def materialize(config: SimConfig):
    """(grid, noise model, initial state) from the config's specs."""
    grid = config.grid
    model = build_noise_model(config.noise_spec, grid)
    u0 = build_field(config.ic_spec, grid)
    return grid, model, u0


def path_for(config: SimConfig, path_index: int = 0, model: NoiseModel | None = None) -> BrownianPath:
    """Brownian path on the config mesh with the model's total mode count."""
    if model is None:
        _, model, _ = materialize(config)
    return sample_brownian_path(config.mesh(), model.total_modes, config.seed, path_index)


def _check_mesh(mesh: np.ndarray, path: BrownianPath) -> None:
    if path.mesh.size != mesh.size or not np.allclose(path.mesh, mesh, atol=1e-12):
        raise MeshMismatch(
            f"path mesh ({path.mesh.size} points) does not match config mesh ({mesh.size} points)"
        )


def solve(
    config: SimConfig,
    path: BrownianPath | None = None,
    path_index: int = 0,
    keep_states: bool = True,
) -> SolveReport:
    """Solve one path with config.scheme: the P = 1 case of `solve_paths`.

    Raises the path's BlowUp if it failed.
    """
    _, model, u0 = materialize(config)
    if path is None:
        path = path_for(config, path_index, model)
    (result,) = solve_paths(config, [path], model, u0, keep_states)
    if isinstance(result, SolverError):
        raise result
    return result


def splitstep_solve(config: SimConfig, path: BrownianPath | None = None, path_index: int = 0, **kw) -> SolveReport:
    """Strang split step: half linear, nonlinear phase, noise step, half linear.

    The nonlinear and conservative-noise sub-steps are exact pointwise phase
    rotations (|u| invariant); with the unitary linear half-steps every
    sub-step is an isometry on the grid, so discrete mass is conserved to
    rounding.  Non-conservative noise falls back to one Euler–Maruyama step
    with the Itô correction drift.  Keywords as for `solve`.
    """
    return solve(replace(config, scheme="splitstep"), path, path_index, **kw)


def picard_solve(config: SimConfig, path: BrownianPath | None = None, path_index: int = 0, **kw) -> SolveReport:
    """Fixed point of the discrete mild equation, marched step by step.

    Step l reads phi_l = theta(Z_{t_l}, level) from the running-norm
    accumulators of the states up to t_l, then sets

        v_{l+1} = U(dt) (v_l + dt F(v_l, phi_l) + K(v_l, phi_l, dbeta_l))

    with the forcing and the noise kick (see `noise.stratonovich_drift` and
    `noise.noise_term`)

        F = -i lam phi |v|^(alpha-1) v + phi mu1 |v|^(2(gamma-1)) v + mu2 v,
        K = -i phi (dbeta_l . e) |v|^(gamma-1) v - i (dbeta'_l . b) v.

    Keywords as for `solve`.
    """
    return solve(replace(config, scheme="picard"), path, path_index, **kw)


# ---------------------------------------------------------------------------
# The path-batched engine
# ---------------------------------------------------------------------------


def solve_paths(
    config: SimConfig,
    paths,
    model: NoiseModel,
    u0: ComplexField,
    keep_states: bool = True,
) -> list:
    """March P paths of config.scheme as one (P, grid.size) stack.

    Returns one result per path, in order: its SolveReport, or the BlowUp
    of a path whose step gave non-finite values, an L^2 norm above
    BLOWUP_L2 or non-finite running-norm accumulators.  A failed row is
    dropped from the stack and the others march on.  Every row is computed with numpy ufuncs, row-wise FFTs and sums
    over the C-contiguous last axis, and mode sums in a fixed order, so a
    path's result is bitwise the same in any batch, at any position.
    """
    mesh = config.mesh()
    for path in paths:
        _check_mesh(mesh, path)
    P, K = len(paths), config.n_steps
    if not P:
        return []
    grid = config.grid
    zexp = z_exponents(config.params)
    p1, p2 = float(zexp.p1), float(zexp.p2)
    step = _picard_step(config, model, zexp) if config.scheme == "picard" else _splitstep_step(config, model)
    increments = np.stack([path.increments for path in paths])  # (P, M, K)
    steps = np.diff(mesh)

    mass = np.empty((P, K + 1))
    acc1 = np.zeros((P, K + 1))
    acc2 = np.zeros((P, K + 1))
    states = np.empty((P, K + 1, grid.size), dtype=np.complex128) if keep_states else None
    ever_active = np.zeros(P, dtype=bool)
    norm1 = np.empty(P)  # ||.||_p1 and ||.||_p2 of each row's last state
    norm2 = np.empty(P)
    failures = {}
    rows = slice(None)  # rows still marching: a slice (views) until one fails, then their index
    v = np.repeat(u0.values[None, :], P, axis=0)
    if keep_states:
        states[:, 0] = v
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mass[:, 0], norm1[:], norm2[:], leak = norms_and_leakage(np.abs(v), grid, p1, p2)
        for l in range(K):
            c1, c2 = acc1[rows, l], acc2[rows, l]
            v, active = step(v, c1, c2, increments[rows, :, l])
            ever_active[rows] |= active
            m, n1, n2, lk = norms_and_leakage(np.abs(v), grid, p1, p2)
            a1, a2 = advance_accumulators(c1, c2, norm1[rows], norm2[rows], steps[l], zexp)
            bad = ~((m <= BLOWUP_L2) & np.isfinite(a1 + a2))
            if bad.any():
                marching = np.arange(P)[rows]
                z1, z2 = z_components(c1[bad], c2[bad], zexp)
                for r, l2, zr in zip(marching[bad], m[bad], z1 + z2):
                    last = float(mass[r, l])
                    what = f"L^2 norm {l2:.3g}"
                    if l2 <= BLOWUP_L2:
                        what = f"running norm Z overflowed, {what}"
                    failures[r] = BlowUp(
                        f"step from t={mesh[l]:.6g} blew up: {what} (from {last:.6g}, Z={zr:.6g})",
                        t=float(mesh[l]),
                        z=float(zr),
                        l2=last,
                    )
                rows = marching[~bad]
                v, m, n1, n2, lk, a1, a2 = (x[~bad] for x in (v, m, n1, n2, lk, a1, a2))
            acc1[rows, l + 1], acc2[rows, l + 1] = a1, a2
            mass[rows, l + 1] = m
            norm1[rows], norm2[rows] = n1, n2
            leak[rows] = np.maximum(leak[rows], lk)
            if keep_states:
                states[rows, l + 1] = v
    notes = _config_notes(config)
    results = []
    for r, path in enumerate(paths):
        if r in failures:
            results.append(failures[r])
            continue
        traj = Trajectory(
            grid, zexp, mesh, mass[r], acc1[r], acc2[r],
            states[r] if keep_states else None, (norm1[r], norm2[r]),
        )
        results.append(
            SolveReport(
                trajectory=traj,
                tau=detect_stopping_time(traj, config.truncation_level, config.T),
                truncation_ever_active=bool(ever_active[r]),
                scheme=config.scheme,
                halfbox_leakage=float(leak[r]),
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
    """One Strang step of a (R, size) stack; the cutoff is never applied."""
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

    def step(v, acc1, acc2, dinc):
        v = plan.inverse(half_mult * plan.forward(v))
        if lam:
            v = v * np.exp(-1j * lam * dt * np.abs(v) ** (alpha - 1.0))
        if model.total_modes:
            if exact_noise:
                phase = 0.0
                if n_e:
                    phase = mode_sum(dinc[:, :n_e], coeffs_real)
                    if gamma != 1.0:  # |v| ** 0 is exactly 1
                        phase = phase * np.abs(v) ** (gamma - 1.0)
                if model.n_linear_modes:
                    phase = phase + mode_sum(dinc[:, n_e:], linear_real)
                v = v * np.exp(-1j * phase)
            else:
                v = _ito_step(v, np.ones((len(v), 1)), dinc, dt, 0, alpha, gamma, model)
        v = plan.inverse(half_mult * plan.forward(v))
        return v, False

    return step


def _picard_step(config: SimConfig, model: NoiseModel, zexp):
    """One exponential-Euler step of a (R, size) stack at cutoff theta(Z)."""
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
        return plan.inverse(mult_dt * plan.forward(w)), phi < 1.0

    return step


def path_coincidence_check(config: SimConfig, paths, levels) -> tuple[list, list]:
    """Picard solves of `paths` at two cutoff levels, each level one stack.

    Returns (gaps, taus): per path, the max relative L^2 gap between the
    two runs over the mesh times up to the lower level's stopping time, and
    that stopping time.  Raises the SolverError of the first path that
    failed at either level.
    """
    n1, n2 = levels
    if not n1 < n2:
        raise ConfigError(f"levels must increase, got {levels}")
    _, model, u0 = materialize(config)
    low, high = (
        solve_paths(replace(config, scheme="picard", truncation_level=float(n)), paths, model, u0)
        for n in (n1, n2)
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
