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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import detect_stopping_time, theta
from .errors import BlowUp, ConfigError, MeshMismatch
from .exponents import ModelParams, z_exponents
from .grid_field import (
    ComplexField,
    Grid,
    Trajectory,
    lp_norm,
    mass_outside_central_halfbox,
)
from .noise import (
    BrownianPath,
    NoiseModel,
    noise_term,
    sample_brownian_path,
    stratonovich_drift,
)
from .propagator import get_plan
from .specs import build_field, build_noise_model

SCHEMES = ("picard", "splitstep")

# L^2 norm beyond which a Picard step counts as blown up.
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
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ConfigError(f"dt={self.dt} does not divide T={self.T}")
        if not self.truncation_level > 0:
            raise ConfigError(f"truncation level must be positive, got {self.truncation_level}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

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


def _check_mesh(config: SimConfig, path: BrownianPath) -> np.ndarray:
    mesh = config.mesh()
    if path.mesh.size != mesh.size or not np.allclose(path.mesh, mesh, atol=1e-12):
        raise MeshMismatch(
            f"path mesh ({path.mesh.size} points) does not match config mesh ({mesh.size} points)"
        )
    return mesh


def solve(config: SimConfig, path: BrownianPath | None = None, path_index: int = 0, **kw) -> SolveReport:
    """Dispatch on config.scheme."""
    if config.scheme == "picard":
        return picard_solve(config, path, path_index=path_index, **kw)
    return splitstep_solve(config, path, path_index=path_index, **kw)


# ---------------------------------------------------------------------------
# Split-step reference integrator
# ---------------------------------------------------------------------------


def splitstep_solve(
    config: SimConfig,
    path: BrownianPath | None = None,
    path_index: int = 0,
    model: NoiseModel | None = None,
    u0: ComplexField | None = None,
    keep_states: bool = True,
) -> SolveReport:
    """Strang split step: half linear, nonlinear phase, noise step, half linear.

    The nonlinear and conservative-noise sub-steps are exact pointwise phase
    rotations (|u| invariant); with the unitary linear half-steps every
    sub-step is an isometry on the grid, so discrete mass is conserved to
    rounding.  Non-conservative noise falls back to one Euler–Maruyama step
    with the Itô correction drift.
    """
    grid, built_model, built_u0 = materialize(config)
    model = model if model is not None else built_model
    u0 = u0 if u0 is not None else built_u0
    if path is None:
        path = path_for(config, path_index, model)
    mesh = _check_mesh(config, path)
    params = config.params
    zexp = z_exponents(params)
    plan = get_plan(grid, config.enable_laplacian)
    dt = config.dt
    alpha = float(params.alpha)
    gamma = float(params.gamma)
    lam = params.lam if config.enable_nonlinearity else 0
    half_mult = plan.multiplier(0.5 * dt)
    exact_noise = model.conservative and model.linear_real
    n_e = model.n_modes
    coeffs_real = model.coeffs.real if exact_noise else None
    linear_real = model.linear_coeffs.real if exact_noise else None

    traj = Trajectory.start(u0, zexp, 0.0, keep_states=keep_states)
    leak = mass_outside_central_halfbox(u0)
    v = u0.values.copy()
    notes = _config_notes(config)
    for l in range(config.n_steps):
        v = plan.inverse(half_mult * plan.forward(v))
        if lam:
            v = v * np.exp(-1j * lam * dt * np.abs(v) ** (alpha - 1.0))
        if model.total_modes:
            inc = path.increments[:, l]
            if exact_noise:
                phase = np.zeros(grid.size)
                if n_e:
                    phase = (inc[:n_e] @ coeffs_real) * np.abs(v) ** (gamma - 1.0)
                if model.n_linear_modes:
                    phase = phase + inc[n_e:] @ linear_real
                v = v * np.exp(-1j * phase)
            else:
                u = ComplexField(grid, v)
                v = (
                    v
                    + dt * stratonovich_drift(u, model, gamma, 1.0).values
                    + noise_term(u, model, gamma, 1.0, inc).values
                )
        v = plan.inverse(half_mult * plan.forward(v))
        state = ComplexField(grid, v)
        traj.append(mesh[l + 1], state)
        leak = max(leak, mass_outside_central_halfbox(state))
    tau = detect_stopping_time(traj, config.truncation_level, config.T)
    return SolveReport(
        trajectory=traj,
        tau=tau,
        truncation_ever_active=False,
        scheme="splitstep",
        halfbox_leakage=leak,
        seed=path.seed,
        path_index=path.path_index,
        notes=notes,
    )


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


# ---------------------------------------------------------------------------
# Picard (exponential-Euler) integrator
# ---------------------------------------------------------------------------


def picard_solve(
    config: SimConfig,
    path: BrownianPath | None = None,
    path_index: int = 0,
    model: NoiseModel | None = None,
    u0: ComplexField | None = None,
    keep_states: bool = True,
) -> SolveReport:
    """Fixed point of the discrete mild equation, marched step by step.

    Step l reads phi_l = theta(Z_{t_l}, level) from the running-norm
    accumulators of the states up to t_l, then sets

        v_{l+1} = U(dt) (v_l + dt F(v_l, phi_l) + K(v_l, phi_l, dbeta_l))

    with the forcing and the noise kick (see `noise.stratonovich_drift` and
    `noise.noise_term`)

        F = -i lam phi |v|^(alpha-1) v + phi mu1 |v|^(2(gamma-1)) v + mu2 v,
        K = -i phi (dbeta_l . e) |v|^(gamma-1) v - i (dbeta'_l . b) v.

    Raises BlowUp when a step yields non-finite values or an L^2 norm above
    BLOWUP_L2.
    """
    grid, built_model, built_u0 = materialize(config)
    model = model if model is not None else built_model
    u0 = u0 if u0 is not None else built_u0
    if path is None:
        path = path_for(config, path_index, model)
    mesh = _check_mesh(config, path)
    params = config.params
    plan = get_plan(grid, config.enable_laplacian)
    dt = config.dt
    alpha = float(params.alpha)
    gamma = float(params.gamma)
    lam = params.lam if config.enable_nonlinearity else 0
    mult_dt = plan.multiplier(dt)
    cell = grid.cell_volume
    inc = path.increments
    n_e = model.n_modes

    traj = Trajectory.start(u0, z_exponents(params), 0.0, keep_states=keep_states)
    leak = mass_outside_central_halfbox(u0)
    ever_active = False
    state = u0
    for l in range(config.n_steps):
        z = traj.z_end()
        phi = theta(z, config.truncation_level)
        ever_active = ever_active or phi < 1.0
        v = state.values
        with np.errstate(over="ignore", invalid="ignore"):
            absv = np.abs(v)
            w = v.copy()
            if lam:
                w += (-1j * lam * phi * dt) * absv ** (alpha - 1.0) * v
            if n_e:
                w += (phi * dt) * model.mu1 * absv ** (2.0 * (gamma - 1.0)) * v
                w += (-1j * phi) * (inc[:n_e, l] @ model.coeffs) * absv ** (gamma - 1.0) * v
            if model.n_linear_modes:
                w += (dt * model.mu2 - 1j * (inc[n_e:, l] @ model.linear_coeffs)) * v
            v = plan.inverse(mult_dt * plan.forward(w))
            l2 = math.sqrt(float(np.sum(np.abs(v) ** 2)) * cell)
        if not l2 <= BLOWUP_L2:
            last = traj.running_mass[-1]
            raise BlowUp(
                f"step from t={mesh[l]:.6g} blew up: L^2 norm {l2:.3g} "
                f"(from {last:.6g}, Z={z:.6g})",
                t=float(mesh[l]),
                z=z,
                l2=last,
            )
        state = ComplexField(grid, v)
        traj.append(mesh[l + 1], state)
        leak = max(leak, mass_outside_central_halfbox(state))
    tau = detect_stopping_time(traj, config.truncation_level, config.T)
    return SolveReport(
        trajectory=traj,
        tau=tau,
        truncation_ever_active=ever_active,
        scheme="picard",
        halfbox_leakage=leak,
        seed=path.seed,
        path_index=path.path_index,
        notes=_config_notes(config),
    )


def path_coincidence_check(config: SimConfig, path: BrownianPath, levels) -> float:
    """Max relative L^2 gap, up to the lower level's stopping time, between
    Picard solves at two cutoff levels on the same Brownian path."""
    n1, n2 = levels
    if not n1 < n2:
        raise ConfigError(f"levels must increase, got {levels}")
    rep1 = picard_solve(replace(config, scheme="picard", truncation_level=float(n1)), path)
    rep2 = picard_solve(replace(config, scheme="picard", truncation_level=float(n2)), path)
    t1, t2 = rep1.trajectory, rep2.trajectory
    worst = 0.0
    for j, t in enumerate(t1.times):
        if t > rep1.tau + 1e-12:
            break
        a = t1.state_at_index(j)
        b = t2.state_at_index(j)
        denom = max(lp_norm(a, 2), 1e-300)
        worst = max(worst, lp_norm(a - b, 2) / denom)
    return worst
