"""Finite-mode multiplicative noise: coefficients, paths, drifts, oracle.

The noise consists of M bounded coefficient fields e_m acting through
|u|^(gamma-1) u, plus an optional family of bounded multiplier fields b_m
acting linearly.  The Itô form of the dynamics carries the correction drift

    -1/2 (sum_m |e_m|^2) phi |u|^(2(gamma-1)) u  -  1/2 (sum_m |b_m|^2) u,

and the noise increment

    -i (sum_m e_m dbeta_m) phi |u|^(gamma-1) u  -  i (sum_m b_m dbeta'_m) u,

with phi = theta(Z) the cutoff.  The oracle below has none:
`stratonovich_drift` and `noise_term` are these terms at phi = 1.

For real coefficients ("conservative" noise) the combined flow with the
Laplacian and the power nonlinearity switched off is solved exactly by a
pointwise phase rotation; `diffusion_only_exact` below is the package's
strongest oracle, and `euler_maruyama_diffusion` the Itô march checked
against it.  Both have a stack form, `diffusion_only_exact_paths` and
`euler_maruyama_paths`, that takes a (P, M, K) block of increments on one
mesh and returns a (P, grid.size) array; the one-path functions are its
P = 1 case, and a row is bitwise the same in any stack.  The march takes
|v| once per step for both terms, marches its paths in stacks capped at
`grid_field.CHUNK_STACK_BYTES` and checks finiteness once, at the end;
its records are bitwise those of the step-by-step loop it replaced.

Brownian increments are generated with the counter-based Philox generator,
keyed by (seed, path index, mode), so every increment is a pure function of
its address and results are bitwise reproducible under any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    LengthMismatch,
    MeshMismatch,
    NotConservative,
    OutOfRange,
    UnboundedCoefficient,
)
from .grid_field import ComplexField, Grid, require_finite, stack_slices, time_index

_REAL_TOL = 1e-14


@dataclass(frozen=True)
class NoiseModel:
    """Coefficient fields e_m (and linear multipliers b_m) on one grid.

    `coeffs` has shape (M, grid.size), `linear_coeffs` (M', grid.size);
    either may be empty.  `conservative` is True iff every e_m is real
    valued to 1e-14, `linear_real` iff every b_m is.  The correction-drift
    fields mu1 = -1/2 sum |e_m|^2 and mu2 = -1/2 sum |b_m|^2 are
    precomputed.
    """

    grid: Grid
    coeffs: np.ndarray
    linear_coeffs: np.ndarray
    conservative: bool
    linear_real: bool
    mu1: np.ndarray
    mu2: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_linear_modes(self) -> int:
        return self.linear_coeffs.shape[0]

    @property
    def total_modes(self) -> int:
        return self.n_modes + self.n_linear_modes


def make_noise_model(coeffs, linear_coeffs, grid: Grid) -> NoiseModel:
    """Build a NoiseModel on `grid` from the ComplexFields e_m and b_m; a
    field on another grid raises GridMismatch, and coefficients whose
    squared sup norms overflow UnboundedCoefficient."""
    def to_rows(fields: list[ComplexField]) -> np.ndarray:
        if any(f.grid != grid for f in fields):
            raise GridMismatch("coefficient grid differs from model grid")
        return np.array([f.values for f in fields], dtype=np.complex128).reshape(len(fields), grid.size)

    e = to_rows(coeffs)
    b = to_rows(linear_coeffs)
    conservative = bool(np.all(np.abs(e.imag) <= _REAL_TOL))
    linear_real = bool(np.all(np.abs(b.imag) <= _REAL_TOL))
    with np.errstate(over="ignore"):  # no modes: an empty sum, 0.0
        sup_sq = sum(float(np.sum(np.max(np.abs(c), axis=1) ** 2)) for c in (e, b))
    if not np.isfinite(sup_sq):
        raise UnboundedCoefficient("coefficients too large: their squared sup norms overflow")
    mu1 = -0.5 * np.sum(np.abs(e) ** 2, axis=0) if e.size else np.zeros(grid.size)
    mu2 = -0.5 * np.sum(np.abs(b) ** 2, axis=0) if b.size else np.zeros(grid.size)
    for a in (e, b, mu1, mu2):
        a.setflags(write=False)
    return NoiseModel(grid, e, b, conservative, linear_real, mu1, mu2)


# ---------------------------------------------------------------------------
# Brownian paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrownianPath:
    """Gaussian increments dbeta_m(t_l) ~ N(0, dt_l) on a fixed mesh.

    `increments` has shape (M, len(mesh)-1); independent across modes and
    steps; bitwise reproducible from (seed, path_index).
    """

    mesh: np.ndarray
    increments: np.ndarray
    seed: int
    path_index: int


def _checked_mesh(mesh) -> np.ndarray:
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 1:
        raise OutOfRange("mesh must be one-dimensional")
    if mesh.size >= 2 and not np.all(np.diff(mesh) > 0):
        raise OutOfRange("mesh must be strictly increasing")
    return mesh


def _check_time(t: float) -> None:
    """Reject a NaN time: every comparison with it is False, so the prefix
    of mesh points before it would be empty and the result a silent zero."""
    if np.isnan(t):
        raise OutOfRange(f"t must be a number, got {t}")


def sample_brownian_path(mesh, M: int, seed: int, path_index: int) -> BrownianPath:
    """Counter-addressed increments: mode m uses Philox at counter

        (0, 0, path_index, m) with key (seed, 0),

    so distinct (path, mode) streams occupy disjoint counter blocks and the
    full path is a pure function of (seed, path_index).
    """
    mesh = _checked_mesh(mesh)
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 0:
        raise OutOfRange(f"mode count must be a nonnegative integer, got {M!r}")
    for k in (seed, path_index):  # Philox keys and counters are uint64, and the cast truncates
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < 2**64:
            raise OutOfRange(f"seed and path_index must be integers in [0, 2^64), got {seed!r} and {path_index!r}")
    steps = max(mesh.size - 1, 0)
    increments = np.empty((M, steps))
    if steps and M:
        sqrt_dt = np.sqrt(np.diff(mesh))
        for m in range(M):
            bitgen = np.random.Philox(
                counter=np.array([0, 0, path_index, m], dtype=np.uint64),
                key=np.array([seed, 0], dtype=np.uint64),
            )
            gauss = np.random.Generator(bitgen).standard_normal(steps)
            increments[m] = gauss * sqrt_dt
    increments.setflags(write=False)
    mesh = mesh.copy()
    mesh.setflags(write=False)
    return BrownianPath(mesh=mesh, increments=increments, seed=seed, path_index=path_index)


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Increments (..., K) summed in consecutive groups of `factor` steps,
    giving (..., K / factor): the same Brownian motion on the mesh
    thinned to every factor-th point.  Each group is summed over the last
    axis, so a path's coarse increments do not depend on its stack."""
    steps = increments.shape[-1]
    if factor < 1 or steps % factor != 0:
        raise OutOfRange(f"factor {factor} does not divide {steps} steps")
    return increments.reshape(increments.shape[:-1] + (-1, factor)).sum(axis=-1)


# ---------------------------------------------------------------------------
# Drift, diffusion and the exact diffusion-only solution
# ---------------------------------------------------------------------------


def _check_model_grid(u: ComplexField, model: NoiseModel) -> None:
    if u.grid != model.grid:
        raise GridMismatch("field grid differs from noise-model grid")


def mode_sum(dinc: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """sum_m dinc[..., m] fields[m], accumulated in mode order.

    `dinc` is (M,) for one field or (R, M) for a stack of R rows.  No
    matrix product: BLAS may block a product differently for different row
    counts, which would make a row depend on the size of its stack.
    """
    d = dinc[..., None]
    out = d[..., 0, :] * fields[0]
    for m in range(1, fields.shape[0]):
        out = out + d[..., m, :] * fields[m]
    return out


def _power(v: np.ndarray, modulus, exponent: float) -> np.ndarray:
    """|v|^exponent, from `modulus` = |v| when the caller has it."""
    return (np.abs(v) if modulus is None else modulus) ** exponent


def stratonovich_drift(v: np.ndarray, model: NoiseModel, gamma, modulus=None) -> np.ndarray:
    """Correction drift mu1 |v|^(2(gamma-1)) v + mu2 v (phi = 1), pointwise,
    for a field's values or a (P, grid.size) stack of them; `modulus` may
    carry |v|."""
    # With `noise_term`, the Euler–Maruyama oracle's step.  It is kept apart
    # from the solver's `_ito_step`, which computes the same terms in another
    # association order: the oracle checks the solver only while the two
    # share no arithmetic.
    g = float(gamma)
    out = model.mu2 * v
    if model.n_modes:
        out = out + model.mu1 * _power(v, modulus, 2.0 * (g - 1.0)) * v
    return out


def noise_term(v: np.ndarray, model: NoiseModel, gamma, dinc: np.ndarray, modulus=None) -> np.ndarray:
    """-i sum_m e_m |v|^(gamma-1) v dbeta_m - i sum_m b_m v dbeta'_m (phi = 1)
    for one step's increments: (M,) for a field's values, (P, M) for a
    stack; `modulus` may carry |v|."""
    # Kept apart from `solver._ito_step` on purpose; see `stratonovich_drift`.
    g = float(gamma)
    n_e = model.n_modes
    out = np.zeros(v.shape, dtype=np.complex128)
    if n_e:
        out += -1j * mode_sum(dinc[..., :n_e], model.coeffs) * _power(v, modulus, g - 1.0) * v
    if model.n_linear_modes:
        out += -1j * mode_sum(dinc[..., n_e:], model.linear_coeffs) * v
    return out


def _stack_increments(mesh, increments, n_modes: int):
    """Mesh and (P, M, K) increment block, checked against each other and
    against the model's mode count."""
    mesh = _checked_mesh(mesh)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3:
        raise LengthMismatch(f"increments must be a (P, M, K) block, got shape {increments.shape}")
    if increments.shape[1] != n_modes:
        raise LengthMismatch(f"path carries {increments.shape[1]} modes, model has {n_modes}")
    if increments.shape[2] != max(mesh.size - 1, 0):
        raise MeshMismatch(f"{increments.shape[2]} increments on a mesh of {mesh.size} points")
    return mesh, increments


def diffusion_only_exact_paths(
    u0: ComplexField, model: NoiseModel, gamma, mesh, increments, t: float
) -> np.ndarray:
    """`diffusion_only_exact` at the mesh time t for a (P, M, K) block of
    increments on one mesh, as a (P, grid.size) array; row p is bitwise the
    P = 1 result of path p.  beta(t) is known only at the mesh times, so a t
    more than 1e-12 from every one of them, NaN included, raises OutOfRange."""
    _check_model_grid(u0, model)
    if not model.conservative or model.n_linear_modes:
        raise NotConservative(
            "exact diffusion-only solution requires real e_m and no linear part"
        )
    mesh, increments = _stack_increments(mesh, increments, model.n_modes)
    j = time_index(mesh, t)
    g = float(gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        # the mesh increases, so beta(t_j) sums the first j increments
        beta_t = increments[..., :j].sum(axis=-1)
        phase = mode_sum(beta_t, model.coeffs.real) * np.abs(u0.values) ** (g - 1.0)
        v = u0.values * np.exp(-1j * phase)
    require_finite(v)
    return v


def diffusion_only_exact(
    u0: ComplexField, model: NoiseModel, gamma, path: BrownianPath, t: float
) -> ComplexField:
    """Exact pathwise solution with Laplacian and power nonlinearity off:

        u(t, x) = u0(x) exp(-i sum_m e_m(x) |u0(x)|^(gamma-1) beta_m(t)).

    Valid for conservative noise without a linear part, where the flow is a
    pure pointwise phase rotation and |u(t, x)| = |u0(x)| exactly; t must be
    a time of the path's mesh.  The P = 1 case of `diffusion_only_exact_paths`.
    """
    (row,) = diffusion_only_exact_paths(u0, model, gamma, path.mesh, path.increments[None], t)
    return ComplexField(u0.grid, row)


def euler_maruyama_paths(u0: ComplexField, model: NoiseModel, gamma, mesh, increments) -> np.ndarray:
    """Euler–Maruyama march of the diffusion-only Itô dynamics to mesh end,
    for a (P, M, K) block of increments on one mesh, as a (P, grid.size)
    array.

    One step: v += stratonovich_drift(v) dt + noise_term(v, dbeta), with |v|
    taken once for both.  Both act elementwise and sum modes in mode order,
    so row p is bitwise the P = 1 result of path p; the paths are marched
    in stacks capped at CHUNK_STACK_BYTES.  A march that gives a non-finite
    value in any row raises SnlsError, as a ComplexField would, and no
    RuntimeWarning.  It is checked once, at the end: each step adds to v,
    so a non-finite entry stays non-finite.
    """
    _check_model_grid(u0, model)
    mesh, increments = _stack_increments(mesh, increments, model.total_modes)
    g = float(gamma)
    out = np.repeat(u0.values[None, :], increments.shape[0], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in stack_slices(out.shape[0], u0.grid.size):
            v = out[rows]  # a view: each stack is marched in place
            for l, dt in enumerate(np.diff(mesh)):
                a = np.abs(v) if model.n_modes else None
                noise = noise_term(v, model, g, increments[rows, :, l], a)
                v += dt * stratonovich_drift(v, model, g, a)
                v += noise
                del a, noise  # not held while the next step forms its terms
    require_finite(out)
    return out


def euler_maruyama_diffusion(
    u0: ComplexField, model: NoiseModel, gamma, path: BrownianPath
) -> ComplexField:
    """Euler–Maruyama march of the diffusion-only Itô dynamics to mesh end.

    Reference scheme for strong-order checks against `diffusion_only_exact`;
    the P = 1 case of `euler_maruyama_paths`.
    """
    (row,) = euler_maruyama_paths(u0, model, gamma, path.mesh, path.increments[None])
    return ComplexField(u0.grid, row)

