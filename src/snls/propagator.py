"""Free Schrödinger group as a spectral multiplier, plus convolutions.

The group U(t) acts mode-by-mode as exp(-i |k|^2 t) on the FFT of the field,
so it is exactly unitary in the discrete L^2 norm up to rounding.  The
Duhamel and stochastic convolutions are left-endpoint quadratures of
U(t - s) applied to sampled forcings, matching the Itô convention used
everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyTrajectory, GridMismatch, MeshMismatch
from .exponents import StrichartzPair
from .grid_field import ComplexField, Grid, Trajectory, lp_norm, random_field
from .noise import BrownianPath


class SpectralPlan:
    """Cached wavenumbers and transforms for one grid.

    Each transform is one 1-D FFT per spatial axis, last axis first: the
    arithmetic of `np.fft.fftn`, bitwise, without its per-call overhead.

    `laplacian_enabled=False` zeroes the wavenumbers, turning U(t) into the
    identity; used by diffusion-only oracle configurations.
    """

    def __init__(self, grid: Grid, laplacian_enabled: bool = True):
        self.grid = grid
        self.laplacian_enabled = laplacian_enabled
        self._shape = grid.shape
        ksq = grid.wavenumbers_squared()
        if not laplacian_enabled:
            ksq = np.zeros_like(ksq)
        ksq.setflags(write=False)
        self.wavenumber_squares = ksq

    def forward(self, values: np.ndarray) -> np.ndarray:
        """FFT of one flat field or a batch (..., size) of flat fields."""
        return self._per_axis(np.fft.fft, values)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return self._per_axis(np.fft.ifft, values)

    def _per_axis(self, transform, values: np.ndarray) -> np.ndarray:
        out = values.reshape(values.shape[:-1] + self._shape)
        for axis in range(-1, -1 - len(self._shape), -1):
            out = transform(out, axis=axis)
        return out.reshape(values.shape)

    def multiplier(self, t: float) -> np.ndarray:
        """exp(-i |k|^2 t), flat; unit modulus for every mode and t."""
        return np.exp(-1j * self.wavenumber_squares.reshape(-1) * t)

    def evolve_values(self, values: np.ndarray, t: float) -> np.ndarray:
        if t == 0.0:
            return values.copy()
        return self.inverse(self.multiplier(t) * self.forward(values))

    def free_evolve(self, f: ComplexField, t: float) -> ComplexField:
        if f.grid != self.grid:
            raise GridMismatch("field grid differs from plan grid")
        return ComplexField(self.grid, self.evolve_values(f.values, t))


@lru_cache(maxsize=16)
def get_plan(grid: Grid, laplacian_enabled: bool = True) -> SpectralPlan:
    return SpectralPlan(grid, laplacian_enabled)


def free_evolve(f: ComplexField, t: float) -> ComplexField:
    """U(t) f through a cached plan for f's grid."""
    return get_plan(f.grid).free_evolve(f, t)


def duhamel_convolution(forcing: Trajectory, t: float, plan: SpectralPlan | None = None) -> ComplexField:
    """Left-endpoint quadrature of int_0^t U(t - s) f(s) ds.

    sum over mesh points t_l < t of U(t - t_l) f(t_l) (t_{l+1} ∧ t - t_l).
    """
    if len(forcing) == 0:
        raise EmptyTrajectory("forcing trajectory has no samples")
    plan = plan or get_plan(forcing.grid)
    if plan.grid != forcing.grid:
        raise GridMismatch("forcing grid differs from plan grid")
    times = np.asarray(forcing.times)
    acc = np.zeros(forcing.grid.size, dtype=np.complex128)
    for l, tl in enumerate(times):
        if tl >= t:
            break
        t_next = times[l + 1] if l + 1 < len(times) else t
        dt = min(t_next, t) - tl
        if dt <= 0:
            continue
        fl = forcing.state_at_index(l).values
        acc += dt * plan.multiplier(t - tl) * plan.forward(fl)
    return ComplexField(forcing.grid, plan.inverse(acc))


@dataclass
class ModeForcing:
    """Per-mode integrand Phi_m(t_l) of the stochastic convolution.

    `fields` has shape (len(mesh), M, grid.size); row l holds the M mode
    fields at mesh point l.
    """

    grid: Grid
    mesh: np.ndarray
    fields: np.ndarray

    def __post_init__(self):
        self.mesh = np.asarray(self.mesh, dtype=float)
        self.fields = np.asarray(self.fields, dtype=np.complex128)
        if self.fields.ndim != 3 or self.fields.shape[0] != self.mesh.size:
            raise MeshMismatch(
                f"fields shape {self.fields.shape} does not match mesh of {self.mesh.size} points"
            )
        if self.fields.shape[2] != self.grid.size:
            raise GridMismatch("mode fields do not match grid size")


def stochastic_convolution(
    integrand: ModeForcing, increments: BrownianPath, t: float, plan: SpectralPlan | None = None
) -> ComplexField:
    """Itô left-point sum over modes m and mesh points t_l < t of

        U(t - t_l) Phi_m(t_l) dbeta_m(t_l).
    """
    plan = plan or get_plan(integrand.grid)
    if plan.grid != integrand.grid:
        raise GridMismatch("integrand grid differs from plan grid")
    mesh = increments.mesh
    if mesh.size != integrand.mesh.size or not np.allclose(mesh, integrand.mesh):
        raise MeshMismatch("integrand and increment meshes differ")
    n_modes = increments.increments.shape[0]
    if integrand.fields.shape[1] != n_modes:
        raise MeshMismatch(
            f"integrand supplies {integrand.fields.shape[1]} modes, path has {n_modes}"
        )
    acc = np.zeros(integrand.grid.size, dtype=np.complex128)
    for l in range(mesh.size - 1):
        tl = mesh[l]
        if tl >= t:
            break
        step = integrand.fields[l].T @ increments.increments[:, l]
        acc += plan.multiplier(t - tl) * plan.forward(step)
    return ComplexField(integrand.grid, plan.inverse(acc))


def estimate_strichartz_constant(
    plan: SpectralPlan,
    samples: int,
    pair: StrichartzPair,
    T: float,
    seed: int,
    steps: int = 64,
) -> float:
    """Empirical lower bound on the homogeneous Strichartz constant.

    Max over `samples` random unit-L^2 fields of the discrete
    L^q(0,T;L^p) norm of the free evolution.  Never asserted against a
    theoretical value; reported as an estimate only.
    """
    rng = np.random.default_rng(seed)
    q = float(pair.q)
    p = float(pair.p)
    mesh = np.linspace(0.0, T, steps + 1)
    best = 0.0
    for _ in range(samples):
        x = random_field(plan.grid, rng, unit_l2=True)
        total = 0.0
        for l in range(steps):
            ul = plan.free_evolve(x, mesh[l])
            total += lp_norm(ul, p) ** q * (mesh[l + 1] - mesh[l])
        best = max(best, total ** (1.0 / q))
    return best
