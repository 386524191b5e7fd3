"""Free Schrödinger group as a spectral multiplier, plus convolutions.

The group U(t) acts mode-by-mode as exp(-i |k|^2 t) on the FFT of the field,
so it is exactly unitary in the discrete L^2 norm up to rounding.  The
Duhamel and stochastic convolutions are left-endpoint quadratures of
U(t - s) applied to sampled forcings, matching the Itô convention used
everywhere in the package; both are one sum in Fourier space followed by
one inverse FFT.  `free_strichartz_norm` is the discrete L^q(0,T;L^p) norm
of U(.)x behind the empirical Strichartz constant.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EmptyTrajectory, GridMismatch, LengthMismatch, MeshMismatch
from .exponents import StrichartzPair
from .grid_field import ComplexField, Grid, lp_norm_rows, random_field
from .noise import _check_time, _checked_mesh, _stack_increments, mode_sum


class SpectralPlan:
    """Cached wavenumbers and transforms for one grid.

    Each transform is one 1-D FFT per spatial axis, last axis first: the
    arithmetic of `np.fft.fftn`, bitwise, without its per-call overhead.  At
    d = 1 that is a single call on the (..., size) array, with no reshape.

    `laplacian_enabled=False` zeroes the wavenumbers, turning U(t) into the
    identity; used by diffusion-only oracle configurations.
    """

    def __init__(self, grid: Grid, laplacian_enabled: bool = True):
        self.grid = grid
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
        if len(self._shape) == 1:
            return transform(values)
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


@lru_cache(maxsize=16)
def get_plan(grid: Grid, laplacian_enabled: bool = True) -> SpectralPlan:
    return SpectralPlan(grid, laplacian_enabled)


def free_evolve(f: ComplexField, t: float) -> ComplexField:
    """U(t) f through a cached plan for f's grid."""
    return ComplexField(f.grid, get_plan(f.grid).evolve_values(f.values, t))


def _left_endpoint_sum(plan: SpectralPlan, starts, t: float, terms, shape) -> np.ndarray:
    """Inverse FFT of sum_l multiplier(t - starts[l]) * terms[l], summed in
    Fourier space in the order of l; each term is an array of `shape`."""
    acc = np.zeros(shape, dtype=np.complex128)
    for tl, term in zip(starts, terms):
        acc += plan.multiplier(t - tl) * term
    return plan.inverse(acc)


def duhamel_convolution(plan: SpectralPlan, times, forcing, t: float) -> np.ndarray:
    """Left-endpoint quadrature of int_0^t U(t - s) f(s) ds,

        sum over t_l < t of U(t - t_l) f(t_l) (t_{l+1} ∧ t - t_l),

    the last sample running up to t.  `forcing` is a (len(times),
    grid.size) array of the samples f(t_l); the result is a flat array.
    """
    _check_time(t)
    times = _checked_mesh(times)
    forcing = np.asarray(forcing, dtype=np.complex128)
    if not times.size:
        raise EmptyTrajectory("forcing has no samples")
    if forcing.ndim != 2 or forcing.shape[0] != times.size:
        raise LengthMismatch(f"forcing shape {forcing.shape} does not match {times.size} times")
    if forcing.shape[1] != plan.grid.size:
        raise GridMismatch("forcing does not match the plan's grid")
    n = np.count_nonzero(times < t)  # the times increase, so those before t are a prefix
    weights = np.minimum(np.append(times[1:], t)[:n], t) - times[:n]
    terms = weights[:, None] * plan.forward(forcing[:n])
    return _left_endpoint_sum(plan, times[:n], t, terms, plan.grid.size)


def stochastic_convolution(plan: SpectralPlan, mesh, fields, increments, t: float) -> np.ndarray:
    """Itô left-point sum over modes m and mesh points t_l < t of

        U(t - t_l) Phi_m(t_l) dbeta_m(t_l)

    for a (P, M, K) block of increments on `mesh`, as a (P, grid.size)
    array.  `fields` has shape (len(mesh), M, grid.size); row l holds the M
    mode fields Phi_m(t_l).  By linearity each mode field is transformed
    once, for all paths, and the modes are summed in Fourier space in mode
    order.
    """
    _check_time(t)
    fields = np.asarray(fields, dtype=np.complex128)
    if fields.ndim != 3 or fields.shape[0] != np.size(mesh):
        raise MeshMismatch(f"fields shape {fields.shape} does not match a mesh of {np.size(mesh)} points")
    if fields.shape[2] != plan.grid.size:
        raise GridMismatch("mode fields do not match the plan's grid")
    mesh, increments = _stack_increments(mesh, increments, fields.shape[1])
    n = np.count_nonzero(mesh[:-1] < t) if fields.shape[1] else 0  # no modes: a zero sum
    modes_hat = plan.forward(fields[:n])
    terms = (mode_sum(increments[:, :, l], modes_hat[l]) for l in range(n))
    return _left_endpoint_sum(plan, mesh[:n], t, terms, (increments.shape[0], plan.grid.size))


def free_strichartz_norm(plan: SpectralPlan, values: np.ndarray, pair: StrichartzPair, mesh) -> float:
    """Discrete L^q(0,T;L^p) norm of the free evolution of the flat field
    `values` on `mesh`,

        (sum_l ||U(t_l) x||_p^q (t_{l+1} - t_l))^(1/q),

    accumulated in time order; U(0) x is x itself."""
    mesh = np.asarray(mesh, dtype=float)
    q, p = float(pair.q), float(pair.p)
    total = 0.0
    for tl, dt in zip(mesh[:-1], np.diff(mesh)):
        total += float(lp_norm_rows(plan.evolve_values(values, tl), p, plan.grid)) ** q * dt
    return total ** (1.0 / q)


def estimate_strichartz_constant(
    plan: SpectralPlan,
    samples: int,
    pair: StrichartzPair,
    T: float,
    seed: int,
) -> float:
    """Empirical lower bound on the homogeneous Strichartz constant.

    Max over `samples` random unit-L^2 fields of `free_strichartz_norm` on
    64 equal steps of [0, T].  Never asserted against a theoretical value;
    reported as an estimate only.
    """
    rng = np.random.default_rng(seed)
    mesh = np.linspace(0.0, T, 65)
    return max(
        (free_strichartz_norm(plan, random_field(plan.grid, rng, unit_l2=True).values, pair, mesh) for _ in range(samples)),
        default=0.0,
    )
