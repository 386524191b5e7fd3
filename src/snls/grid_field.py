"""Periodic-box discretization, complex state fields and discrete norms.

The box is [-L/2, L/2)^d sampled with n points per axis (n a power of two),
cell volume h^d with h = L/n.  Discrete Lebesgue norms carry the h^d weight
so they approximate their continuum counterparts; time-integrated (Bochner)
norms use left-endpoint quadrature throughout, matching the left-point
convention of the stochastic integrals.  Every module reads the time axis's
rules from here (`checked_mesh`, `check_time`, `checked_increments`, and
`time_index` with its `TIME_SLACK`), as it reads the row kernel `mode_sum`.

A `Trajectory` records states together with the running L^2 norm ("mass"
column in exports) and the raw accumulators behind the running norm

    Z_t = ||u||_{L^q(0,t;L^p1)} + ||u||_{L^qt(0,t;L^p2)},

stored as the power integrals int_0^t ||u(s)||_{p}^{q} ds (or a running sup
when the second temporal exponent is infinite, which happens at gamma = 1).
Raw powers are sums, so `fill_accumulators` extends them by a left fold
from any starting value: the solver one block of steps at a time, and
`Trajectory.from_states` from the `acc0` it is given.  The roots are taken
only where Z is read (`z_components`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyTrajectory, GridMismatch, LengthMismatch, MeshMismatch, OutOfRange, SnlsError
from .exponents import ZExponents

_HEADER = struct.Struct("<qqd")  # d, n as int64, L as float64, little-endian

# Cap on the bytes of one (R, size) complex128 stack that is marched or
# transformed at once; `stack_slices` is the one rule that turns it into
# rows, for an ensemble's chunks, every other stacked march and the blocks
# of steps a split-step march records.  Set from paths/s measured at caps
# of 16 KiB to 16 MiB (2 CPUs, d = 1 and d = 2 ensembles): smaller caps
# were slower (about 0.55x at 16 KiB for d = 1, n = 128), larger ones gave
# no resolved gain, and peak RSS grows with the stack (+25 MB at 4 MiB for
# d = 2, n = 128).
CHUNK_STACK_BYTES = 1 << 18

# How far a time may lie from a mesh or recorded time and still be read as it.
TIME_SLACK = 1e-12


@dataclass(frozen=True)
class Grid:
    """Periodic box [-L/2, L/2)^d with n points per axis."""

    d: int
    n: int
    L: float

    def __post_init__(self):
        # checked inline (`config` imports this module), and stricter than
        # `config.as_integer`, which reads 4.0 as 4
        for name in ("d", "n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise OutOfRange(f"grid {name} must be an integer, got {value!r}")
        if isinstance(self.L, bool) or not isinstance(self.L, (int, float)):
            raise OutOfRange(f"side length must be a real number, got {self.L!r}")
        if self.d not in (1, 2, 3):
            raise OutOfRange(f"grid dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise OutOfRange(f"points per axis must be a power of two >= 2, got {self.n}")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise OutOfRange(f"side length must be positive and finite, got {self.L}")
        object.__setattr__(self, "L", float(self.L))

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis_coords(self) -> np.ndarray:
        """Sample points -L/2 + j*h along one axis."""
        return -0.5 * self.L + self.h * np.arange(self.n)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coords()
        return np.meshgrid(*([x] * self.d), indexing="ij")

    def wavenumbers_squared(self) -> np.ndarray:
        """|k|^2 per mode in FFT ordering, shape = grid.shape."""
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)
        axes = np.meshgrid(*([k1] * self.d), indexing="ij")
        return sum(k * k for k in axes)


class ComplexField:
    """Complex-valued state sampled on a Grid, flat row-major storage.

    Values are validated finite on construction and frozen afterwards;
    operations produce new fields.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.array(values, dtype=np.complex128, copy=True).reshape(-1)
        if values.size != grid.size:
            raise GridMismatch(
                f"field has {values.size} values, grid expects {grid.size}"
            )
        require_finite(values)
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def __sub__(self, other: "ComplexField") -> "ComplexField":
        _check_same_grid(self, other)
        return ComplexField(self.grid, self.values - other.values)

    def scaled(self, c: complex) -> "ComplexField":
        return ComplexField(self.grid, c * self.values)


def require_finite(values: np.ndarray) -> None:
    """Raise SnlsError unless every complex value (any shape) is finite."""
    if not np.all(np.isfinite(values.view(np.float64))):
        raise SnlsError("field contains non-finite values")


def _check_same_grid(a: ComplexField, b: ComplexField) -> None:
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def constant_field(grid: Grid, value: complex) -> ComplexField:
    return ComplexField(grid, np.full(grid.size, value, dtype=np.complex128))


def gaussian_field(
    grid: Grid, amplitude: complex = 1.0, width: float = 1.0, center=None
) -> ComplexField:
    """amplitude * exp(-|x - center|^2 / (2 width^2))."""
    if not width > 0:
        raise OutOfRange(f"width must be positive, got {width}")
    center = np.zeros(grid.d) if center is None else np.asarray(center, dtype=float)
    if center.shape != (grid.d,):
        raise OutOfRange(f"center must have {grid.d} components")
    axes = grid.meshgrid()
    r2 = sum((ax - c) ** 2 for ax, c in zip(axes, center))
    return ComplexField(grid, amplitude * np.exp(-r2 / (2.0 * width**2)))

def plane_wave_field(grid: Grid, mode, amplitude: complex = 1.0) -> ComplexField:
    """amplitude * exp(i k.x) with k = 2 pi mode / L, integer mode per axis."""
    mode = np.atleast_1d(np.asarray(mode))
    if mode.shape != (grid.d,) or mode.dtype.kind not in "iu":
        raise OutOfRange(f"mode must have {grid.d} integer components")
    axes = grid.meshgrid()
    phase = sum(2.0 * np.pi * m / grid.L * ax for m, ax in zip(mode, axes))
    return ComplexField(grid, amplitude * np.exp(1j * phase))


def random_field(grid: Grid, rng: np.random.Generator, unit_l2: bool = False) -> ComplexField:
    """Complex standard-normal field; optionally normalized to L^2 norm 1."""
    v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    f = ComplexField(grid, v)
    if unit_l2:
        f = f.scaled(1.0 / lp_norm(f, 2))
    return f


def lp_norm(f: ComplexField, p: float) -> float:
    """Discrete L^p norm (sum |f_i|^p h^d)^(1/p); max |f_i| for p = inf."""
    return float(lp_norm_rows(f.values, p, f.grid))


def lp_norm_rows(values: np.ndarray, p: float, grid: Grid) -> np.ndarray:
    """`lp_norm` of each row of a (P, grid.size) stack of values, bitwise
    equal to the norm of that row alone."""
    if not p >= 1:
        raise OutOfRange(f"p must be >= 1 or inf, got {p}")
    return _row_lp(np.abs(values), p, grid.cell_volume)


def stack_slices(n_rows: int, row_size: int) -> list:
    """Consecutive slices of `n_rows` rows of `row_size` complex128 values
    each, whose stacks hold at most CHUNK_STACK_BYTES (one row at least).

    The rows are paths, fields or times of a stacked march, or the states
    0 .. K of a split-step march, each a row of P * size values, which the
    solver records block by block."""
    rows = max(1, CHUNK_STACK_BYTES // (16 * row_size))
    return [slice(s, min(s + rows, n_rows)) for s in range(0, n_rows, rows)]


def mode_sum(dinc: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """sum_m dinc[..., m] fields[m], accumulated in mode order.

    `dinc` is (M,) for one field or (R, M) for a stack of R rows, cast to
    the product's type once rather than by numpy's buffers in every product.
    No matrix product: BLAS may block a product differently for different
    row counts, which would make a row depend on the size of its stack.
    """
    d = dinc.astype(np.result_type(dinc, fields), copy=False)[..., None]
    out = d[..., 0, :] * fields[0]
    for m in range(1, fields.shape[0]):
        out = out + d[..., m, :] * fields[m]
    return out


def _row_lp(a: np.ndarray, p: float, cell: float, sq=None):
    """L^p norms over the last axis of a = |v|; `sq` may carry sum(a*a)."""
    if p == math.inf:
        return np.max(a, axis=-1)
    if p == 2.0:
        return np.sqrt((np.add.reduce(a * a, axis=-1) if sq is None else sq) * cell)
    return np.power(np.add.reduce(np.power(a, p), axis=-1) * cell, 1.0 / p)


def norms_and_leakage(a: np.ndarray, grid: Grid, p1: float, p2: float):
    """(L^2, L^p1, L^p2) norms over the last axis of a = |v|, and the
    fraction of sum |v|^2 outside [-L/4, L/4)^d, from one pass that forms
    |v|^2 and its row sum.

    The one arithmetic for the recorded norms: the solver applies it to a
    (P, size) stack of paths, `Trajectory.from_states` to the states of one
    trajectory.  Every operation is a numpy ufunc or a row-wise sum over a
    C-contiguous last axis, so a row's results do not depend on the rows
    stacked with it.  The outside part is gathered with `np.take` into a
    C-contiguous block for that reason (a boolean column mask would gather
    into an F-ordered copy whose row sums differ in rounding).  Row sums
    call `np.add.reduce`, which `np.sum` dispatches to, without the
    wrapper's per-call cost.
    """
    a2 = a * a
    sq = np.asarray(np.add.reduce(a2, axis=-1))
    outside = np.asarray(np.add.reduce(np.take(a2, _outside_halfbox_index(grid), axis=-1), axis=-1))
    # divided in place: where sq == 0 every |v|^2 is 0, so the 0 left there is the leakage
    leak = np.divide(outside, sq, out=outside, where=sq != 0.0)
    l2 = _row_lp(a, 2.0, grid.cell_volume, sq)
    return (l2, *(l2 if p == 2.0 else _row_lp(a, p, grid.cell_volume) for p in (p1, p2)), leak)


def mass_outside_central_halfbox(f: ComplexField) -> float:
    """Fraction of ||f||_2^2 carried outside [-L/4, L/4)^d.

    Wrap-around monitor for the periodic surrogate of free space: runs are
    trustworthy only while this stays tiny.
    """
    return float(norms_and_leakage(np.abs(f.values), f.grid, 2.0, 2.0)[-1])


@lru_cache(maxsize=16)
def _outside_halfbox_index(grid: Grid) -> np.ndarray:
    """Read-only flat indices of the points outside [-L/4, L/4)^d."""
    outside = np.zeros(grid.shape, dtype=bool)
    for ax in grid.meshgrid():
        outside |= np.abs(ax) >= 0.25 * grid.L
    index = np.flatnonzero(outside)
    index.setflags(write=False)
    return index


# ---------------------------------------------------------------------------
# Trajectories and running norms
# ---------------------------------------------------------------------------


def fill_accumulators(acc1, acc2, n1, n2, dt, zexp: ZExponents) -> None:
    """Fill the running-norm accumulators at t_1 .. t_m, in place along the
    first (time) axis, from those at t_0 in acc1[0] and acc2[0], the norms
    (n1, n2) = (||u(t_j)||_p1, ||u(t_j)||_p2) at t_0 .. t_{m-1} and the step
    lengths dt_j = t_{j+1} - t_j: left-endpoint power integrals, or a
    running max for the second component when qt = inf.

    The one accumulator arithmetic, for the solver's blocks of steps and
    for `Trajectory.from_states`.  The terms ||u(t_j)||^q dt_j follow the
    starting value and `np.add.accumulate` sums them (`np.maximum.accumulate`
    maxes the norms): the same left fold as adding them one step at a time,
    so the accumulators do not depend on how the steps are grouped.
    """
    q, qt = zexp.powers
    np.multiply(np.power(n1, q), dt, out=acc1[1:])
    np.add.accumulate(acc1, axis=0, out=acc1)
    if zexp.q_tilde_finite:
        np.multiply(np.power(n2, qt), dt, out=acc2[1:])
        np.add.accumulate(acc2, axis=0, out=acc2)
    else:
        acc2[1:] = n2
        np.maximum.accumulate(acc2, axis=0, out=acc2)


def checked_mesh(mesh) -> np.ndarray:
    """`mesh` as a float array, which must be one-dimensional and strictly
    increasing (no NaN point); else OutOfRange."""
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 1:
        raise OutOfRange("mesh must be one-dimensional")
    if mesh.size >= 2 and not np.all(np.diff(mesh) > 0):
        raise OutOfRange("mesh must be strictly increasing")
    return mesh


def check_time(t: float) -> None:
    """Reject a NaN time: every comparison with it is False, so the prefix
    of mesh points before it would be empty and the result a silent zero."""
    if np.isnan(t):
        raise OutOfRange(f"t must be a number, got {t}")


def checked_increments(mesh, increments, n_modes: int):
    """Mesh and (P, M, K) increment block, checked against each other and
    against the model's mode count."""
    mesh = checked_mesh(mesh)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3:
        raise LengthMismatch(f"increments must be a (P, M, K) block, got shape {increments.shape}")
    if increments.shape[1] != n_modes:
        raise LengthMismatch(f"path carries {increments.shape[1]} modes, model has {n_modes}")
    if increments.shape[2] != max(mesh.size - 1, 0):
        raise MeshMismatch(f"{increments.shape[2]} increments on a mesh of {mesh.size} points")
    return mesh, increments


def time_index(times, t: float) -> int:
    """The index j of increasing `times` with |times[j] - t| <= TIME_SLACK;
    any other t, NaN included, raises OutOfRange."""
    j = int(np.searchsorted(times, t - TIME_SLACK))
    if not (j < len(times) and abs(times[j] - t) <= TIME_SLACK):
        raise OutOfRange(f"t={t} is not one of the {len(times)} recorded times")
    return j


def z_components(acc1, acc2, zexp: ZExponents):
    """The two running-norm components (roots of the raw accumulators),
    elementwise over scalars or arrays with numpy ufuncs, so a single
    lookup and a whole column agree bitwise."""
    q, qt = zexp.powers
    c1 = np.power(acc1, 1.0 / q)
    if zexp.q_tilde_finite:
        return c1, np.power(acc2, 1.0 / qt)
    return c1, acc2


class Trajectory:
    """Time-stamped states plus running mass and running-norm accumulators.

    Columnar: `times`, `running_mass`, `acc1`, `acc2` are float arrays with
    one entry per recorded time, and `states`, when kept, is one
    (len(times), grid.size) complex block (else None).  `acc1[j]` is the
    left-endpoint power integral of ||u||_{p1}^{q} up to t_j; `acc2[j]` is
    the analogous integral for (qt, p2), or the max of ||u(t_l)||_{p2} over
    l < j when qt = inf.  Both start from their values at `times[0]`: zero
    for a whole run, a prefix's last accumulators for a window that
    continues it.  Z is read only at the recorded times, never between or
    beyond them.

    The solver builds trajectories from its columns, everything else
    through `from_states`.
    """

    def __init__(self, grid: Grid, zexp: ZExponents, times, running_mass, acc1, acc2, states):
        self.grid = grid
        self.zexp = zexp
        self.times = times
        self.running_mass = running_mass
        self.acc1 = acc1
        self.acc2 = acc2
        self.states = states

    @classmethod
    def from_states(cls, times, states, zexp: ZExponents, acc0=(0.0, 0.0)) -> "Trajectory":
        """The trajectory of `states` (fields on one grid) at strictly
        increasing `times`, with accumulators `acc0` at times[0].

        Norms and accumulators come from `norms_and_leakage` on the stacked
        states and `fill_accumulators` on its norm columns, the solver's
        arithmetic, so the columns equal the solver's bitwise.
        """
        if not len(states):
            raise EmptyTrajectory("trajectory has no samples")
        times = np.array(times, dtype=float)
        if times.shape != (len(states),):
            raise LengthMismatch(f"{times.size} times for {len(states)} states")
        checked_mesh(times)
        grid = states[0].grid
        if any(s.grid != grid for s in states):
            raise GridMismatch("states lie on different grids")
        block = np.stack([s.values for s in states])
        mass, n1, n2, _ = norms_and_leakage(np.abs(block), grid, float(zexp.p1), float(zexp.p2))
        acc1, acc2 = (np.full(len(times), a) for a in acc0)
        fill_accumulators(acc1, acc2, n1[:-1], n2[:-1], np.diff(times), zexp)
        return cls(grid, zexp, times, mass, acc1, acc2, block)

    def z_components_at(self, t: float) -> tuple[float, float]:
        """The two running-norm components at the recorded time t (within
        TIME_SLACK); any other t, NaN included, raises OutOfRange."""
        j = time_index(self.times, t)
        c1, c2 = z_components(float(self.acc1[j]), float(self.acc2[j]), self.zexp)
        return float(c1), float(c2)

    def z_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Both running-norm components at every recorded time, in O(len)."""
        return z_components(self.acc1, self.acc2, self.zexp)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def field_to_bytes(f: ComplexField) -> bytes:
    """Header (d, n int64 LE; L float64 LE) + interleaved re/im float64 LE."""
    header = _HEADER.pack(f.grid.d, f.grid.n, f.grid.L)
    return header + f.values.astype("<c16").tobytes()


def field_from_bytes(data: bytes) -> ComplexField:
    if len(data) < _HEADER.size:
        raise SnlsError("field blob too short for header")
    d, n, L = _HEADER.unpack_from(data)
    grid = Grid(d=int(d), n=int(n), L=float(L))
    payload = np.frombuffer(data, dtype="<c16", offset=_HEADER.size)
    if payload.size != grid.size:
        raise SnlsError(
            f"field blob has {payload.size} values, header promises {grid.size}"
        )
    return ComplexField(grid, payload.astype(np.complex128))


def write_field(path, f: ComplexField) -> None:
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(f))


def read_field(path) -> ComplexField:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())


def trajectory_csv_lines(traj: Trajectory):
    """CSV rows (t, mass, z_component_1, z_component_2, z_total)."""
    yield "t,mass,z_component_1,z_component_2,z_total"
    c1, c2 = traj.z_columns()
    columns = (traj.times, traj.running_mass, c1, c2, c1 + c2)
    for t, m, z1, z2, z in zip(*(col.tolist() for col in columns)):
        yield f"{t!r},{m!r},{z1!r},{z2!r},{z!r}"


def write_trajectory_csv(path, traj: Trajectory) -> None:
    with open(path, "w", newline="") as fh:
        for line in trajectory_csv_lines(traj):
            fh.write(line + "\r\n")
