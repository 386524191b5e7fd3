"""Periodic-box discretization, complex state fields and discrete norms.

The box is [-L/2, L/2)^d sampled with n points per axis (n a power of two),
cell volume h^d with h = L/n.  Discrete Lebesgue norms carry the h^d weight
so they approximate their continuum counterparts; time-integrated (Bochner)
norms use left-endpoint quadrature throughout, matching the left-point
convention of the stochastic integrals.

A `Trajectory` records states together with the running L^2 norm ("mass"
column in exports) and the raw accumulators behind the running norm

    Z_t = ||u||_{L^q(0,t;L^p1)} + ||u||_{L^qt(0,t;L^p2)},

stored as the power integrals int_0^t ||u(s)||_{p}^{q} ds (or a running sup
when the second temporal exponent is infinite, which happens at gamma = 1).
Storing raw powers lets a window continue a prefix by starting from the
prefix's last accumulators.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyTrajectory, GridMismatch, LengthMismatch, OutOfRange, SnlsError
from .exponents import ModelParams, ZExponents, z_exponents

_HEADER = struct.Struct("<qqd")  # d, n as int64, L as float64, little-endian


@dataclass(frozen=True)
class Grid:
    """Periodic box [-L/2, L/2)^d with n points per axis."""

    d: int
    n: int
    L: float

    def __post_init__(self):
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

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def __add__(self, other: "ComplexField") -> "ComplexField":
        _check_same_grid(self, other)
        return ComplexField(self.grid, self.values + other.values)

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


def zero_field(grid: Grid) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.size, dtype=np.complex128))


def gaussian_field(
    grid: Grid, amplitude: complex = 1.0, width: float = 1.0, center=None
) -> ComplexField:
    """amplitude * exp(-|x - center|^2 / (2 width^2))."""
    if width <= 0:
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
    if p < 1:
        raise OutOfRange(f"p must be >= 1 or inf, got {p}")
    return _row_lp(np.abs(values), p, grid.cell_volume)


def _row_lp(a: np.ndarray, p: float, cell: float, sq=None):
    """L^p norms over the last axis of a = |v|; `sq` may carry sum(a*a)."""
    if p == math.inf:
        return np.max(a, axis=-1)
    if p == 2.0:
        return np.sqrt((np.sum(a * a, axis=-1) if sq is None else sq) * cell)
    return np.power(np.sum(np.power(a, p), axis=-1) * cell, 1.0 / p)


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
    into an F-ordered copy whose row sums differ in rounding).
    """
    a2 = a * a
    sq = np.asarray(np.sum(a2, axis=-1))
    outside = np.sum(np.take(a2, _outside_halfbox_index(grid), axis=-1), axis=-1)
    leak = np.divide(outside, sq, out=np.zeros_like(sq), where=sq != 0.0)
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


def advance_accumulators(acc1, acc2, n1, n2, dt, zexp: ZExponents):
    """Running-norm accumulators at t + dt from those at t and the norms
    (n1, n2) = (||u(t)||_p1, ||u(t)||_p2): left-endpoint power integrals,
    or a running sup for the second component when qt = inf.  Scalars or
    arrays alike, with the same ufunc arithmetic."""
    q, qt = zexp.powers
    a1 = acc1 + np.power(n1, q) * dt
    if zexp.q_tilde_finite:
        return a1, acc2 + np.power(n2, qt) * dt
    return a1, np.maximum(acc2, n2)


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
    (len, grid.size) complex block (else None); `state_at_index` reads one
    row as a field.  `acc1[j]` is the left-endpoint power integral of
    ||u||_{p1}^{q} up to t_j; `acc2[j]` is the analogous integral for
    (qt, p2), or the max of ||u(t_l)||_{p2} over l < j when qt = inf.  Both
    start from their values at `times[0]`: zero for a whole run, a prefix's
    last accumulators for a window that continues it.  `last_norms` holds
    (||u||_p1, ||u||_p2) of the last state.

    The solver builds trajectories from its columns, everything else
    through `from_states`.
    """

    def __init__(self, grid: Grid, zexp: ZExponents, times, running_mass, acc1, acc2, states, last_norms):
        self.grid = grid
        self.zexp = zexp
        self.times = times
        self.running_mass = running_mass
        self.acc1 = acc1
        self.acc2 = acc2
        self.states = states
        self.last_norms = last_norms

    @classmethod
    def from_states(cls, times, states, zexp: ZExponents, acc0=(0.0, 0.0)) -> "Trajectory":
        """The trajectory of `states` (fields on one grid) at strictly
        increasing `times`, with accumulators `acc0` at times[0].

        Norms and accumulators come from `norms_and_leakage` on the stacked
        states and `advance_accumulators` step by step, the solver's
        arithmetic, so the columns equal the solver's bitwise.
        """
        if not len(states):
            raise EmptyTrajectory("trajectory has no samples")
        times = np.array(times, dtype=float)
        if times.shape != (len(states),):
            raise LengthMismatch(f"{times.size} times for {len(states)} states")
        if np.any(np.diff(times) <= 0.0):
            raise OutOfRange(f"times must increase, got {times}")
        grid = states[0].grid
        if any(s.grid != grid for s in states):
            raise GridMismatch("states lie on different grids")
        block = np.stack([s.values for s in states])
        mass, n1, n2, _ = norms_and_leakage(np.abs(block), grid, float(zexp.p1), float(zexp.p2))
        acc1 = np.empty(len(times))
        acc2 = np.empty(len(times))
        acc1[0], acc2[0] = acc0
        for j in range(1, len(times)):
            acc1[j], acc2[j] = advance_accumulators(
                acc1[j - 1], acc2[j - 1], n1[j - 1], n2[j - 1], times[j] - times[j - 1], zexp
            )
        return cls(grid, zexp, times, mass, acc1, acc2, block, (n1[-1], n2[-1]))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def state_at_index(self, j: int) -> ComplexField:
        if self.states is None:
            raise EmptyTrajectory("trajectory was recorded without states")
        return ComplexField(self.grid, self.states[j])

    def _locate(self, t: float) -> int:
        """Largest index j with times[j] <= t."""
        if t < self.times[0] - 1e-12:
            raise OutOfRange(f"t={t} precedes trajectory start {self.times[0]}")
        j = int(np.searchsorted(self.times, t, side="right") - 1)
        return max(j, 0)

    def z_components_at(self, t: float) -> tuple[float, float]:
        """The two running-norm components at time t (interpolated)."""
        c1, c2 = z_components(*self.raw_accumulators_at(t), self.zexp)
        return float(c1), float(c2)

    def z_end(self) -> float:
        """Z at the last recorded time, from the last accumulators in O(1)."""
        c1, c2 = z_components(self.acc1[-1], self.acc2[-1], self.zexp)
        return float(c1 + c2)

    def z_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Both running-norm components at every recorded time, in O(len)."""
        return z_components(self.acc1, self.acc2, self.zexp)

    def raw_accumulators_at(self, t: float) -> tuple[float, float]:
        """Raw power integrals (or sup) at t, left-constant between samples."""
        j = self._locate(t)
        times, acc1, acc2 = self.times, self.acc1, self.acc2
        frac = t - float(times[j])
        if frac <= 0.0 or j == len(times) - 1:
            # between the last sample and t the integrand is the last state
            if frac > 0.0:
                a1, a2 = advance_accumulators(acc1[j], acc2[j], *self.last_norms, frac, self.zexp)
                return float(a1), float(a2)
            return float(acc1[j]), float(acc2[j])
        # t lies strictly between samples j and j+1: integrand is state j
        span = float(times[j + 1] - times[j])
        a1 = float(acc1[j]) + float(acc1[j + 1] - acc1[j]) / span * frac
        if self.zexp.q_tilde_finite:
            a2 = float(acc2[j]) + float(acc2[j + 1] - acc2[j]) / span * frac
        else:
            a2 = float(acc2[j + 1])
        return a1, a2


def bochner_norm(traj: Trajectory, q: float, p: float, t_end: float) -> float:
    """(sum_j ||u(t_j)||_p^q dt_j)^(1/q) up to t_end, left-endpoint quadrature.

    For q = inf, the running max of ||u(t_j)||_p over samples t_j < t_end.
    Recomputed from the stored states, independently of the trajectory's
    accumulators.
    """
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no samples")
    if t_end > traj.t_end + 1e-12:
        raise OutOfRange(f"t_end={t_end} beyond trajectory end {traj.t_end}")
    times = np.asarray(traj.times)
    if q == math.inf:
        best = 0.0
        for j, tj in enumerate(times):
            if tj >= t_end:
                break
            best = max(best, lp_norm(traj.state_at_index(j), p))
        return best
    total = 0.0
    for j, tj in enumerate(times):
        if tj >= t_end:
            break
        t_next = times[j + 1] if j + 1 < len(times) else t_end
        dt = min(t_next, t_end) - tj
        if dt <= 0:
            continue
        total += lp_norm(traj.state_at_index(j), p) ** q * dt
    return total ** (1.0 / q) if total > 0 else 0.0


def z_process(traj: Trajectory, t: float, params: ModelParams | None = None) -> float:
    """Running norm Z_t: sum of the two Bochner-norm components up to t.

    Read from the accumulators, so it is exactly 0.0 at the start of a
    whole run and the prefix's Z at the start of a window built on one.
    """
    if params is not None:
        expected = z_exponents(params)
        if expected != traj.zexp:
            raise SnlsError(
                f"trajectory exponents {traj.zexp} do not match params {expected}"
            )
    c1, c2 = traj.z_components_at(t)
    return c1 + c2


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
