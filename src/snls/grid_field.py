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
Storing raw powers makes window chaining an exact addition.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EmptyTrajectory, GridMismatch, OutOfRange, SnlsError
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
        if not np.all(np.isfinite(values.view(np.float64))):
            raise SnlsError("field contains non-finite values")
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
    mode = np.atleast_1d(np.asarray(mode, dtype=int))
    if mode.shape != (grid.d,):
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
    if p == math.inf:
        return float(np.max(np.abs(f.values))) if f.values.size else 0.0
    if p < 1:
        raise OutOfRange(f"p must be >= 1 or inf, got {p}")
    a = np.abs(f.values)
    if p == 2.0:
        return float(np.sqrt(np.sum(a * a) * f.grid.cell_volume))
    return float(np.sum(a**p) * f.grid.cell_volume) ** (1.0 / p)


def mass_outside_central_halfbox(f: ComplexField) -> float:
    """Fraction of ||f||_2^2 carried outside [-L/4, L/4)^d.

    Wrap-around monitor for the periodic surrogate of free space: runs are
    trustworthy only while this stays tiny.
    """
    a2 = np.abs(f.values) ** 2
    total = float(np.sum(a2))
    if total == 0.0:
        return 0.0
    return float(np.sum(a2[_outside_halfbox_mask(f.grid)])) / total


@lru_cache(maxsize=16)
def _outside_halfbox_mask(grid: Grid) -> np.ndarray:
    """Flat read-only mask of the points outside [-L/4, L/4)^d."""
    outside = np.zeros(grid.shape, dtype=bool)
    for ax in grid.meshgrid():
        outside |= np.abs(ax) >= 0.25 * grid.L
    outside = outside.reshape(-1)
    outside.setflags(write=False)
    return outside


# ---------------------------------------------------------------------------
# Trajectories and running norms
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Time-stamped states plus running mass and running-norm accumulators.

    Built by a single writer via `append`; `times[0]` is the start time of
    the record (0 for whole runs).  `acc1[j]` is the left-endpoint power
    integral int_0^{t_j} ||u||_{p1}^{q} ds; `acc2[j]` is the analogous
    integral for (qt, p2), or max_{l<j} ||u(t_l)||_{p2} when qt = inf.
    """

    grid: Grid
    zexp: ZExponents
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    running_mass: list = field(default_factory=list)
    acc1: list = field(default_factory=list)
    acc2: list = field(default_factory=list)
    keep_states: bool = True

    @classmethod
    def start(cls, u0: ComplexField, zexp: ZExponents, t0: float = 0.0, keep_states: bool = True):
        traj = cls(grid=u0.grid, zexp=zexp, keep_states=keep_states)
        traj.times.append(float(t0))
        traj.states.append(u0 if keep_states else None)
        traj.running_mass.append(lp_norm(u0, 2))
        traj.acc1.append(0.0)
        traj.acc2.append(0.0)
        traj._last_p1 = lp_norm(u0, float(zexp.p1))
        traj._last_p2 = lp_norm(u0, float(zexp.p2))
        return traj

    def append(self, t: float, state: ComplexField) -> None:
        if state.grid != self.grid:
            raise GridMismatch("state grid differs from trajectory grid")
        t = float(t)
        t_prev = self.times[-1]
        if t <= t_prev:
            raise OutOfRange(f"times must increase: {t} after {t_prev}")
        dt = t - t_prev
        q = float(self.zexp.q)
        self.acc1.append(self.acc1[-1] + self._last_p1**q * dt)
        if self.zexp.q_tilde_finite:
            qt = float(self.zexp.q_tilde)
            self.acc2.append(self.acc2[-1] + self._last_p2**qt * dt)
        else:
            self.acc2.append(max(self.acc2[-1], self._last_p2))
        self.times.append(t)
        self.states.append(state if self.keep_states else None)
        self.running_mass.append(lp_norm(state, 2))
        self._last_p1 = lp_norm(state, float(self.zexp.p1))
        self._last_p2 = lp_norm(state, float(self.zexp.p2))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t_end(self) -> float:
        return self.times[-1]

    def state_at_index(self, j: int) -> ComplexField:
        s = self.states[j]
        if s is None:
            raise EmptyTrajectory("trajectory was recorded without states")
        return s

    def _locate(self, t: float) -> int:
        """Largest index j with times[j] <= t."""
        if not self.times:
            raise EmptyTrajectory("trajectory has no samples")
        if t < self.times[0] - 1e-12:
            raise OutOfRange(f"t={t} precedes trajectory start {self.times[0]}")
        j = int(np.searchsorted(np.asarray(self.times), t, side="right") - 1)
        return max(j, 0)

    def z_components_at(self, t: float) -> tuple[float, float]:
        """The two running-norm components at time t (interpolated)."""
        return self._components(*self.raw_accumulators_at(t))

    def z_end(self) -> float:
        """Z at the last recorded time, from the last accumulators in O(1)."""
        c1, c2 = self._components(self.acc1[-1], self.acc2[-1])
        return c1 + c2

    def _components(self, acc1: float, acc2: float) -> tuple[float, float]:
        """Running-norm components from raw accumulators (root of the powers)."""
        c1 = acc1 ** (1.0 / float(self.zexp.q)) if acc1 > 0 else 0.0
        if self.zexp.q_tilde_finite:
            c2 = acc2 ** (1.0 / float(self.zexp.q_tilde)) if acc2 > 0 else 0.0
        else:
            c2 = acc2
        return c1, c2

    def raw_accumulators_at(self, t: float) -> tuple[float, float]:
        """Raw power integrals (or sup) at t, left-constant between samples."""
        j = self._locate(t)
        frac = t - self.times[j]
        if frac <= 0.0 or j == len(self.times) - 1:
            # between the last sample and t the integrand is the last state
            if frac > 0.0:
                a1 = self.acc1[j] + self._last_p1 ** float(self.zexp.q) * frac
                if self.zexp.q_tilde_finite:
                    a2 = self.acc2[j] + self._last_p2 ** float(self.zexp.q_tilde) * frac
                else:
                    a2 = max(self.acc2[j], self._last_p2)
                return a1, a2
            return self.acc1[j], self.acc2[j]
        # t lies strictly between samples j and j+1: integrand is state j
        p1j = ((self.acc1[j + 1] - self.acc1[j]) / (self.times[j + 1] - self.times[j]))
        a1 = self.acc1[j] + p1j * frac
        if self.zexp.q_tilde_finite:
            p2j = (self.acc2[j + 1] - self.acc2[j]) / (self.times[j + 1] - self.times[j])
            a2 = self.acc2[j] + p2j * frac
        else:
            a2 = self.acc2[j + 1]
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
    """Running norm Z_t: sum of the two Bochner-norm components up to t."""
    if params is not None:
        expected = z_exponents(params)
        if expected != traj.zexp:
            raise SnlsError(
                f"trajectory exponents {traj.zexp} do not match params {expected}"
            )
    if t <= traj.times[0]:
        return 0.0
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
    for j, t in enumerate(traj.times):
        c1, c2 = traj.z_components_at(t)
        yield f"{t!r},{traj.running_mass[j]!r},{c1!r},{c2!r},{(c1 + c2)!r}"


def write_trajectory_csv(path, traj: Trajectory) -> None:
    with open(path, "w", newline="") as fh:
        for line in trajectory_csv_lines(traj):
            fh.write(line + "\r\n")
