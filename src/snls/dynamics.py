"""Power nonlinearities, the piecewise-linear cutoff and the stopping time.

The cutoff theta(., level) is 1 on [0, level], falls linearly to 0 on
[level, 2 level] and vanishes beyond; applied to the running norm Z_t it
freezes the nonlinear dynamics once Z_t leaves the ball of radius 2 level.
The stopping time is the first mesh time at which Z_t reaches the level,
capped at the horizon; it is resolved only to mesh resolution, consistent
with the left-endpoint quadrature of Z itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, SnlsError
from .exponents import ModelParams, z_exponents
from .grid_field import ComplexField, Trajectory, z_components, z_process


def power_nonlinearity(u: ComplexField, sigma) -> ComplexField:
    """Pointwise |u|^(sigma-1) u; 0 maps to 0 for every sigma >= 1."""
    s = float(sigma)
    if s < 1:
        raise OutOfRange(f"sigma must be >= 1, got {sigma}")
    if s == 1.0:
        return u
    v = u.values
    return ComplexField(u.grid, np.abs(v) ** (s - 1.0) * v)


def theta(x, level: float):
    """Cutoff: 1 on [0, level], 2 - x/level on [level, 2 level], 0 beyond.

    Accepts scalars or arrays; level = inf gives the constant 1 (cutoff
    disabled).  Lipschitz with constant 1/level.
    """
    if level <= 0:
        raise OutOfRange(f"level must be positive, got {level}")
    if not np.ndim(x):
        return 1.0 if math.isinf(level) else min(max(2.0 - float(x) / level, 0.0), 1.0)
    if math.isinf(level):
        return np.ones_like(np.asarray(x, dtype=float))
    return np.clip(2.0 - np.asarray(x, dtype=float) / level, 0.0, 1.0)


@dataclass
class TruncationState:
    """Cutoff level together with the most recent cutoff value."""

    level: float
    active: bool = False
    current_phi: float = 1.0

    def update(self, z_value: float) -> float:
        phi = theta(z_value, self.level)
        self.current_phi = phi
        self.active = phi < 1.0
        return phi


def evaluate_phi(
    traj: Trajectory, t: float, trunc: TruncationState, params: ModelParams | None = None
) -> float:
    """theta(Z_t, level) on a whole-run trajectory; updates `trunc`."""
    return trunc.update(z_process(traj, t, params))


@dataclass(frozen=True)
class ZPrefix:
    """Raw accumulator state of a completed run prefix.

    acc1/acc2 are the power integrals of the two running-norm components
    (acc2 is a running sup when the second temporal exponent is infinite),
    so chaining a window onto the prefix is plain addition (or max).
    """

    acc1: float
    acc2: float
    q_tilde_finite: bool

    @classmethod
    def zero(cls, q_tilde_finite: bool) -> "ZPrefix":
        return cls(0.0, 0.0, q_tilde_finite)

    @classmethod
    def of(cls, traj: Trajectory, t: float | None = None) -> "ZPrefix":
        t = traj.t_end if t is None else t
        a1, a2 = traj.raw_accumulators_at(t)
        return cls(a1, a2, traj.zexp.q_tilde_finite)


def chained_z_value(prefix: ZPrefix, window: Trajectory, t: float) -> float:
    """Z at window time t with the prefix accumulated in:

        (prefix1 + window1)^(1/q) + (prefix2 + window2)^(1/qt)

    per component (max instead of sum for the sup component).  Equals the
    Z value of the concatenated trajectory at the corresponding global time.
    """
    if prefix.q_tilde_finite != window.zexp.q_tilde_finite:
        raise OutOfRange("prefix and window disagree on the second exponent")
    w1, w2 = window.raw_accumulators_at(t)
    a2 = prefix.acc2 + w2 if prefix.q_tilde_finite else max(prefix.acc2, w2)
    c1, c2 = z_components(prefix.acc1 + w1, a2, window.zexp)
    return float(c1) + float(c2)


def evaluate_phi_chained(
    prefix: ZPrefix, window: Trajectory, t: float, trunc: TruncationState
) -> float:
    """Cutoff value on a chained window, accumulating the prefix."""
    return trunc.update(chained_z_value(prefix, window, t))


def detect_stopping_time(
    traj: Trajectory, level: float, T: float, params: ModelParams | None = None
) -> float:
    """First mesh time with Z_t >= level, else T; resolved to mesh times.

    One vectorised pass over the trajectory's accumulator columns (Z at a
    recorded time is read from the accumulators there, as `z_process` does).
    """
    if level <= 0:
        raise OutOfRange(f"level must be positive, got {level}")
    if params is not None and z_exponents(params) != traj.zexp:
        raise SnlsError(f"trajectory exponents {traj.zexp} do not match params {z_exponents(params)}")
    c1, c2 = traj.z_columns()
    times = traj.times
    hit = (c1 + c2 >= level) & (times <= T + 1e-12)
    j = int(np.argmax(hit))
    return float(min(times[j], T)) if hit[j] else float(T)
