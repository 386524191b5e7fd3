"""The piecewise-linear cutoff and the stopping time.

The cutoff theta(., level) is 1 on [0, level], falls linearly to 0 on
[level, 2 level] and vanishes beyond; applied to the running norm Z_t it
freezes the nonlinear dynamics once Z_t leaves the ball of radius 2 level.
The stopping time is the first mesh time at which Z_t reaches the level,
else the last mesh time, the horizon; it is resolved only to mesh
resolution, consistent with the left-endpoint quadrature of Z itself.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRange


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
    # the two ufuncs np.clip computes, without its per-call wrapper cost
    return np.minimum(np.maximum(2.0 - np.asarray(x, dtype=float) / level, 0.0), 1.0)


def detect_stopping_time(times, z, level: float) -> float:
    """First recorded time with Z_t >= level, else the last recorded time.

    `z` is the running norm at `times`, the recorded (mesh) times: a
    trajectory's `np.add(*traj.z_columns())`, or the solver's column of a
    path.  Z exists only there, so tau is resolved to them; the last mesh
    time is the horizon T.
    """
    if level <= 0:
        raise OutOfRange(f"level must be positive, got {level}")
    hit = z >= level
    j = int(np.argmax(hit))
    return float(times[j] if hit[j] else times[-1])
