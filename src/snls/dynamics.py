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


def theta(x, level):
    """Cutoff: 1 on [0, level], 2 - x/level on [level, 2 level], 0 beyond.

    Accepts scalars or arrays, and a level array that broadcasts against x
    (say one level per row), whose every element is the value of the
    scalar-level call, bitwise.  An infinite level gives the constant 1
    (cutoff disabled), whatever x.  Lipschitz with constant 1/level.
    """
    if not np.ndim(x) and (isinstance(level, (int, float)) or not np.ndim(level)):
        if not level > 0:
            raise OutOfRange(f"level must be positive, got {level}")
        return 1.0 if math.isinf(level) else min(max(2.0 - float(x) / level, 0.0), 1.0)
    return cutoff(level)(x)


def cutoff(level):
    """x -> theta(x, level) for an array x, with `level` (a scalar, or an
    array that broadcasts against x) checked and its infinite entries found
    once: a march that reads the cutoff at the same levels every step pays
    only for the ufuncs of the formula."""
    level = np.asarray(level, dtype=float)
    if not (level > 0).all():
        raise OutOfRange(f"level must be positive, got {level}")
    off = np.isinf(level)
    if off.all():
        return lambda x: np.where(off, 1.0, np.asarray(x, dtype=float))
    if not off.any():
        # the two ufuncs np.clip computes, without its per-call wrapper cost
        return lambda x: np.minimum(np.maximum(2.0 - np.asarray(x, dtype=float) / level, 0.0), 1.0)
    # x / 1 where the level is infinite: no inf / inf, and 1.0 replaces it
    finite = np.where(off, 1.0, level)
    return lambda x: np.where(off, 1.0, np.minimum(np.maximum(2.0 - np.asarray(x, dtype=float) / finite, 0.0), 1.0))


def detect_stopping_time(times, z, level: float) -> float:
    """First recorded time with Z_t >= level, else the last recorded time.

    `z` is the running norm at `times`, the recorded (mesh) times: a
    trajectory's `np.add(*traj.z_columns())`, or the solver's column of a
    path.  Z exists only there, so tau is resolved to them; the last mesh
    time is the horizon T.
    """
    if not level > 0:
        raise OutOfRange(f"level must be positive, got {level}")
    hit = z >= level
    j = int(np.argmax(hit))
    return float(times[j] if hit[j] else times[-1])
