"""Exception types shared across the package."""


class SnlsError(Exception):
    """Base class for all errors raised by snls."""


class NotAdmissible(SnlsError):
    """Requested Strichartz pair violates the scaling/admissibility rules."""


class OutOfRange(SnlsError):
    """Model parameter outside its supported range."""


class CriticalDelta(SnlsError):
    """Window-length formula undefined because the time-gain exponent is 0."""


class GridMismatch(SnlsError):
    """Fields defined on different grids were combined."""


class MeshMismatch(SnlsError):
    """Time meshes of two objects that must share a mesh differ."""


class LengthMismatch(SnlsError):
    """Array argument has the wrong length."""


class EmptyTrajectory(SnlsError):
    """Operation requires a trajectory with at least one recorded state."""


class UnboundedCoefficient(SnlsError):
    """Noise coefficient contains NaN/Inf values."""


class NotConservative(SnlsError):
    """Operation requires real-valued noise coefficients."""


class ConfigError(SnlsError):
    """Simulation configuration failed validation."""


class SolverError(SnlsError):
    """Base class for time-integrator failures."""


class BlowUp(SolverError):
    """A time step produced non-finite values, an oversized L^2 norm or
    running-norm accumulators that overflow.

    Carries the start time `t` of that step and the running norm `z` and
    L^2 norm `l2` of the last finite state there.
    """

    def __init__(self, message, t=None, z=None, l2=None):
        super().__init__(message)
        self.t = t
        self.z = z
        self.l2 = l2
