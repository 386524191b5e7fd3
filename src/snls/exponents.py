"""Exact rational algebra for the exponents driving the simulator.

Everything in this module is computed with `fractions.Fraction`: Strichartz
pairs (q, p) with 2/q + d/p = d/2, the subcriticality margins

    delta       = 1 + d(1 - alpha)/4,
    delta_tilde = 1 + d(1 - gamma)/2,

the interpolation exponent theta_interp solving
1/(2 gamma) = theta/(alpha+1) + (1-theta)/2, its complement
theta_global = (alpha + 1 - 2 gamma) / ((alpha - 1) gamma), and the upper
bound on gamma under which the bootstrap argument closes.  Conversion to
floating point happens only at the solver boundary; the scaling identities
are load-bearing invariants and are kept exact here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

from .errors import CriticalDelta, NotAdmissible, OutOfRange

RationalLike = Union[int, float, str, Fraction]

#: Sentinel for an infinite temporal exponent (the trivial endpoint q = inf).
INF = math.inf


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, floats, "p/q" strings and Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r} is not a rational")
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class ModelParams:
    """Dimension, nonlinearity power, noise power and focusing sign.

    alpha must lie in (1, 1 + 4/d] and gamma in [1, 1 + 2/d]; lam is the
    focusing (-1) / defocusing (+1) sign of the power nonlinearity.
    """

    d: int
    alpha: Fraction
    gamma: Fraction
    lam: int

    def __post_init__(self):
        for name in ("d", "lam"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise OutOfRange(f"{name} must be an integer, got {value!r}")
        if self.d < 1:
            raise OutOfRange(f"dimension must be a positive integer, got {self.d!r}")
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        if not 1 < self.alpha <= 1 + Fraction(4, self.d):
            raise OutOfRange(
                f"alpha={self.alpha} outside (1, 1 + 4/d] = (1, {1 + Fraction(4, self.d)}] for d={self.d}"
            )
        if not 1 <= self.gamma <= 1 + Fraction(2, self.d):
            raise OutOfRange(
                f"gamma={self.gamma} outside [1, 1 + 2/d] = [1, {1 + Fraction(2, self.d)}] for d={self.d}"
            )
        if self.lam not in (-1, 1):
            raise OutOfRange(f"lam must be -1 or +1, got {self.lam!r}")

    @property
    def alpha_critical(self) -> bool:
        return self.alpha == 1 + Fraction(4, self.d)

    @property
    def gamma_critical(self) -> bool:
        return self.gamma == 1 + Fraction(2, self.d)


@dataclass(frozen=True)
class StrichartzPair:
    """Admissible exponent pair: 2/q + d/p = d/2 exactly.  A pair off that
    identity raises NotAdmissible and a non-finite exponent ValueError, so
    the endpoint (q, p, d) = (2, inf, 2) cannot be built."""

    p: Fraction
    q: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "q", as_fraction(self.q))
        if 2 / self.q + Fraction(self.d) / self.p != Fraction(self.d, 2):
            raise NotAdmissible(
                f"(q={self.q}, p={self.p}) violates 2/q + d/p = d/2 for d={self.d}"
            )


@dataclass(frozen=True)
class BootstrapExponents:
    """delta, delta_tilde and the two theta exponents with their flags, as
    the exponent table (`snls exponents`) and criterion 9 read them."""

    delta: Fraction
    delta_tilde: Fraction
    theta_interp: Fraction
    theta_global: Fraction
    critical: bool
    theta_global_degenerate: bool


@dataclass(frozen=True)
class ZExponents:
    """Temporal/spatial exponents of the two running-norm components.

    Component 1 is L^q(0,t; L^p1) with p1 = alpha + 1; component 2 is
    L^qt(0,t; L^p2) with p2 = 2 gamma.  For gamma = 1 the second pair
    degenerates to the trivial endpoint qt = inf (a running sup of the
    L^2 norm), which is permitted for running-norm bookkeeping even though
    `strichartz_q` rejects p = 2 as a pair in its own right.
    """

    q: Fraction
    p1: Fraction
    q_tilde: Union[Fraction, float]  # Fraction, or math.inf at gamma = 1
    p2: Fraction

    @cached_property
    def q_tilde_finite(self) -> bool:
        return self.q_tilde != INF

    @cached_property
    def powers(self) -> tuple[float, float]:
        """(q, qt) as floats, converted once for the per-step arithmetic."""
        return float(self.q), float(self.q_tilde)


def strichartz_q(p: RationalLike, d: int) -> Fraction:
    """Temporal exponent q with 2/q + d/p = d/2, solved exactly.

    Rejects, via NotAdmissible: p < 2; the trivial endpoint p = 2 (q = inf);
    p = inf in d = 2 (the forbidden endpoint) and in d >= 3 (q < 2); and any
    p whose scaling partner lands at or below q = 2.
    """
    if not isinstance(d, int) or d < 1:
        raise OutOfRange(f"dimension must be a positive integer, got {d!r}")
    if p == INF:
        if d == 1:
            return Fraction(4)
        raise NotAdmissible(f"p = inf is not admissible in d = {d}")
    p = as_fraction(p)
    if p < 2:
        raise NotAdmissible(f"spatial exponent p = {p} < 2")
    if p == 2:
        raise NotAdmissible(
            "p = 2 forces q = inf (trivial endpoint); rejected for running-norm use"
        )
    q = 4 * p / (d * (p - 2))
    if q <= 2:
        raise NotAdmissible(f"scaling forces q = {q} <= 2 for p = {p}, d = {d}")
    return q


def strichartz_pair(p: RationalLike, d: int) -> StrichartzPair:
    """Admissible pair built from `strichartz_q` (finite p only)."""
    return StrichartzPair(p=as_fraction(p), q=strichartz_q(p, d), d=d)


def z_exponents(params: ModelParams) -> ZExponents:
    """Exponents of the two running-norm components for the given parameters."""
    p1 = params.alpha + 1
    p2 = 2 * params.gamma
    q = strichartz_q(p1, params.d)
    q_tilde = INF if params.gamma == 1 else strichartz_q(p2, params.d)
    return ZExponents(q=q, p1=p1, q_tilde=q_tilde, p2=p2)


def bootstrap_exponents(params: ModelParams) -> BootstrapExponents:
    """delta, delta_tilde and the two theta exponents, all exact.

    delta = 0 marks the critical nonlinearity and is reported with a flag
    rather than rejected.  At gamma = 1 the global theta is returned at its
    limiting value 1 together with a degeneracy flag: the bootstrap bound
    treats gamma = 1 separately, so the value must not be used unflagged.
    """
    d, alpha, gamma = params.d, params.alpha, params.gamma
    delta = 1 + Fraction(d) * (1 - alpha) / 4
    delta_tilde = 1 + Fraction(d) * (1 - gamma) / 2
    degenerate = gamma == 1
    if degenerate:
        theta_interp = Fraction(0)
        theta_global = Fraction(1)
    else:
        theta_interp = (alpha + 1) * (gamma - 1) / (gamma * (alpha - 1))
        theta_global = (alpha + 1 - 2 * gamma) / ((alpha - 1) * gamma)
    return BootstrapExponents(
        delta=delta,
        delta_tilde=delta_tilde,
        theta_interp=theta_interp,
        theta_global=theta_global,
        critical=(delta == 0),
        theta_global_degenerate=degenerate,
    )


def gamma_global_bound(d: int, alpha: RationalLike) -> Fraction:
    """Exclusive upper bound on gamma for the bootstrap to close.

        bound = (alpha-1)/(alpha+1) * (4 + d(1-alpha))/(4 alpha + d(1-alpha)) + 1

    Requires strictly subcritical alpha; at alpha = 1 + 4/d the bound
    degenerates (the first factor's partner vanishes with delta).
    """
    if not isinstance(d, int) or d < 1:
        raise OutOfRange(f"dimension must be a positive integer, got {d!r}")
    alpha = as_fraction(alpha)
    if not 1 < alpha < 1 + Fraction(4, d):
        raise OutOfRange(
            f"alpha={alpha} not strictly inside (1, 1 + 4/d) for d={d}"
        )
    return (alpha - 1) / (alpha + 1) * (4 + d * (1 - alpha)) / (4 * alpha + d * (1 - alpha)) + 1


def picard_window_length(
    K: float, C1: float, delta: RationalLike, alpha: RationalLike, T: float
) -> float:
    """Window length sigma = (C1 * 2^(alpha+1) * K^(alpha-1))^(-1/delta) ∧ T.

    Guarantees C1 * sigma^delta * K^(alpha-1) <= 2^(-(alpha+1)).  Raises
    CriticalDelta when delta = 0, where no such window exists.
    """
    delta = as_fraction(delta)
    alpha = as_fraction(alpha)
    if delta == 0:
        raise CriticalDelta("delta = 0: no contraction window length exists")
    if delta < 0:
        raise OutOfRange(f"delta = {delta} < 0 (supercritical)")
    if C1 <= 0:
        raise OutOfRange(f"C1 must be positive, got {C1}")
    if T <= 0:
        raise OutOfRange(f"T must be positive, got {T}")
    if K < 0:
        raise OutOfRange(f"K must be nonnegative, got {K}")
    if K == 0:
        return T
    log_sigma = -(math.log(C1) + float(alpha + 1) * math.log(2.0) + float(alpha - 1) * math.log(K)) / float(delta)
    if log_sigma < -700.0:
        # below the normal float range no usable window exists
        return 0.0
    return min(math.exp(log_sigma), T)


@lru_cache(maxsize=None)
def dichotomy_roots(alpha: RationalLike) -> tuple[float, float]:
    """The two positive roots c1 < c2 of x = 1 + x^alpha / 2^(alpha+1).

    The map f(x) = 1 + x^alpha/2^(alpha+1) - x satisfies f(0) = 1 > 0 and
    f(2) = -1/2 < 0 for every alpha > 1, so c1 in (0, 2); f -> +inf, so
    c2 > 2.  Both roots are pinned by bisection to 1e-12.
    """
    a = float(as_fraction(alpha))
    if a <= 1:
        raise OutOfRange(f"alpha must exceed 1, got {alpha}")
    scale = 2.0 ** (a + 1)

    def f(x: float) -> float:
        return 1.0 + x**a / scale - x

    c1 = _bisect(f, 0.0, 2.0)
    hi = 4.0
    while f(hi) < 0:
        hi *= 2.0
    c2 = _bisect(f, 2.0, hi)
    return c1, c2


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


LOWER_BRANCH = "lower_branch"
UPPER_BRANCH = "upper_branch"
VIOLATES_PREMISE = "violates_premise"


@dataclass(frozen=True)
class DichotomyResult:
    """Classification of x against x <= 1 + x^alpha / 2^(alpha+1)."""

    branch: str
    c1: float
    c2: float


def calculus_dichotomy_check(x: float, alpha: RationalLike) -> DichotomyResult:
    """Classify x for the two-branch dichotomy behind the window bootstrap.

    If x > 1 + x^alpha/2^(alpha+1) the premise fails; otherwise x lies in
    [0, c1] or [c2, inf) where c1 <= 2 < c2 are the roots from
    `dichotomy_roots`.
    """
    if x < 0:
        raise OutOfRange(f"x must be nonnegative, got {x}")
    a = float(as_fraction(alpha))
    if a <= 1:
        raise OutOfRange(f"alpha must exceed 1, got {alpha}")
    c1, c2 = dichotomy_roots(as_fraction(alpha))
    if x > 1.0 + x**a / 2.0 ** (a + 1):
        branch = VIOLATES_PREMISE
    elif x <= c1 + 1e-9:
        branch = LOWER_BRANCH
    else:
        branch = UPPER_BRANCH
    return DichotomyResult(branch=branch, c1=c1, c2=c2)
