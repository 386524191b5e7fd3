"""Exact rational exponent algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest

from snls.errors import CriticalDelta, NotAdmissible, OutOfRange
from snls.exponents import (
    LOWER_BRANCH,
    UPPER_BRANCH,
    VIOLATES_PREMISE,
    ModelParams,
    StrichartzPair,
    bootstrap_exponents,
    calculus_dichotomy_check,
    dichotomy_roots,
    gamma_global_bound,
    picard_window_length,
    strichartz_pair,
    strichartz_q,
    z_exponents,
)


def brute_force_q(p: Fraction, d: int, max_den: int = 64) -> Fraction:
    """Independent oracle: exhaustive search over small rationals for q."""
    target = Fraction(d, 2) - Fraction(d) / p
    for den in range(1, max_den + 1):
        for num in range(1, 40 * den + 1):
            q = Fraction(num, den)
            if 2 / q == target:
                return q
    raise AssertionError("no rational q found by search")


def test_strichartz_q_examples():
    assert strichartz_q(4, 2) == 4
    assert strichartz_q(4, 1) == 8
    # p = 2 is the trivial endpoint and rejected for running-norm use
    for d in (1, 2, 3):
        with pytest.raises(NotAdmissible):
            strichartz_q(2, d)


def test_strichartz_q_matches_exhaustive_search():
    for d in (1, 2, 3):
        for p in (Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(4)):
            if d == 3 and p >= 6:
                continue
            assert strichartz_q(p, d) == brute_force_q(p, d)


def test_strichartz_q_rejections():
    with pytest.raises(NotAdmissible):
        strichartz_q(math.inf, 2)  # forbidden endpoint (2, inf, 2)
    with pytest.raises(NotAdmissible):
        strichartz_q(1, 1)  # p < 2
    with pytest.raises(NotAdmissible):
        strichartz_q(100, 3)  # q below 2 in d = 3
    assert strichartz_q(math.inf, 1) == 4
    with pytest.raises(OutOfRange):
        strichartz_q(4, True)  # a bool is no dimension


def test_pair_scaling_identity_is_exact():
    for d in (1, 2, 3):
        for num in range(33, 130, 7):
            p = Fraction(num, 16)
            try:
                pair = strichartz_pair(p, d)
            except NotAdmissible:
                continue
            assert 2 / pair.q + Fraction(d) / pair.p - Fraction(d, 2) == 0


def test_pair_rejects_forbidden_endpoint():
    with pytest.raises(NotAdmissible):
        StrichartzPair(p=Fraction(4), q=Fraction(3), d=2)  # identity violated
    with pytest.raises(NotAdmissible):
        StrichartzPair(p=Fraction(10**9), q=Fraction(2), d=2)


def test_critical_pairs_coincide_up_to_d6():
    for d in range(1, 7):
        alpha = 1 + Fraction(4, d)
        assert strichartz_q(alpha + 1, d) == alpha + 1


def test_model_params_validation():
    ModelParams(d=1, alpha=Fraction(5), gamma=Fraction(3), lam=-1)  # both critical
    with pytest.raises(OutOfRange):
        ModelParams(d=1, alpha=Fraction(51, 10), gamma=Fraction(1), lam=1)
    with pytest.raises(OutOfRange):
        ModelParams(d=2, alpha=Fraction(2), gamma=Fraction(21, 10), lam=1)
    with pytest.raises(OutOfRange):
        ModelParams(d=1, alpha=Fraction(1), gamma=Fraction(1), lam=1)
    with pytest.raises(OutOfRange):
        ModelParams(d=1, alpha=Fraction(2), gamma=Fraction(1), lam=0)
    # d and lam are ints, not bools or floats: lam=True would echo as the
    # JSON `true`, which the config reader refuses
    for kw in (dict(lam=True), dict(lam=1.0), dict(d=True), dict(d=1.0)):
        with pytest.raises(OutOfRange):
            ModelParams(**dict(dict(d=1, alpha=Fraction(2), gamma=Fraction(1), lam=1), **kw))


def test_bootstrap_exponents_examples():
    b = bootstrap_exponents(ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1))
    assert b.delta == Fraction(1, 2)
    assert b.delta_tilde == 1
    assert b.theta_global_degenerate
    assert b.theta_global == 1  # limiting value, flagged

    b2 = bootstrap_exponents(ModelParams(d=2, alpha=Fraction(3), gamma=Fraction(1), lam=1))
    assert b2.delta == 0 and b2.critical

    b3 = bootstrap_exponents(ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3, 2), lam=1))
    assert b3.delta_tilde == Fraction(3, 4)
    assert not b3.theta_global_degenerate


def test_theta_interp_defining_identity():
    """theta_interp solves 1/(2 gamma) = theta/(alpha+1) + (1-theta)/2 exactly."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        alpha = 1 + Fraction(int(rng.integers(1, 4 * 8 // d + 1)), 8)
        hi = min(1 + Fraction(2, d), (alpha + 1) / 2)
        if hi <= 1:
            continue
        gamma = 1 + (hi - 1) * Fraction(int(rng.integers(1, 9)), 9)
        b = bootstrap_exponents(ModelParams(d=d, alpha=alpha, gamma=gamma, lam=1))
        th = b.theta_interp
        assert Fraction(1) / (2 * gamma) == th / (alpha + 1) + (1 - th) / 2
        assert 0 < th <= 1
        # the two thetas are complementary
        assert th + b.theta_global == 1


def test_theta_interp_scaling_consequence():
    """1/q_tilde = theta_interp / q whenever both pairs are non-degenerate."""
    params = ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3, 2), lam=1)
    zx = z_exponents(params)
    th = bootstrap_exponents(params).theta_interp
    assert Fraction(1) / zx.q_tilde == th / zx.q


def test_gamma_global_bound_examples():
    assert gamma_global_bound(1, 2) == Fraction(8, 7)
    assert gamma_global_bound(1, 3) == Fraction(11, 10)
    # bound tends to 1 as alpha -> 1+
    assert gamma_global_bound(1, Fraction(101, 100)) - 1 < Fraction(1, 50)
    with pytest.raises(OutOfRange):
        gamma_global_bound(1, 5)  # critical
    with pytest.raises(OutOfRange):
        gamma_global_bound(2, 4)  # supercritical
    with pytest.raises(OutOfRange):
        gamma_global_bound(True, 2)  # a bool is no dimension


def test_gamma_global_bound_inside_local_range():
    rng = np.random.default_rng(13)
    found = 0
    while found < 100:
        d = int(rng.integers(1, 4))
        alpha = 1 + Fraction(int(rng.integers(1, 200)), 50)
        if not alpha < 1 + Fraction(4, d):
            continue
        found += 1
        assert gamma_global_bound(d, alpha) < 1 + Fraction(2, d)


def test_picard_window_length():
    sigma = picard_window_length(1.0, 1.0, Fraction(1, 2), Fraction(3), 10.0)
    assert sigma == pytest.approx(1.0 / 256.0, rel=1e-14)
    # min with T
    assert picard_window_length(1e-6, 1.0, Fraction(1, 2), Fraction(3), 2.0) == 2.0
    with pytest.raises(CriticalDelta):
        picard_window_length(1.0, 1.0, Fraction(0), Fraction(5), 1.0)


def test_picard_window_shrinks_like_power_of_K():
    """Away from the cap at T the window scales as K^(-(alpha-1)/delta)."""
    delta, alpha = Fraction(1, 2), Fraction(3)
    s1 = picard_window_length(10.0, 1.0, delta, alpha, 1e9)
    s2 = picard_window_length(20.0, 1.0, delta, alpha, 1e9)
    assert s2 / s1 == pytest.approx(2.0 ** (-float((alpha - 1) / delta)), rel=1e-12)


def test_picard_window_guarantee_randomized():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        alpha = 1 + Fraction(int(rng.integers(1, 4 * 8 // d)), 8)
        delta = 1 + Fraction(d) * (1 - alpha) / 4
        if delta <= 0:
            continue
        K = float(rng.uniform(1e-3, 100.0))
        C1 = float(rng.uniform(0.05, 20.0))
        T = float(rng.uniform(0.05, 50.0))
        sigma = picard_window_length(K, C1, delta, alpha, T)
        assert 0 <= sigma <= T
        assert C1 * sigma ** float(delta) * K ** float(alpha - 1) <= 2.0 ** (-float(alpha + 1)) + 1e-15
        # positivity holds whenever the formula stays above float underflow
        log10_sigma = -(math.log10(C1 * 2.0 ** float(alpha + 1) * K ** float(alpha - 1))) / float(delta)
        if log10_sigma > -300:
            assert sigma > 0


def test_dichotomy_roots_alpha2_closed_form():
    # x = 1 + x^2/8 has roots 4 -+ 2 sqrt(2)
    c1, c2 = dichotomy_roots(Fraction(2))
    assert c1 == pytest.approx(4 - 2 * math.sqrt(2), abs=1e-10)
    assert c2 == pytest.approx(4 + 2 * math.sqrt(2), abs=1e-10)


def test_dichotomy_roots_residuals():
    for alpha in (Fraction(2), Fraction(3), Fraction(5), Fraction(9, 8)):
        c1, c2 = dichotomy_roots(alpha)
        a = float(alpha)
        for c in (c1, c2):
            assert abs(1 + c**a / 2 ** (a + 1) - c) < 1e-10
        assert c1 <= 2.0 < c2


def test_dichotomy_classification():
    assert calculus_dichotomy_check(0.0, Fraction(3)).branch == LOWER_BRANCH
    # x = 2 fails the premise for every alpha > 1: 2 > 1 + 2^a/2^(a+1) = 3/2
    for alpha in (2, 3, 5):
        assert calculus_dichotomy_check(2.0, Fraction(alpha)).branch == VIOLATES_PREMISE
    res = calculus_dichotomy_check(1e6, Fraction(3))
    assert res.branch == UPPER_BRANCH
    assert calculus_dichotomy_check(res.c1 * 0.5, Fraction(3)).branch == LOWER_BRANCH


def test_z_exponents_gamma_one_is_trivial_endpoint():
    zx = z_exponents(ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(1), lam=1))
    assert zx.q == 8 and zx.p1 == 4 and zx.p2 == 2
    assert not zx.q_tilde_finite


@pytest.mark.parametrize("arg", ["K", "C1", "T"])
def test_picard_window_length_refuses_nan(arg):
    kw = dict(K=1.0, C1=1.0, delta=Fraction(1, 2), alpha=Fraction(3), T=10.0)
    with pytest.raises(OutOfRange):
        picard_window_length(**dict(kw, **{arg: math.nan}))


def test_calculus_dichotomy_check_refuses_nan():
    with pytest.raises(OutOfRange):
        calculus_dichotomy_check(math.nan, 3)
