"""The `verify` invariant suites that tier-1 does not reach through the CLI."""

import functools
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import reference
from snls import verify
from snls.errors import OutOfRange
from snls.exponents import ModelParams
from snls.verify import run_suites

# A rounding-level residual in a pinned detail: "{<= bound}".
_BOUNDED = re.compile(r"\{<= ([^}]+)\}")


def assert_records_match(result, pinned):
    """`result` equals `pinned`, except that a detail string may hold
    "{<= bound}" where the suite writes a rounding-level residual: there
    the text must hold a number at most that bound.  Such residuals move
    with numpy's SIMD dispatch target (about 2 % on the mass drift between
    AVX-512 and AVX2 kernels), so each is bounded at about twice the value
    read on an AVX-512 host; names, pass flags and all other text are pinned
    exactly."""
    if isinstance(pinned, dict):
        assert isinstance(result, dict) and result.keys() == pinned.keys()
        for key in pinned:
            assert_records_match(result[key], pinned[key])
    elif isinstance(pinned, list):
        assert isinstance(result, list) and len(result) == len(pinned)
        for got, want in zip(result, pinned):
            assert_records_match(got, want)
    elif isinstance(pinned, str) and _BOUNDED.search(pinned):
        literal = _BOUNDED.split(pinned)[::2]
        pattern = "([-+.e0-9]+)".join(re.escape(part) for part in literal)
        match = re.fullmatch(pattern, result)
        assert match, (result, pinned)
        for value, bound in zip(match.groups(), _BOUNDED.findall(pinned)):
            assert float(value) <= float(bound), (result, pinned)
    else:
        assert result == pinned


def test_oracle_and_mass_suites_pinned():
    """Every check record of the oracle and mass suites, as the per-path
    loops gave them before the suites marched their paths as stacks (drifts
    9.69e-14 and 9.25e-14 on an AVX-512 host)."""
    assert_records_match(run_suites(["oracle-sde", "mass"]), {
        "passed": True,
        "suites": {
            "oracle-sde": {
                "passed": True,
                "checks": [
                    {
                        "name": "em-strong-order-gamma-1.0",
                        "passed": True,
                        "detail": "fitted order 0.586 over dt in 2^-6..2^-10",
                    },
                    {
                        "name": "em-strong-order-gamma-2.0",
                        "passed": True,
                        "detail": "fitted order 0.575 over dt in 2^-6..2^-10",
                    },
                ],
            },
            "mass": {
                "passed": True,
                "checks": [
                    {
                        "name": "splitstep-mass-gamma-1",
                        "passed": True,
                        "detail": "max relative drift {<= 2e-13} over 1000 steps x 5 paths",
                    },
                    {
                        "name": "splitstep-mass-gamma-3/2",
                        "passed": True,
                        "detail": "max relative drift {<= 2e-13} over 1000 steps x 5 paths",
                    },
                ],
            },
        },
    })


def test_mass_suite_fails_a_path_that_blows_up(monkeypatch):
    """A split-step path that overflows (complex noise coefficient,
    alpha = gamma = 3) fails its mass check with the BlowUp message; it
    never passes silently."""
    base = verify._mass_config

    def blowup_config(gamma):
        return replace(
            base(gamma),
            params=ModelParams(d=1, alpha=Fraction(3), gamma=Fraction(3), lam=1),
            noise_spec={"coefficients": [{"kind": "gaussian_bump", "amplitude": [3, 3], "width": 3.0}]},
            ic_spec={"kind": "gaussian_bump", "amplitude": 2.0, "width": 2.0},
            dt=1.0 / 64.0,
        )

    monkeypatch.setattr(verify, "_mass_config", blowup_config)
    checks = verify.suite_mass()
    assert [c["passed"] for c in checks] == [False, False]
    assert all(c["detail"].startswith("BlowUp: step from t=") for c in checks)


def test_exponent_unitarity_strichartz_truncation_suites_pinned():
    """Every check record of these four suites, as their own loops gave
    them before the unitarity and truncation checks became helpers shared
    with acceptance criteria 2 and 8 (unitarity drift 3.13e-16, group-law
    residual 1.54e-13 and time-reversal residual 5.13e-16 on an AVX-512
    host).  The chaining gap is pinned only below 1e-12: its value moves at
    rounding level with the arithmetic that chains the windows."""
    result = run_suites(["exponents", "unitarity", "strichartz", "truncation"])
    assert_records_match(result, {
        "passed": True,
        "suites": {
            "exponents": {
                "passed": True,
                "checks": [
                    {"name": "scaling-identity-exact", "passed": True, "detail": "2/q + d/p = d/2 on the (d, alpha) grid"},
                    {"name": "critical-pair-coincides", "passed": True, "detail": "q = alpha + 1 at alpha = 1 + 4/d, d = 1..6"},
                    {"name": "gamma-bound-inside-range", "passed": True, "detail": "bound < 1 + 2/d on 100 samples"},
                    {
                        "name": "window-length-inequality",
                        "passed": True,
                        "detail": "C1 sigma^delta K^(alpha-1) <= 2^-(alpha+1) on 1000 samples",
                    },
                    {
                        "name": "dichotomy-roots",
                        "passed": True,
                        "detail": "both roots satisfy x = 1 + x^a/2^(a+1) to 1e-10, c1 <= 2 < c2",
                    },
                ],
            },
            "unitarity": {
                "passed": True,
                "checks": [
                    {"name": "unitarity", "passed": True, "detail": "max relative L2 drift {<= 7e-16}"},
                    {"name": "group-law", "passed": True, "detail": "max residual {<= 3e-13}"},
                    {"name": "time-reversal", "passed": True, "detail": "max residual {<= 1e-15}"},
                    {"name": "dispersive-decay", "passed": True, "detail": "log-log slope -0.4920"},
                ],
            },
            "strichartz": {
                "passed": True,
                "checks": [
                    {
                        "name": "homogeneous-constant-stable",
                        "passed": True,
                        "detail": "ratios ['0.7006', '0.7006', '0.7006'] across n=256,512,1024 (spread {<= 1e-15})",
                    },
                    {
                        "name": "homogeneous-constant-bounded",
                        "passed": True,
                        "detail": "empirical lower bound 0.4238 (never asserted as exact)",
                    },
                    {
                        "name": "stochastic-moment-bounded",
                        "passed": True,
                        "detail": "E|J(T)|^2 / E||Phi||^2 = 1.0079 (MC, 200 paths)",
                    },
                ],
            },
            "truncation": {
                "passed": True,
                "checks": [
                    {"name": "cutoff-lipschitz", "passed": True, "detail": "|theta(x)-theta(y)| <= |x-y|/level on 1e4 pairs"},
                    {"name": "cutoff-breakpoints", "passed": True, "detail": "exact piecewise values at 0, n, 1.5n, 2n, 3n"},
                    {
                        "name": "window-chaining-identity",
                        "passed": True,
                        "detail": "max relative gap {<= 1e-12} on 50 two-window cases",
                    },
                ],
            },
        },
    })


# The one-field loops give the same numbers at any cap: computed once.
_reference_residuals = functools.cache(reference.propagator_residuals)


@pytest.mark.parametrize("n_fields", [1, 31, 33, 100])
def test_propagator_residuals_are_bitwise_the_per_field_loop(stack_cap, n_fields):
    """Counts on both sides of the default stack of 32 fields and of the
    five-row stack."""
    for seed, t_max in ((11, 3.0), (2024, 2.0), (5, 0.5)):
        assert verify.propagator_residuals(n_fields, seed, t_max) == _reference_residuals(n_fields, seed, t_max)


def test_dispersive_decay_is_bitwise_the_per_time_loop(stack_cap):
    assert verify.dispersive_decay() == reference.dispersive_decay()


def test_cutoff_lipschitz_draws_and_verdict_are_the_per_pair_loop(monkeypatch):
    """The one draw gives every pair's level, x and y bitwise as the per-pair
    `Generator.uniform` calls did, and the verdict is the same.  A level
    range that reaches below 0 raises the cutoff's OutOfRange (the loop
    raised numpy's bare ValueError there, from a negative x range)."""
    cutoff, theta = verify.cutoff, reference.theta
    for seed, level_lo, span in ((23, 0.1, 4.0), (88, 0.05, 3.5), (7, 2.0, 1.5)):
        stacked, looped = [], []  # the level array and the x, y arrays; each scalar call's (x, level)

        def recording_cutoff(level):
            stacked.append(level)
            cut = cutoff(level)
            return lambda x: stacked.append(x) or cut(x)

        monkeypatch.setattr(verify, "cutoff", recording_cutoff)
        monkeypatch.setattr(reference, "theta", lambda x, level: looped.append((x, level)) or theta(x, level))
        assert verify.cutoff_lipschitz_ok(seed, level_lo, span) is reference.cutoff_lipschitz_ok(seed, level_lo, span) is True
        monkeypatch.undo()
        level, x, y = stacked
        pairs = np.array(looped).reshape(-1, 2, 2)  # per pair: (x, level), (y, level)
        assert level.tobytes() == pairs[:, 0, 1].tobytes() == pairs[:, 1, 1].tobytes()
        assert x.tobytes() == pairs[:, 0, 0].tobytes()
        assert y.tobytes() == pairs[:, 1, 0].tobytes()
    with pytest.raises(OutOfRange):
        verify.cutoff_lipschitz_ok(1, -1.0, 2.0)
