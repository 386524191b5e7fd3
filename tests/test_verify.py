"""The `verify` invariant suites that tier-1 does not reach through the CLI."""

from dataclasses import replace
from fractions import Fraction

from snls import verify
from snls.exponents import ModelParams
from snls.verify import run_suites


def test_oracle_and_mass_suites_pinned():
    """Every check record of the oracle and mass suites, as the per-path
    loops gave them before the suites marched their paths as stacks."""
    assert run_suites(["oracle-sde", "mass"]) == {
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
                        "detail": "max relative drift 1.45e-13 over 1000 steps x 5 paths",
                    },
                    {
                        "name": "splitstep-mass-gamma-3/2",
                        "passed": True,
                        "detail": "max relative drift 1.43e-13 over 1000 steps x 5 paths",
                    },
                ],
            },
        },
    }


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
