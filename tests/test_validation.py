import numpy as np
import pytest

from smoothdiv import Numerics, validation
from smoothdiv.piecewise import PiecewiseFunction
from smoothdiv.special import default_dickman


def test_special_suite_passes():
    results = validation.validate_special()
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_convolution_suite_passes():
    results = validation.validate_convolution()
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_estimators_suite_passes(sieve_1m):
    results = validation.validate_estimators(sieve=sieve_1m)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_oracle_suite_passes(sieve_1m):
    results = validation.validate_oracle(sieve=sieve_1m)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_corrupted_table_is_detected():
    base = default_dickman()
    coeffs = base.coeffs.copy()
    coeffs[5, 0] *= 1.0 + 1e-6  # break one segment's constant term
    corrupted = PiecewiseFunction(
        kind=base.kind, knots=base.knots, coeffs=coeffs,
        target_rel_err=base.target_rel_err, certificate=base.certificate)
    results = validation.validate_special(num=Numerics(rho_table=corrupted))
    failed = [r for r in results if not r.passed]
    assert failed, "corruption went unnoticed"
    assert any("rho" in r.name for r in failed)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        validation.run_suite("nonsense")


def test_deterministic_output(sieve_1m):
    a = [r.line() for r in validation.run_suite("estimators", sieve=sieve_1m)]
    b = [r.line() for r in validation.run_suite("estimators", sieve=sieve_1m)]
    assert a == b
