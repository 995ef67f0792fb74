import math

import numpy as np
import pytest

from smoothdiv import Numerics, oracle, rho, validation
from smoothdiv.convolution import _knot_points
from smoothdiv.piecewise import PiecewiseFunction
from smoothdiv.special import default_dickman, rho_support_hi

from oracles import simpson_adaptive_nodewise


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


def _oracle_checks(sieve):
    return {r.name: r.passed for r in validation.validate_oracle(sieve=sieve)}


@pytest.mark.parametrize("flip", [3, 4999, 9999])
def test_partition_checks_catch_a_flipped_rough_flag(monkeypatch, sieve_1m, flip):
    # The one-pass partition checks read a single block of rough flags per y,
    # one per odd n <= 1e4 (flag i stands for lo + 2i + 1); one wrong flag
    # near its start, middle or end must still break both identities.
    original = oracle._mark_rough

    def flipped(out, lo, primes):
        rough = original(out, lo, primes)
        if lo < flip < lo + 2 * rough.size:
            i = (flip - lo) // 2
            rough[i] = not rough[i]
        return rough

    monkeypatch.setattr(oracle, "_mark_rough", flipped)
    passed = _oracle_checks(sieve_1m)
    assert not passed["partition_identity"] and not passed["partition_sums"]


def test_theta_monotone_catches_reversed_theta(monkeypatch, sieve_1m):
    # A negated theta reverses every monotonicity the check reads.
    original = oracle.theta_exact
    monkeypatch.setattr(oracle, "theta_exact", lambda *a: -original(*a))
    assert not _oracle_checks(sieve_1m)["theta_monotone"]


def test_validate_oracle_counts_once_per_check(monkeypatch, sieve_1m):
    # phi_exact once per (x, y) of partition_sums, 12, where a call per smooth
    # d would be 7,798; theta_exact 27 times in theta_two_routes and 4 times
    # per triple in theta_monotone, 107, where recomputing the middle theta in
    # each comparison would be 147.
    calls = {"phi_exact": 0, "theta_exact": 0}
    for name in calls:
        original = getattr(oracle, name)

        def counting(*a, _name=name, _original=original):
            calls[_name] += 1
            return _original(*a)

        monkeypatch.setattr(oracle, name, counting)
    assert all(_oracle_checks(sieve_1m).values())
    assert calls["phi_exact"] <= 12 and calls["theta_exact"] <= 107


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


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_array_simpson_matches_nodewise_reference(dickman):
    # The special suite's Simpson cross-check: its first 20 draws of u, each
    # integral split at floor(u).
    rng = np.random.Generator(np.random.Philox(key=validation.DEFAULT_SEED))
    us = rng.uniform(1.0, 40.0, size=200)[:20].tolist()
    spans = [span for u in us for span in ((u - 1.0, float(math.floor(u))), (float(math.floor(u)), u))]

    def f(s):
        return rho(s, table=dickman)

    cases = [(f, a, b, 1e-11) for a, b in spans]
    # The rho * rho integrand test_quadrature checks its bisection against,
    # on three of its pieces: the last straddles the underflow of rho(s), so
    # Simpson stops at its doubling budget there.
    u, v = 93.4, 6.98
    support = rho_support_hi(dickman)
    pts = _knot_points(max(v, u - support), min(u, support), u)
    pieces = list(zip(pts[:-1], pts[1:]))
    cases += [(lambda s: rho(u - s) * rho(s), a, b, 1e-13)
              for a, b in (pieces[1], pieces[len(pieces) // 2], pieces[-1])]
    for g, a, b, tol in cases:
        got = validation.simpson_adaptive(g, a, b, rel_tol=tol)
        assert _bits(got) == _bits(simpson_adaptive_nodewise(g, a, b, rel_tol=tol)), (a, b)
