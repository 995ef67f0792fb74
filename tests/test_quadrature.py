"""The vectorized dqk21 pass, its bisection fallback and vector table evaluation.

scipy is not a dependency of the package; where it is installed, its
``quad`` (QUADPACK ``dqagse`` over ``dqk21``) is the reference the
vectorized rule must reproduce bit for bit.
"""

import json
import warnings

import numpy as np
import pytest

from smoothdiv import (DsaParams, ScaledParams, cli, convolution, eta, rho, special,
                       theta_estimate, wp)
from smoothdiv.convolution import QuadratureSpec, _integrate_pieces, _knot_points, _single
from smoothdiv.validation import simpson_adaptive, validate_convolution


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _passes(monkeypatch, fn, *args):
    """Run ``fn(*args)`` and return every ``(f, a, b)`` it handed to ``quad``."""
    calls = []
    original = convolution.quad

    def recording(f, a, b):
        calls.append((f, np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
        return original(f, a, b)

    monkeypatch.setattr(convolution, "quad", recording)
    out = fn(*args)
    monkeypatch.undo()
    return out, calls


def _grid():
    rng = np.random.Generator(np.random.Philox(key=2024))
    pts = [(float(u), float(rng.uniform(0.0, u))) for u in rng.uniform(1.5, 100.0, 8)]
    return pts + [(3.0, 1.5), (10.7875, 2.0), (93.4, 6.98)]


INTEGRALS = {
    "tau": lambda u, v: convolution.tau(v),
    "conv_omega_rho": convolution.conv_omega_rho,
    "conv_omega_rho_prime": convolution.conv_omega_rho_prime,
    "conv_rho_rho": convolution.conv_rho_rho,
}


@pytest.mark.parametrize("name", sorted(INTEGRALS))
def test_qk21_matches_scipy_quad_bit_for_bit(monkeypatch, name):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    spec = QuadratureSpec()
    first_pass = 0
    for u, v in _grid():
        out, calls = _passes(monkeypatch, INTEGRALS[name], u, v)
        if not calls:
            continue
        f, a, b = calls[0]
        result, abserr, _, _ = convolution.quad(f, a, b)
        ref_total = 0.0
        for i in range(a.size):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                val, err, info = scipy_integrate.quad(
                    f, a[i], b[i], epsabs=spec.abs_tol / a.size, epsrel=spec.rel_tol,
                    limit=convolution.MAX_SUBDIVISIONS, full_output=1)
            ref_total += val
            if info["last"] == 1:
                first_pass += 1
                assert _bits(result[i]) == _bits(val), (u, v, a[i], b[i])
                assert _bits(abserr[i]) == _bits(err), (u, v, a[i], b[i])
        if name == "tau":
            # tau adds back, exactly, the tail past its cutoff b[-1] once that
            # tail exceeds the relative tolerance; scipy integrates up to b[-1].
            table = special.default_dickman()
            tail = table.integral(b[-1], special.rho_support_hi(table))
            if tail > spec.rel_tol * abs(ref_total):
                ref_total += tail
        total = out if name == "tau" else out.value
        if len(calls) == 1:
            # Only first-pass pieces: the summed value is scipy's to the bit.
            assert _bits(total) == _bits(ref_total), (u, v)
        else:
            assert abs(total - ref_total) <= out.est_abs_err, (u, v)
    assert first_pass > 0


def test_qk21_matches_scipy_error_formula_bit_for_bit():
    # The table integrands are smooth enough that most error estimates sit
    # at the round-off floor; a Runge function over wide pieces exercises the
    # (200 * abserr / resasc) ** 1.5 scaling.  limit=1 makes scipy return
    # dqk21's own value and error for every piece.
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.Generator(np.random.Philox(key=11))
    a = rng.uniform(-2.0, 1.0, 300)
    b = a + rng.uniform(0.01, 3.0, 300)

    def runge(s):
        return 1.0 / (1.0 + 25.0 * s * s)

    result, abserr, _, _ = convolution.quad(runge, a, b)
    for i in range(a.size):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, err = scipy_integrate.quad(runge, a[i], b[i], limit=1)
        assert _bits(result[i]) == _bits(val) and _bits(abserr[i]) == _bits(err), (a[i], b[i])


def test_fallback_converges_across_underflow_cut(monkeypatch):
    # rho(s) drops to exact 0 inside the last table segment, so two pieces
    # hold a jump that saturates dqk21's error estimate and are bisected.
    u, v = 93.4, 6.98
    c, calls = _passes(monkeypatch, convolution.conv_rho_rho, u, v)
    assert len(calls) > 1
    support = special.rho_support_hi(special.default_dickman())
    pts = _knot_points(max(v, u - support), min(u, support), u)
    simpson = sum(simpson_adaptive(lambda s: rho(u - s) * rho(s), a, b, rel_tol=1e-13)
                  for a, b in zip(pts[:-1], pts[1:]))
    assert c.est_abs_err > 0.0
    assert abs(c.value - simpson) <= c.est_abs_err


def test_fallback_stops_at_subdivision_budget(monkeypatch):
    # No error estimate reaches 1e-300, so the piece is bisected until it
    # holds MAX_SUBDIVISIONS subintervals: the best value and its error come
    # back instead of an exception.
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)

    def step(s):
        return np.where(s > 0.3, 1.0, 0.0)

    [(value, err)], calls = _passes(
        monkeypatch, _integrate_pieces, _single(step), [[0.0, 1.0]], spec)
    assert len(calls) == convolution.MAX_SUBDIVISIONS
    assert err > spec.abs_tol
    assert abs(value - 0.7) <= err


# v < 1, where C_or starts below C_or'; v >= u - 1, where both are empty;
# u - 1 beyond the rho support, where C_or is cut at 83 and C_or' at 84 and
# pieces straddling the underflow are bisected.
_BATCH_GRID = _grid() + [(5.0, 0.4), (2.2, 0.05), (3.0, 2.5), (1.5, 0.7), (100.0, 1.5),
                         (99.975, 60.0), (93.4, 6.98)]


def test_batch_matches_single_integrals_bit_for_bit(monkeypatch):
    terms = [(u, v, prime) for u, v in _BATCH_GRID for prime in (False, True)]
    # The same terms again in reverse: bisected pieces of different u then
    # interleave out of order, and every (u, v, prime) is in the batch twice.
    terms += terms[::-1]
    batch, calls = _passes(monkeypatch, convolution.omega_convolutions, terms)
    assert len(calls) > 1  # some pieces were bisected
    for (u, v, prime), got in zip(terms, batch):
        single = (convolution.conv_omega_rho_prime if prime else convolution.conv_omega_rho)(u, v)
        assert _bits(got.value) == _bits(single.value), (u, v, prime)
        assert _bits(got.est_abs_err) == _bits(single.est_abs_err), (u, v, prime)
        assert got.effective_support == single.effective_support
    empty = [got for (u, v, _), got in zip(terms, batch) if v >= u - 1.0]
    assert len(empty) == 8 and all(c.value == 0.0 and c.est_abs_err == 0.0 for c in empty)


# validate_convolution's 27 (u, v) points, then u on both sides of the rho
# support cut at 83: rho(u - s) is cut at u - 83 and rho(s) at 83, pieces
# straddling the underflow are bisected, and from u = 166 on the span is empty.
_RHO_BATCH_GRID = ([(u, float(v)) for u in (3.5, 6.0, 10.7875) for v in np.linspace(0.0, u - 1.0, 9)]
                   + [(82.9, 1.0), (83.0, 0.0), (83.1, 0.5), (84.0, 40.0), (93.4, 6.98),
                      (100.0, 1.5), (99.975, 60.0), (166.0, 0.0), (170.5, 2.0)])


def test_rho_batch_matches_conv_rho_rho_bit_for_bit(monkeypatch):
    terms = _RHO_BATCH_GRID + _RHO_BATCH_GRID[::-1]  # reversed, so each term twice
    batch, calls = _passes(monkeypatch, convolution.rho_convolutions, terms)
    assert len(calls) > 1  # some pieces were bisected
    for (u, v), got in zip(terms, batch):
        single = convolution.conv_rho_rho(u, v)
        assert _bits(got.value) == _bits(single.value), (u, v)
        assert _bits(got.est_abs_err) == _bits(single.est_abs_err), (u, v)
        assert got.effective_support == single.effective_support
    empty = [got for (u, _), got in zip(terms, batch) if u >= 166.0]
    assert len(empty) == 4 and all(c.value == 0.0 and c.est_abs_err == 0.0 for c in empty)


def test_validate_convolution_batches_its_checks(monkeypatch):
    # One pass per convolution kind per check, plus bisection rounds and
    # one pass per tau call, is 26; a pass per integral would be 226.
    _, calls = _passes(monkeypatch, validate_convolution)
    assert len(calls) <= 40


def test_eta_is_two_wp_bit_for_bit():
    grid = [(863, 80, 160), (4000, 40, 60), (100, 20, 10), (1024, 160, 200), (2048, 256, 512),
            (300, 30, 31), (64, 16, 40), (160, 80, 100), (4096, 41, 900)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some triples lie outside k > m >= l
        for k, l, m in grid:
            expect = 2.0 * wp(DsaParams(k, l, m)) - wp(DsaParams(k - 1, l, m))
            assert _bits(eta(DsaParams(k, l, m))) == _bits(expect), (k, l, m)


def _array_calls(monkeypatch, fn, *args):
    """Run ``fn(*args)``; return how many times ``quad`` ran and how many
    times ``special.omega`` and ``special.rho`` were called on arrays."""
    counts = {"quad": 0, "omega": 0, "rho": 0}

    def recording(module, name):
        original = getattr(module, name)

        def wrapper(*a, **kw):
            if name == "quad" or np.ndim(a[0]):
                counts[name] += 1
            return original(*a, **kw)

        monkeypatch.setattr(module, name, wrapper)

    recording(convolution, "quad")
    recording(special, "omega")
    recording(special, "rho")
    fn(*args)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("fn, args", [
    (eta, (DsaParams(863, 80, 160),)),
    (theta_estimate, (ScaledParams(1e12, 1e4, 1e6),)),
])
def test_estimate_is_one_quadrature_pass(monkeypatch, fn, args):
    # eta needs C_or and C_or' at two u, theta both at one: all in one pass.
    if fn is theta_estimate:
        assert theta_estimate(*args).in_theorem_domain
    assert _array_calls(monkeypatch, fn, *args) == {"quad": 1, "omega": 1, "rho": 1}


@pytest.mark.parametrize("table_fn", [special.default_dickman, special.default_buchstab])
def test_vector_value_matches_scalar_bit_for_bit(table_fn):
    table = table_fn()
    rng = np.random.Generator(np.random.Philox(key=7))
    pts = np.concatenate([rng.uniform(table.lo, table.hi, 4000), table.knots])
    scalar = [table._value_scalar(float(p)) for p in pts]
    assert np.array_equal(_bits(table.value(pts)), _bits(scalar))


def test_headline_eta_digits():
    assert repr(float(eta(DsaParams(863, 80, 160)))) == "0.09576304073390358"


def test_theta_estimate_beyond_2_pow_53_record(capsys):
    # Values of 2**53 and more render as integers, so they pin every bit.
    argv = ["estimate", "theta", "--x", "2.29190308732e+23", "--y", "98.5730857796",
            "--z", "3.19654469307e+13"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["outputs"] == {
        "main_term": "71897111282943336",
        "second_term": "29135323363612036",
        "value": "1.0103243464655538e+17",
        "error_envelope": "83996830129276400",
    }
