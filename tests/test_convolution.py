import math

import numpy as np
import pytest

from smoothdiv import (
    DomainError,
    EXP_GAMMA,
    Numerics,
    QuadratureSpec,
    conv_omega_rho,
    conv_omega_rho_prime,
    conv_rho_rho,
    rho,
    tau,
)
from smoothdiv.convolution import DEFAULT_ABS_TOL
from smoothdiv.special import rho_support_hi

from oracles import (
    CONV_OMEGA_RHO_3_15,
    CONV_OMEGA_RHO_PRIME_3_15,
    CONV_RHO_RHO_2_0,
    simpson_halving,
)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-12 and spec.rel_tol == 1e-10

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)


class TestTau:
    def test_tau_zero_is_exp_gamma(self):
        # Classical identity: the full integral of rho equals e^gamma.
        assert abs(tau(0.0) - EXP_GAMMA) <= 1e-10

    def test_tau_zero_simpson_oracle(self, dickman):
        # Independent step-halving quadrature over the table, piece by piece,
        # truncated where rho is negligible.
        total = sum(simpson_halving(lambda s: rho(s, dickman), float(k), float(k + 1))
                    for k in range(0, 30))
        assert tau(0.0) == pytest.approx(total, abs=1e-10)

    def test_flat_shift(self):
        assert tau(0.5) == pytest.approx(tau(0.0) - 0.5, abs=2e-12)

    def test_negative_argument(self):
        assert tau(-3.0) == tau(0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            tau(float("nan"))

    @pytest.mark.parametrize("v", [8.2, 10.0, 12.0, 13.0, 14.0, 20.5])
    def test_keeps_the_tail_past_its_cutoff(self, v, dickman):
        # From v ~ 7 on, the mass past the quadrature cutoff is most of tau:
        # it must come back, or tau(v) is 0 from v = 13 on.
        exact = dickman.integral(v, rho_support_hi(dickman))
        assert exact > 0.0
        assert tau(v) == pytest.approx(exact, rel=1e-15)


class TestConvOmegaRho:
    def test_empty_support(self):
        c = conv_omega_rho(2.5, 1.6)
        assert c.value == 0.0 and c.est_abs_err == 0.0

    def test_closed_form_window(self):
        # Both factors in closed form on [1.5, 2]: (1 - log s)/(3 - s).
        c = conv_omega_rho(3.0, 1.5)
        assert c.value == pytest.approx(CONV_OMEGA_RHO_3_15, rel=1e-10)
        assert c.est_abs_err <= 1e-9

    def test_desk_scale_bounded_by_tau(self):
        c = conv_omega_rho(10.7875, 2.0)
        assert 0.0 < c.value < tau(2.0)

    def test_support_metadata(self):
        c = conv_omega_rho(7.5, 2.25)
        assert c.effective_support[1] == 7.5 - 1.0
        assert c.effective_support[0] == 2.25
        assert c.est_abs_err >= 0.0


class TestConvOmegaRhoPrime:
    def test_empty_support(self):
        assert conv_omega_rho_prime(5.0, 4.5).value == 0.0

    def test_closed_form_window(self):
        c = conv_omega_rho_prime(3.0, 1.5)
        assert c.value == pytest.approx(CONV_OMEGA_RHO_PRIME_3_15, rel=1e-10)

    def test_sign_nonpositive_beyond_one(self):
        for (u, v) in [(4.0, 1.0), (6.0, 2.0), (9.5, 1.25)]:
            assert conv_omega_rho_prime(u, v).value <= 0.0

    def test_flat_piece_skipped_analytically(self):
        # rho' vanishes on [v, 1), so the value with v < 1 equals the value at v = 1.
        assert conv_omega_rho_prime(4.0, 0.2).value == conv_omega_rho_prime(4.0, 1.0).value

    def test_support_hi_invariant(self):
        c = conv_omega_rho_prime(6.25, 1.5)
        assert c.effective_support[1] == 6.25 - 1.0


class TestConvRhoRho:
    def test_analytic_value(self):
        c = conv_rho_rho(2.0, 0.0)
        assert c.value == pytest.approx(CONV_RHO_RHO_2_0, rel=1e-10)

    def test_empty_when_v_exceeds_u(self):
        assert conv_rho_rho(3.0, 3.5).value == 0.0

    def test_unit_square(self):
        assert conv_rho_rho(1.0, 0.0).value == pytest.approx(1.0, rel=1e-12)


class TestConvolutionProperties:
    def test_monotone_in_v(self):
        for u in (3.5, 8.0):
            vs = np.linspace(0.0, u - 1.0, 8)
            for conv in (conv_omega_rho, conv_omega_rho_prime):
                vals = [abs(conv(u, float(v)).value) for v in vs]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            vals = [abs(conv_rho_rho(u, float(v)).value) for v in vs]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_envelope_bounds(self, dickman):
        # 0 <= omega <= 1 forces C_or <= tau(v) and |C_or'| <= rho(v) (v >= 1).
        for (u, v) in [(4.0, 1.0), (6.5, 1.5), (10.0, 2.0), (12.0, 3.0)]:
            assert conv_omega_rho(u, v).value <= tau(v) * (1 + 1e-10)
            assert abs(conv_omega_rho_prime(u, v).value) <= rho(v, dickman) * (1 + 1e-10)

    def test_robustness_under_tighter_tolerance(self):
        rng = np.random.Generator(np.random.Philox(key=42))
        tight = QuadratureSpec(abs_tol=DEFAULT_ABS_TOL / 2.0)
        pts = [(float(u), float(v))
               for u in rng.uniform(2.2, 12.0, 10) for v in rng.uniform(0.0, 2.0, 5)]
        for u, v in pts:
            base = conv_omega_rho(u, v)
            tighter = conv_omega_rho(u, v, Numerics(spec=tight))
            assert abs(base.value - tighter.value) <= max(base.est_abs_err, 1e-15)

    def test_integration_by_parts(self, dickman, buchstab):
        from smoothdiv import omega, omega_prime
        from smoothdiv.convolution import _integrate_pieces, _knot_points

        for (u, v) in [(4.0, 1.2), (6.5, 1.0), (9.25, 2.5)]:
            lhs = conv_omega_rho_prime(u, v).value
            boundary = (omega(1.0, buchstab) * rho(u - 1.0, dickman)
                        - omega(u - v, buchstab) * rho(v, dickman))
            pieces = _knot_points(v, u - 1.0, u)
            [(integral, _)] = _integrate_pieces(
                lambda s, owner: omega_prime(u - s, buchstab) * rho(s, dickman),
                [pieces], QuadratureSpec())
            assert abs(lhs - (boundary + integral)) <= 1e-8


def _knot_points_every_shift(lo, hi, u):
    """The split points with every shift u - j tested from j = 1 on."""
    pts = {float(k) for k in range(math.ceil(lo), math.floor(hi) + 1)}
    j = 1
    while u - j > lo:
        if u - j < hi:
            pts.add(u - j)
        j += 1
    eps = 1e-12 * max(1.0, abs(hi))
    merged = [lo]
    for p in sorted(pts):
        if p - merged[-1] > eps and hi - p > eps:
            merged.append(p)
    merged.append(hi)
    return merged


class TestKnotPoints:
    def test_same_points_as_testing_every_shift(self):
        from smoothdiv.convolution import _knot_points

        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(300):
            lo = float(rng.uniform(0.0, 5.0))
            hi = lo + float(rng.uniform(0.0, 12.0))
            u = float(rng.choice([hi + rng.uniform(0.0, 90.0), hi + rng.integers(0, 90),
                                  lo + rng.uniform(0.0, 3.0)]))
            assert _knot_points(lo, hi, u) == _knot_points_every_shift(lo, hi, u)

    def test_huge_shift_is_cheap(self):
        # dsa-risk --k 2**62 --l 1 gives u = 2**62; every shift was tested, one by one.
        from smoothdiv.convolution import _knot_points

        assert _knot_points(0.0, 80.0, 2.0**62) == [float(k) for k in range(81)]
