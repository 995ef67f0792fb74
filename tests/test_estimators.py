import math
import warnings

import numpy as np
import pytest

from smoothdiv import (
    DomainError,
    DsaParams,
    EULER_GAMMA,
    EXP_GAMMA,
    ScaledParams,
    conv_omega_rho,
    conv_omega_rho_prime,
    eta,
    lemma4_bound,
    lemma6_estimate,
    phi_estimate,
    phi_exact,
    psi_estimate_hildebrand,
    psi_estimate_saias,
    psi_exact,
    rho,
    s_error_bound,
    s_estimate,
    s_exact,
    tau,
    theta_error_bound,
    theta_estimate,
    theta_exact,
    weighted_smooth_sum,
    wp,
    wp_and_eta,
    zeta_one_y,
)
from smoothdiv.estimators import EstimateResult, theta_envelope_factor
from smoothdiv.oracle import WeightKind

from oracles import RHO_3, simpson_halving


class TestScaledParams:
    def test_scalings(self):
        p = ScaledParams(10**6, 100.0, 10**4)
        assert p.u == pytest.approx(3.0, rel=1e-14)
        assert p.v == pytest.approx(2.0, rel=1e-14)

    def test_v_sentinel_below_one(self):
        assert ScaledParams(100.0, 10.0, 0.5).v == float("-inf")
        assert ScaledParams(100.0, 10.0, 0.0).v == float("-inf")

    def test_u_dominates_v(self):
        for (x, y, z) in [(1e6, 30.0, 1e6), (50.0, 7.0, 49.0), (1e9, 2.0, 12.0)]:
            p = ScaledParams(x, y, z)
            assert p.u >= p.v

    def test_validation(self):
        with pytest.raises(DomainError):
            ScaledParams(-1.0, 10.0, 1.0)
        with pytest.raises(DomainError):
            ScaledParams(10.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            ScaledParams(float("inf"), 10.0, 1.0)


class TestEstimateResult:
    def test_value_is_exact_sum(self):
        r = EstimateResult(1.25, -0.25, 0.5, True)
        assert r.value == 1.0

    def test_envelope_nonnegative(self):
        with pytest.raises(DomainError):
            EstimateResult(1.0, 0.0, -0.1, True)


class TestDsaParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            DsaParams(1, 10, 20)
        with pytest.raises(DomainError):
            DsaParams(40, 0, 20)

    def test_regime_warning(self):
        with pytest.warns(UserWarning, match="regime"):
            DsaParams(40, 10, 40)


class TestThetaEstimate:
    def test_everything_smooth_limit(self):
        # x = y: every n <= x is smooth and has smooth part n > 1 >= z.
        p = ScaledParams(10**6, 10**6, 1.0)
        r = theta_estimate(p)
        assert r.value == pytest.approx(p.x, rel=1e-12)

    def test_matches_bit_parameterization(self):
        p = ScaledParams(2.0**863, 2.0**80, 2.0**160)
        r = theta_estimate(p)
        assert r.value / p.x == pytest.approx(wp(DsaParams(863, 80, 160)), abs=1e-12)

    def test_desk_scale_vs_oracle(self, sieve_10m):
        x, y, z = 1e7, 10 ** (7 / 4), 10 ** (7 / 2)
        p = ScaledParams(x, y, z)
        r = theta_estimate(p)
        exact = theta_exact(x, y, z, sieve_10m)
        assert abs(exact - r.value) <= 10.0 * r.error_envelope

    def test_domain_flags(self):
        r = theta_estimate(ScaledParams(1e12, 1e4, 1e6))
        assert r.in_theorem_domain
        # z below y log y: still computed, flagged out of domain.
        r = theta_estimate(ScaledParams(1e12, 1e4, 2e4))
        assert not r.in_theorem_domain
        assert any("y log y <= z: FAIL" in n for n in r.domain_notes)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            theta_estimate(ScaledParams(2.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            theta_estimate(ScaledParams(100.0, 5.0, 0.5))


class TestThetaErrorBound:
    def test_finite_positive(self):
        assert theta_error_bound(ScaledParams(1e6, 100.0, 1e4)) > 0.0

    def test_small_v_guard(self):
        # v -> 0+ forces the guard in the third envelope term.
        p = ScaledParams(1e6, 100.0, 1.0)  # v = 0
        log_y = math.log(100.0)
        expected = (1e6 / log_y) * (rho(p.u - 1.0) + 0.0 + 1.0 / math.log1p(0.01))
        assert theta_error_bound(p) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_x(self):
        # The envelope is x times a function of (u, v, y) alone.
        p = ScaledParams(1e6, 100.0, 1e4)
        factor = theta_envelope_factor(p.u, p.v, p.y)
        assert theta_error_bound(p) == pytest.approx(p.x * factor, rel=1e-14)
        assert theta_envelope_factor(p.u, p.v, p.y) == factor  # no hidden x dependence


class TestPsiEstimates:
    def test_hildebrand_main_term(self):
        r = psi_estimate_hildebrand(1e6, 1e3)
        assert r.main_term == pytest.approx((1 - math.log(2)) * 1e6, rel=1e-12)
        assert r.main_term == pytest.approx(306852.8, abs=0.1)
        assert r.second_term == 0.0

    def test_hildebrand_u_equals_one(self):
        assert psi_estimate_hildebrand(1000.0, 1000.0).main_term == pytest.approx(1000.0)

    def test_hildebrand_vs_oracle(self, sieve_1m):
        r = psi_estimate_hildebrand(1e6, 100.0)
        exact = psi_exact(1e6, 100.0, sieve_1m)
        assert abs(exact - r.value) <= 3.0 * r.error_envelope

    def test_saias_second_term(self):
        r = psi_estimate_saias(1e6, 1e3)
        expected = (EULER_GAMMA - 1.0) * (-0.5) * 1e6 / math.log(1e3)
        assert r.second_term == pytest.approx(expected, rel=1e-12)

    def test_saias_near_u_one(self):
        # x barely above y: the main term is essentially x and the correction
        # is a small positive shift (both factors of the second term are
        # negative, so their product cannot be negative).
        x = 1e4 ** 1.0001
        r = psi_estimate_saias(x, 1e4)
        assert r.main_term == pytest.approx(x, rel=2e-4)
        assert 0.0 < r.second_term < 0.05 * x
        assert not r.in_theorem_domain  # x < y log y

    def test_saias_beats_hildebrand_on_majority(self, sieve_1m):
        wins = total = 0
        for x in (1e5, 2e5, 3e5, 5e5, 1e6):
            for u in (2.0, 2.5, 3.0, 3.5):
                y = x ** (1.0 / u)
                exact = psi_exact(x, y, sieve_1m)
                h = psi_estimate_hildebrand(x, y)
                s = psi_estimate_saias(x, y)
                wins += abs(exact - s.value) <= abs(exact - h.value)
                total += 1
        assert total == 20 and wins > total / 2


class TestSEstimate:
    def test_main_and_second_terms(self):
        r = s_estimate(1e4, 1e8)
        assert r.main_term == pytest.approx(tau(2.0) * math.log(1e4), rel=1e-12)
        assert r.second_term == pytest.approx(-EULER_GAMMA * rho(2.0), rel=1e-12)

    def test_tiny_case_within_envelope(self, sieve_small):
        r = s_estimate(5.0, 1.0)
        exact = s_exact(5.0, 1.0, sieve_small)
        assert exact == 2.75
        assert abs(exact - r.value) <= r.error_envelope

    def test_branch_boundary_continuity(self):
        y = 200.0
        z0 = y * math.log(y)
        lo = s_estimate(y, z0 * (1 - 1e-9))
        hi = s_estimate(y, z0 * (1 + 1e-9))
        assert abs(lo.value - hi.value) <= 1e-6
        assert abs(lo.error_envelope - hi.error_envelope) <= max(lo.error_envelope,
                                                                 hi.error_envelope)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            s_estimate(2.0, 10.0)
        with pytest.raises(DomainError):
            s_estimate(10.0, 0.5)


class TestSErrorBound:
    def test_large_z_branch(self):
        assert s_error_bound(100.0, 1e6) == pytest.approx(
            RHO_3 * math.log(4.0) / math.log(100.0), rel=1e-10)

    def test_small_z_branch(self):
        expected = 0.1 + math.log(math.log(100.0)) / math.log(100.0)
        assert s_error_bound(100.0, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_boundary_uses_large_z_branch(self):
        y = 50.0
        z = y * math.log(y)
        v = math.log(z) / math.log(y)
        expected = rho(v) * math.log1p(v) / math.log(y)
        assert s_error_bound(y, z) == pytest.approx(expected, rel=1e-12)


class TestPhiEstimate:
    def test_main_term_formula(self):
        r = phi_estimate(1e6, 1e3)
        expected = (1e6 * 0.5 - 1e3) * EXP_GAMMA / zeta_one_y(1e3)
        assert r.main_term == pytest.approx(expected, rel=1e-12)

    def test_small_case(self, sieve_small):
        r = phi_estimate(100.0, 5.0)
        assert phi_exact(100.0, 5.0, sieve_small) == 26
        assert abs(26 - r.value) <= 5.0 * max(r.error_envelope, 1.0)

    def test_desk_scale(self, sieve_10m):
        r = phi_estimate(1e7, 200.0)
        exact = phi_exact(1e7, 200.0, sieve_10m)
        assert abs(exact - r.value) <= 5.0 * r.error_envelope

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_estimate(100.0, 200.0)


class TestLemma6:
    def test_empty_range(self):
        p = ScaledParams(1e6, 100.0, 1e4)  # z = x/y exactly
        r = lemma6_estimate(p)
        assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle(self, sieve_1m):
        p = ScaledParams(1e6, 50.0, 500.0)
        r = lemma6_estimate(p)
        exact = weighted_smooth_sum(p, WeightKind.BUCHSTAB_OMEGA, sieve_1m)
        assert abs(exact - r.value) <= 10.0 * r.error_envelope

    def test_main_term_monotone_in_z(self):
        vals = [lemma6_estimate(ScaledParams(1e6, 50.0, z)).main_term
                for z in (100.0, 500.0, 2000.0, 10000.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_range_requirement(self):
        with pytest.raises(DomainError):
            lemma6_estimate(ScaledParams(1e6, 100.0, 2e4))


class TestLemma4:
    def test_nonnegative(self):
        for (x, y, z) in [(1e5, 30.0, 100.0), (1e6, 50.0, 500.0)]:
            assert lemma4_bound(ScaledParams(x, y, z)) >= 0.0

    def test_bounds_oracle_sum(self, sieve_1m):
        p = ScaledParams(1e6, 50.0, 500.0)
        exact = weighted_smooth_sum(p, WeightKind.DICKMAN_RHO, sieve_1m)
        bound = lemma4_bound(p)
        assert exact <= 10.0 * bound
        assert exact / bound > 0.0  # fitted constant is recorded by the harness

    def test_positive_even_when_sum_empty(self):
        # v close to u: the comparator stays positive (it is not tight).
        p = ScaledParams(1e4, 10.0, 1e3)
        assert lemma4_bound(p) > 0.0


class TestWpEta:
    def test_reduces_to_rho_when_support_empty(self):
        # m/l >= k/l - 1: the convolutions vanish.
        d = DsaParams(30, 5, 29)
        assert wp(d) == rho(6.0)

    def test_headline_values_in_unit_interval(self):
        a = wp(DsaParams(863, 80, 160))
        b = wp(DsaParams(862, 80, 160))
        assert 0.0 < a < 1.0 and 0.0 < b < 1.0

    def test_wp_decreasing_in_m(self):
        vals = [wp(DsaParams(40, 10, m)) for m in (12, 16, 20, 24)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_eta_reduction_when_support_empty(self):
        d = DsaParams(30, 5, 29)
        assert eta(d) == pytest.approx(2.0 * rho(6.0) - rho(29 / 5), rel=1e-12)

    # k up to 4096 with l and m at and around the edges of k > m >= l,
    # inside and outside that regime; l = k/2 and l >= k put u = k/l <= 2.
    _GRID = [(k, l, m)
             for k in (2, 3, 8, 40, 160, 863, 1024, 2048, 4096)
             for l in sorted({1, 2, 8, 20, 80, max(k // 2, 1), k - 1, k, k + 1} - {0})
             for m in sorted({1, l, 2 * l, k - 1, k, k + 5} - {0})]

    def test_wp_in_unit_interval_and_eta_finite_on_a_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # most of the grid lies outside the regime
            for k, l, m in self._GRID:
                d = DsaParams(k, l, m)
                assert 0.0 <= wp(d) <= 1.0, (k, l, m)
                assert math.isfinite(eta(d)), (k, l, m)

    def test_wp_and_eta_keep_the_bits_of_wp_and_eta(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k, l, m in [(863, 80, 160), (4000, 40, 60), (100, 20, 10), (20, 3, 19)]:
                d = DsaParams(k, l, m)
                w_k, e = wp_and_eta(d)
                assert (np.float64(w_k).tobytes(), np.float64(e).tobytes()) == (
                    np.float64(wp(d)).tobytes(), np.float64(eta(d)).tobytes()), (k, l, m)

    def test_eta_matches_convolution_assembly(self):
        d = DsaParams(48, 12, 24)
        u, v = 4.0, 2.0
        expect_wp = (rho(u) + conv_omega_rho(u, v).value
                     - EULER_GAMMA * conv_omega_rho_prime(u, v).value
                     / (12 * math.log(2.0)))
        assert wp(d) == pytest.approx(expect_wp, rel=1e-13)
