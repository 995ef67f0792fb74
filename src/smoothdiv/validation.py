"""Invariant suites for the special functions, convolutions, estimators, and
oracles.

Each suite returns a list of :class:`CheckResult`; the CLI ``validate``
command renders them one per line and exits nonzero if any failed.  All
randomness is drawn from a seeded generator, so a rerun with the same seed
produces byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import convolution, estimators, oracle, special
from .constants import EXP_GAMMA, EXP_NEG_GAMMA
from .convolution import DEFAULT_NUMERICS, Numerics
from .params import ScaledParams

DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.suite}.{self.name}: {self.detail}"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# -- composite Simpson (independent cross-check integrator) --------------------


def simpson(f, a: float, b: float, panels: int) -> float:
    """Plain composite Simpson rule with ``panels`` even subintervals; ``f``
    takes the array of every node and returns the integrand there."""
    n = 2 * panels
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def simpson_adaptive(f, a: float, b: float, rel_tol: float = 1e-11, max_doublings: int = 12) -> float:
    """Step-halving composite Simpson until two refinements agree.

    For continuous integrands only: the rule samples interval endpoints, so
    integrands with right-continuous jumps at the ends converge too slowly.
    """
    if b <= a:
        return 0.0
    panels = 4
    prev = simpson(f, a, b, panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = simpson(f, a, b, panels)
        scale = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rel_tol * scale:
            return cur
        prev = cur
    return prev


# -- special suite ---------------------------------------------------------------


def validate_special(
    seed: int = DEFAULT_SEED, num: Numerics = DEFAULT_NUMERICS
) -> list[CheckResult]:
    rt, ot = num.rho, num.omega
    # The sample ranges below stop at the end of a shorter configured table.
    rho_hi, omega_hi = float(rt.hi), float(ot.hi)
    rng = np.random.Generator(np.random.Philox(key=seed))
    out: list[CheckResult] = []

    def add(name, passed, detail):
        out.append(CheckResult("special", name, bool(passed), detail))

    # Delay-ODE identity for rho: u rho(u) = integral of rho over [u-1, u],
    # integral from the module's own segments.
    us = rng.uniform(1.0, min(40.0, rho_hi), size=200)
    worst = 0.0
    for u in us:
        u = float(u)
        lhs = u * special.rho(u, table=rt)
        rhs = rt.integral(max(u - 1.0, 0.0), u)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    add("rho_delay_ode_identity", worst <= 1e-8,
        f"max relative defect {_fmt(worst)} over 200 points (tol 1e-8)")

    # Cross-check the segment integrals against composite Simpson on a subset.
    worst = 0.0
    for u in us[:20]:
        u = float(u)
        k = math.floor(u)
        seg_int = rt.integral(u - 1.0, u)
        simp = (simpson_adaptive(lambda s: special.rho(s, table=rt), u - 1.0, float(k))
                + simpson_adaptive(lambda s: special.rho(s, table=rt), float(k), u))
        worst = max(worst, abs(seg_int - simp) / max(abs(seg_int), 1e-300))
    add("rho_integral_simpson_crosscheck", worst <= 1e-8,
        f"max relative disagreement {_fmt(worst)} over 20 points (tol 1e-8)")

    # Delay-ODE identity for omega: u omega(u) = 1 + integral over [1, u-1].
    us_o = rng.uniform(2.0, min(30.0, omega_hi + 1.0), size=200)
    worst = 0.0
    for u in us_o:
        u = float(u)
        lhs = u * special.omega(u, table=ot)
        rhs = 1.0 + ot.integral(1.0, u - 1.0)
        worst = max(worst, abs(lhs - rhs))
    add("omega_delay_ode_identity", worst <= 1e-9,
        f"max absolute defect {_fmt(worst)} over 200 points (tol 1e-9)")

    # rho strictly decreasing on [1, 40]; 0 < rho <= 1 on [0, 60].
    top = min(40.0, rho_hi)
    vals = special.rho(np.linspace(1.0, top, 601), table=rt)
    decreasing = bool(np.all(np.diff(vals) < 0.0))
    add("rho_strictly_decreasing", decreasing,
        f"rho decreasing on [1, {_fmt(top)}] (601-point grid)")
    top = min(60.0, rho_hi)
    vals = special.rho(np.linspace(0.0, top, 601), table=rt)
    add("rho_range", bool(np.all(vals > 0.0) and np.all(vals <= 1.0)),
        f"0 < rho <= 1 on [0, {_fmt(top)}]")

    # Buchstab range and high-precision deviation monotonicity at integers.
    grid = np.linspace(1.0, 35.0, 601)
    vals = special.omega(grid, table=ot)
    add("omega_range", bool(np.all(vals >= 0.5) and np.all(vals <= 1.0)),
        "1/2 <= omega <= 1 on [1, 35]")
    # omega - e^-gamma oscillates; omega(4) sits within ~1e-6 of a node, so
    # the deviation magnitudes dip at 4 before resuming their decay.  Assert
    # the true shape: strict decrease from 5 onward and overall decay from 3.
    devs = special.omega_deviations_decimal()
    tail_ok = bool(np.all(np.diff(devs[2:]) < 0.0))
    add("omega_deviation_decreasing",
        tail_ok and devs[0] > devs[1] and devs[0] > devs[2],
        f"|omega(k) - e^-gamma| decays from 3 and strictly for k = 5..15 "
        f"(node near k = 4: {_fmt(devs[1])}); last {_fmt(devs[-1])}")

    # |rho'(t)| <= K rho(t) log(t+1) with a single fitted K <= 3 on [1.5, 30].
    ts = np.linspace(1.5, min(30.0, rho_hi), 572)
    # math.log1p is the C library's; numpy's SIMD log1p can differ in the last bit.
    logs = np.array([math.log1p(t) for t in ts.tolist()])
    ratios = np.abs(special.rho_prime(ts, table=rt)) / (special.rho(ts, table=rt) * logs)
    fitted_k = float(ratios.max())
    add("rho_prime_log_bound", fitted_k <= 3.0,
        f"fitted K = {_fmt(fitted_k)} (bound 3)")

    # rho' from the recurrence equals the analytic segment derivative.
    us_d = rng.uniform(0.05, min(40.0, rho_hi), size=100)
    worst = 0.0
    for u in us_d:
        u = float(u)
        if abs(u - round(u)) < 1e-6:
            continue
        a = special.rho_prime(u, table=rt)
        b = rt.derivative_value(u)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    add("rho_prime_matches_segments", worst <= 1e-8,
        f"max relative disagreement {_fmt(worst)} at 100 interior points (tol 1e-8)")

    # Continuity across interior knots, and the initial-segment conventions.
    worst_c = 0.0
    for k in range(1, rt.n_segments):
        left = rt._segment_right_value(k - 1)
        right = rt.value(float(rt.knots[k]))
        worst_c = max(worst_c, abs(left - right) / max(abs(left), 1e-300))
    add("rho_knot_continuity", worst_c <= 10.0 * rt.target_rel_err,
        f"max relative jump {_fmt(worst_c)} (tol {_fmt(10.0 * rt.target_rel_err)})")
    worst_c = 0.0
    for k in range(1, ot.n_segments):
        if float(ot.knots[k]) < 2.0:
            continue
        left = ot._segment_right_value(k - 1)
        right = special.omega(float(ot.knots[k]), table=ot)
        worst_c = max(worst_c, abs(left - right) / abs(right))
    add("omega_knot_continuity", worst_c <= 10.0 * ot.target_rel_err,
        f"max relative jump {_fmt(worst_c)} (tol {_fmt(10.0 * ot.target_rel_err)})")

    add("rho_initial_segment", special.rho(0.37, table=rt) == 1.0 and special.rho(-1.0, table=rt) == 0.0,
        "rho = 1 on [0, 1], 0 below 0")
    u0 = 1.618
    rel = abs(special.omega(u0, table=ot) - 1.0 / u0) / (1.0 / u0)
    add("omega_initial_segment", special.omega(0.9, table=ot) == 0.0 and rel <= ot.target_rel_err,
        f"omega = 1/u on [1, 2] (rel err {_fmt(rel)}), 0 below 1")

    cert = max(rt.max_certificate, ot.max_certificate)
    add("table_certificates", cert <= rt.target_rel_err,
        f"max stored certificate {_fmt(cert)} <= target {_fmt(rt.target_rel_err)}")
    return out


# -- convolution suite -------------------------------------------------------------


def validate_convolution(
    seed: int = DEFAULT_SEED, num: Numerics = DEFAULT_NUMERICS
) -> list[CheckResult]:
    rt, ot = num.rho, num.omega
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    out: list[CheckResult] = []

    def add(name, passed, detail):
        out.append(CheckResult("convolution", name, bool(passed), detail))

    # Monotone decay in v (fixed u).  Every C_or and C_or' goes through one
    # quadrature pass and every C_rr through another; each run of 9 values
    # is one convolution at one u, v increasing.
    grid = [(u, float(v)) for u in (3.5, 6.0, 10.7875) for v in np.linspace(0.0, u - 1.0, 9)]
    values = (convolution.omega_convolutions(
        [(u, v, prime) for prime in (False, True) for u, v in grid], num)
        + convolution.rho_convolutions(grid, num))
    runs = [[abs(c.value) for c in values[i:i + 9]] for i in range(0, len(values), 9)]
    ok = all(a >= b - 1e-12 for run in runs for a, b in zip(run[:-1], run[1:]))
    add("monotone_in_v", ok, "all three convolutions non-increasing in v at u = 3.5, 6, 10.7875")

    # Envelope: C_or <= tau(v), |C_or'| <= integral of |rho'| = rho(v) for v >= 1.
    ok = True
    worst = 0.0
    pairs = [(u, v) for u in (3.0, 5.5, 9.0) for v in (1.0, 1.5, 2.0, 3.0) if v < u - 1]
    values = convolution.omega_convolutions(
        [(u, v, prime) for u, v in pairs for prime in (False, True)], num)
    taus = {v: convolution.tau(v, num) for _, v in pairs}
    for (u, v), c1, c2 in zip(pairs, values[0::2], values[1::2]):
        c1, c2, tv = c1.value, c2.value, taus[v]
        ok = ok and c1 <= tv * (1.0 + 1e-10) and abs(c2) <= special.rho(v, table=rt) * (1.0 + 1e-10)
        ok = ok and c2 <= 0.0
        worst = max(worst, c1 / tv)
    add("omega_bound_envelope", ok,
        f"C_or <= tau(v) and |C_or'| <= rho(v), sign C_or' <= 0 (max C_or/tau {_fmt(worst)})")

    # Robustness: halving abs_tol moves values by less than the reported error.
    ok = True
    moved = 0.0
    tight = num._replace(spec=replace(num.spec, abs_tol=num.spec.abs_tol / 2.0))
    pts = [(float(u), float(v), False)
           for u in rng.uniform(2.2, 12.0, 10) for v in rng.uniform(0.0, 2.0, 5)]
    for a, b in zip(convolution.omega_convolutions(pts, num),
                    convolution.omega_convolutions(pts, tight)):
        delta = abs(a.value - b.value)
        allowed = max(a.est_abs_err, 1e-15)
        ok = ok and delta <= allowed
        moved = max(moved, delta)
    add("quadrature_robustness", ok,
        f"50-point grid: max shift {_fmt(moved)} under halved abs_tol, within reported errors")

    # Integration by parts: C_or'(u, v) = [omega(u-s) rho(s)] at the ends
    # plus the integral of omega'(u-s) rho(s).  omega' jumps at its knots
    # (right-continuity), so the integral uses the same open-node piece
    # quadrature as the convolutions; the splits land on every jump.  The
    # four C_or' share one pass, and so do the four integrals.
    pairs = [(4.0, 1.2), (6.5, 1.0), (9.25, 2.5), (11.0, 3.5)]
    us = np.array([u for u, _ in pairs])

    def f(s, owner):
        return special.omega_prime(us[owner] - s, table=ot) * special.rho(s, table=rt)

    lhs = convolution.omega_convolutions([(u, v, True) for u, v in pairs], num)
    integrals = convolution._integrate_pieces(
        f, [convolution._knot_points(v, u - 1.0, u) for u, v in pairs], num.spec)
    worst = 0.0
    for (u, v), c, (integral, _err) in zip(pairs, lhs, integrals):
        boundary = (special.omega(1.0, table=ot) * special.rho(u - 1.0, table=rt)
                    - special.omega(u - v, table=ot) * special.rho(v, table=rt))
        worst = max(worst, abs(c.value - (boundary + integral)))
    add("integration_by_parts", worst <= 1e-8,
        f"max defect {_fmt(worst)} across 4 (u, v) pairs (tol 1e-8)")

    # tau tail consistency: tau(v) - tau(v') equals the segment integral.
    worst = 0.0
    for v, vp in [(0.0, 1.0), (0.5, 2.5), (2.0, 5.0)]:
        diff = convolution.tau(v, num) - convolution.tau(vp, num)
        worst = max(worst, abs(diff - rt.integral(v, vp)))
    add("tau_differences", worst <= 1e-10,
        f"tau(v) - tau(v') matches segment integrals to {_fmt(worst)}")
    return out


# -- estimators suite ----------------------------------------------------------------


def validate_estimators(
    seed: int = DEFAULT_SEED,
    sieve: oracle.SieveTables | None = None,
    num: Numerics = DEFAULT_NUMERICS,
) -> list[CheckResult]:
    t = sieve if sieve is not None else oracle.build_sieve(10**6)
    out: list[CheckResult] = []

    def add(name, passed, detail):
        out.append(CheckResult("estimators", name, bool(passed), detail))

    # Empty convolution support: theta/x reduces to rho(u) exactly.
    ok = True
    for (x, y, z) in [(1e6, 1e6, 1.0), (1e6, 100.0, 1e5), (1e8, 10.0, 1e7)]:
        p = ScaledParams(x, y, z)
        if p.v < p.u - 1.0:
            continue
        r = estimators.theta_estimate(p, num)
        ok = ok and r.value / p.x == special.rho(p.u, table=num.rho)
    add("empty_support_reduces_to_rho", ok, "theta/x == rho(u) when v >= u-1")

    # Two code paths, one formula: theta at powers of two vs wp.
    worst = 0.0
    for (k, l, m) in [(40, 10, 20), (48, 12, 24), (60, 15, 30), (863, 80, 160)]:
        p = ScaledParams(2.0**k, 2.0**l, 2.0**m)
        a = estimators.theta_estimate(p, num).value / p.x
        b = estimators.wp(estimators.DsaParams(k, l, m), num)
        worst = max(worst, abs(a - b))
    add("theta_wp_consistency", worst <= 1e-12,
        f"max |theta/x - wp| = {_fmt(worst)} (tol 1e-12)")

    # Envelope positivity and x-homogeneity.
    ok = True
    for (x, y, z) in [(1e5, 30.0, 500.0), (1e7, 100.0, 2000.0), (1e9, 50.0, 1e4)]:
        p = ScaledParams(x, y, z)
        env = estimators.theta_error_bound(p, num)
        factor = estimators.theta_envelope_factor(p.u, p.v, p.y, num)
        ok = ok and env >= 0.0 and abs(env - x * factor) <= 1e-12 * env
    add("envelope_positive_homogeneous", ok,
        "theta envelope is x times a function of (u, v, y), and nonnegative")

    # Lemma 6 empirical constant over a 12-point desk grid.
    grid = [(1e5, 30.0, 100.0), (1e5, 30.0, 300.0), (1e5, 50.0, 200.0),
            (1e6, 50.0, 500.0), (1e6, 50.0, 5000.0), (1e6, 100.0, 300.0),
            (1e6, 100.0, 3000.0), (3e5, 40.0, 150.0), (3e5, 70.0, 700.0),
            (1e6, 200.0, 2000.0), (3e6, 80.0, 800.0), (3e6, 150.0, 1500.0)]
    worst = 0.0
    for (x, y, z) in grid:
        p = ScaledParams(x, y, z)
        exact = oracle.weighted_smooth_sum(p, oracle.WeightKind.BUCHSTAB_OMEGA, t, num)
        est = estimators.lemma6_estimate(p, num)
        worst = max(worst, abs(exact - est.value) / est.error_envelope)
    add("lemma6_constant", worst <= 10.0,
        f"max |exact - estimate| / E(y, z) = {_fmt(worst)} over 12 points (bound 10)")
    return out


# -- oracle suite ----------------------------------------------------------------------


def validate_oracle(
    seed: int = DEFAULT_SEED,
    sieve: oracle.SieveTables | None = None,
) -> list[CheckResult]:
    t = sieve if sieve is not None else oracle.build_sieve(10**6)
    rng = np.random.Generator(np.random.Philox(key=seed + 2))
    out: list[CheckResult] = []

    def add(name, passed, detail):
        out.append(CheckResult("oracle", name, bool(passed), detail))

    # Unique decomposition n = d * e: every n <= 1e4 hit exactly once.
    ok = True
    cap = 10**4
    for y in (3.0, 10.0, 50.0):
        counts = np.zeros(cap + 1, dtype=np.int64)
        rough = np.flatnonzero(oracle._rough_indicator(cap, y, t))
        for d in oracle.smooth_numbers(t.primes_upto(y), cap).tolist():
            np.add.at(counts, d * rough[rough <= cap // d], 1)
        ok = ok and bool(np.all(counts[1:] == 1))
    add("partition_identity", ok,
        "every n <= 1e4 decomposes uniquely as smooth times rough (y = 3, 10, 50)")

    # Literal partition sums at spot values of x.
    ok = True
    for y in (3.0, 10.0, 50.0):
        for x in (100, 5000, 9999, 10**4):
            total = sum(oracle.phi_exact(x / d, y, t)
                        for d in oracle.smooth_numbers(t.primes_upto(y), x).tolist())
            ok = ok and total == x
    add("partition_sums", ok, "sum over smooth d of phi(x/d) equals floor(x)")

    # Direct count equals decomposition count.
    ok = True
    for x in (10**3, 10**4, 10**5):
        for y in (5.0, 20.0, 100.0):
            for z in (1.0, 10.0, 100.0):
                ok = ok and oracle.theta_exact(x, y, z, t) == oracle.theta_exact_decomposed(x, y, z, t)
    add("theta_two_routes", ok, "theta_exact == theta_exact_decomposed on the 27-point grid")

    # Monotonicity of theta in each argument.
    ok = True
    base = (10**5, 20.0, 50.0)
    for _ in range(20):
        x = float(rng.integers(10**3, 10**5))
        y = float(rng.integers(3, 200))
        z = float(rng.integers(1, 1000))
        ok = ok and oracle.theta_exact(x, y, z, t) >= oracle.theta_exact(x, y, z * 2.0, t)
        ok = ok and oracle.theta_exact(x, y, z, t) <= oracle.theta_exact(x * 1.5, y, z, t)
        ok = ok and oracle.theta_exact(x, y, z, t) <= oracle.theta_exact(x, y * 1.5, z, t)
    add("theta_monotone", ok, "theta non-increasing in z, non-decreasing in x and y (20 random triples)")

    # Mertens: zeta(1, y) / (e^gamma log y) -> 1, deviations decreasing.
    ratios = [oracle.zeta_one_y(10.0**e) / (EXP_GAMMA * math.log(10.0**e)) for e in range(2, 7)]
    devs = [abs(r - 1.0) for r in ratios]
    add("mertens_identity", devs[-1] < 0.02 and all(a > b for a, b in zip(devs[:-1], devs[1:])),
        f"|ratio - 1| decreasing over y = 1e2..1e6, final {_fmt(devs[-1])} < 0.02")

    # Compensated-summation consistency of s_exact.
    worst = 0.0
    for (y, z) in [(5.0, 100.0), (50.0, 1000.0), (100.0, 10**5)]:
        d = oracle.smooth_numbers(t.primes_upto(y), z)
        partial = math.fsum(sorted(1.0 / di for di in d.tolist()))
        worst = max(worst, abs(oracle.s_exact(y, z, t) + partial - oracle.zeta_one_y(y)))
    add("s_exact_consistency", worst <= 1e-12,
        f"s_exact + partial sum reproduces zeta(1, y) to {_fmt(worst)} (tol 1e-12)")

    # Order independence of the weighted sums.
    p = ScaledParams(10**5, 30.0, 100.0)
    a = oracle.weighted_smooth_sum(p, oracle.WeightKind.BUCHSTAB_OMEGA, t)
    d = oracle.smooth_numbers(t.primes_upto(p.y), p.x / p.y)
    d = np.sort(d[d > p.z])
    u_d = np.log(d.astype(float)) / math.log(p.y)
    b = math.fsum((special.omega(p.u - u_d) / d.astype(float)).tolist())
    add("weighted_sum_order_independent", a == b,
        "omega-weighted sum identical under sorted enumeration (exactly rounded)")
    return out


_SUITES = {
    "special": lambda seed, sieve, num: validate_special(seed, num),
    "convolution": lambda seed, sieve, num: validate_convolution(seed, num),
    "estimators": validate_estimators,
    "oracle": lambda seed, sieve, num: validate_oracle(seed, sieve),
}


def run_suite(
    name: str,
    seed: int = DEFAULT_SEED,
    sieve: oracle.SieveTables | None = None,
    num: Numerics = DEFAULT_NUMERICS,
) -> list[CheckResult]:
    """Run one invariant suite ('special', 'convolution', 'estimators',
    'oracle') or 'all'.  The exact counts of the oracle suite need no
    tables, so it ignores ``num``."""
    if name == "all":
        shared = sieve if sieve is not None else oracle.build_sieve(10**6)
        results = []
        for key in ("special", "convolution", "estimators", "oracle"):
            results.extend(_SUITES[key](seed, shared, num))
        return results
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](seed, sieve, num)
