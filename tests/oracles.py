"""Independent oracles used to freeze expected values in the tests.

Nothing here touches the package's piecewise tables or its Gauss-Kronrod
quadrature: the integrators are plain composite Simpson with step halving,
and the Dickman values come either from closed forms on [0, 3] or from a
trapezoid march of the defining integral recurrence with Richardson
extrapolation.  The table coefficients are checked against the same
midpoint-series recurrences run in ``Decimal`` arithmetic at a working
precision that grows with the degree, then rounded to doubles through
``float(Decimal)``.  The prime list is checked against a sieve of
Eratosthenes that flags every number, odd and even.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from smoothdiv.errors import ResourceError


def simpson(f, a, b, panels):
    n = 2 * panels
    h = (b - a) / n
    s = f(a) + f(b)
    for i in range(1, n):
        s += (4.0 if i % 2 else 2.0) * f(a + i * h)
    return h / 3.0 * s


def simpson_halving(f, a, b, tol=1e-13, max_doublings=22):
    """Composite Simpson, doubling panels until two refinements agree."""
    panels, prev = 4, None
    cur = None
    for _ in range(max_doublings):
        cur = simpson(f, a, b, panels)
        if prev is not None and abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return cur
        prev, panels = cur, panels * 2
    return cur


def _simpson_nodewise(f, a, b, panels):
    n = 2 * panels
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def simpson_adaptive_nodewise(f, a, b, rel_tol=1e-11, max_doublings=12):
    """``validation.simpson_adaptive`` as it was when ``f`` took one scalar
    node per call: the reference its array evaluation must reproduce."""
    if b <= a:
        return 0.0
    panels = 4
    prev = _simpson_nodewise(f, a, b, panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = _simpson_nodewise(f, a, b, panels)
        scale = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rel_tol * scale:
            return cur
        prev = cur
    return prev


def rho_closed(u):
    """Dickman rho on [0, 3] from closed forms (quadrature only on [2, 3])."""
    if u < 0:
        return 0.0
    if u <= 1:
        return 1.0
    if u <= 2:
        return 1.0 - math.log(u)
    if u <= 3:
        return 1.0 - math.log(u) + simpson_halving(lambda s: math.log(s - 1) / s, 2.0, u)
    raise ValueError("closed forms implemented only up to u = 3")


def rho_delay_grid(u_target=3.0, tol=1e-12):
    """rho(u_target) by marching the integral recurrence on a uniform grid.

    Trapezoid steps of rho'(u) = -rho(u-1)/u with Richardson extrapolation of
    successive step halvings until 12-digit agreement.
    """
    def march(n_per_unit):
        units = int(math.ceil(u_target))
        h = 1.0 / n_per_unit
        vals = [1.0] * (n_per_unit + 1)
        for i in range(n_per_unit, units * n_per_unit):
            f0 = vals[i - n_per_unit] / (i * h)
            f1 = vals[i + 1 - n_per_unit] / ((i + 1) * h)
            vals.append(vals[i] - h / 2.0 * (f0 + f1))
        return vals[int(round(u_target * n_per_unit))]

    prev = None
    n = 64
    for _ in range(14):
        rich = (4.0 * march(2 * n) - march(n)) / 3.0
        if prev is not None and abs(rich - prev) <= tol * abs(rich):
            return rich
        prev, n = rich, n * 2
    return prev


def omega_closed(u):
    """Buchstab omega on [1, 3] from closed forms."""
    if u < 1:
        return 0.0
    if u <= 2:
        return 1.0 / u
    if u <= 3:
        return (1.0 + math.log(u - 1.0)) / u
    raise ValueError("closed forms implemented only up to u = 3")


# Values frozen from the oracles above (and re-derivable by running them):
RHO_3 = 0.04860838829113101               # rho_closed(3); rho_delay_grid(3) agrees to 9e-15
CONV_OMEGA_RHO_3_15 = 0.17604345420234035  # simpson_halving of (1-log s)/(3-s) on [1.5, 2]
CONV_OMEGA_RHO_PRIME_3_15 = -0.23104906018664917  # simpson_halving of (-1/s)/(3-s) on [1.5, 2]
CONV_RHO_RHO_2_0 = 4.0 - 4.0 * math.log(2.0)      # analytic: 2 * integral of (1 - log t) on [1, 2]


# -- Decimal reference construction of the table coefficients ------------------


def _construction_precision(degree: int) -> int:
    """Decimal digits so construction roundoff stays below the truncation floor."""
    return 100 + int(math.ceil(0.48 * (degree + 1)))


def _horner_dec(coeffs, t: Decimal) -> Decimal:
    acc = Decimal(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _dickman_segments(u_max: int, degree: int, prec: int) -> list[list[Decimal]]:
    """Midpoint-series coefficients of rho on [k, k+1] for k = 0..u_max-1."""
    with localcontext() as ctx:
        ctx.prec = prec
        half = Decimal(1) / 2
        segments = [[Decimal(1)] + [Decimal(0)] * degree]
        for k in range(1, u_max):
            prev = segments[-1]
            a = Decimal(2 * k + 1) / 2  # midpoint of [k, k+1]
            # Series of rho(u-1)/u around the midpoint: rho(u-1) has the
            # previous segment's coefficients verbatim (same offset), and
            # division by u = a + t is the stable first-order recurrence.
            q = [Decimal(0)] * degree
            q[0] = prev[0] / a
            for j in range(1, degree):
                q[j] = (prev[j] - q[j - 1]) / a
            c = [Decimal(0)] * (degree + 1)
            for j in range(1, degree + 1):
                c[j] = -q[j - 1] / j
            # Continuity at the left knot: value at t=-1/2 must equal the
            # previous segment's value at t=+1/2.
            rho_left = _horner_dec(prev, half)
            tail = _horner_dec(c[1:], -half) * (-half)
            c[0] = rho_left - tail
            segments.append(c)
    return segments


def _buchstab_segments(u_cut: int, degree: int, prec: int) -> list[list[Decimal]]:
    """Midpoint-series coefficients of omega on [k, k+1] for k = 1..u_cut-1."""
    with localcontext() as ctx:
        ctx.prec = prec
        half = Decimal(1) / 2
        # Segment [1, 2]: omega(u) = 1/u = 1/(3/2 + t), a plain geometric series.
        a0 = Decimal(3) / 2
        w = [Decimal(0)] * (degree + 1)
        w[0] = 1 / a0
        for j in range(1, degree + 1):
            w[j] = -w[j - 1] / a0
        segments = [w]
        for i in range(1, u_cut - 1):
            prev = segments[-1]
            a = Decimal(2 * i + 3) / 2  # midpoint of [i+1, i+2]
            # Work with p(u) = u*omega(u), whose derivative is omega(u-1).
            p = [Decimal(0)] * (degree + 1)
            for j in range(1, degree + 1):
                p[j] = prev[j - 1] / j
            omega_left = _horner_dec(prev, half)
            target = (i + 1) * omega_left  # p at the left knot
            tail = _horner_dec(p[1:], -half) * (-half)
            p[0] = target - tail
            c = [Decimal(0)] * (degree + 1)
            c[0] = p[0] / a
            for j in range(1, degree + 1):
                c[j] = (p[j] - c[j - 1]) / a
            segments.append(c)
    return segments


def _to_float_array(segments) -> np.ndarray:
    return np.array([[float(c) for c in seg] for seg in segments], dtype=float)


def dickman_coeffs_decimal(u_max: int, degree: int) -> np.ndarray:
    """Rho table coefficients from the Decimal recurrence, rounded to doubles."""
    return _to_float_array(_dickman_segments(u_max, degree, _construction_precision(degree)))


def buchstab_coeffs_decimal(u_cut: int, degree: int) -> np.ndarray:
    """Omega table coefficients from the Decimal recurrence, rounded to doubles."""
    return _to_float_array(_buchstab_segments(u_cut, degree, _construction_precision(degree)))


def omega_deviations_decimal_60() -> list[float]:
    """|omega(k) - e**-gamma| for k = 3..15 from the 60-digit Buchstab recurrence."""
    prec = 60
    segs = _buchstab_segments(30, 80, prec)
    out = []
    with localcontext() as ctx:
        ctx.prec = prec
        # gamma to 50 digits, well beyond the 60-digit working precision needs.
        gamma = Decimal("0.57721566490153286060651209008240243104215933593992")
        exp_neg_gamma = (-gamma).exp()
        half = Decimal(1) / 2
        for k in range(3, 16):
            seg = segs[k - 2]  # segment [k-1, k]; right edge is u = k
            val = _horner_dec(seg, half)
            out.append(float(abs(val - exp_neg_gamma)))
    return out


def sieve_primes_full_flags(n: int) -> np.ndarray:
    """``oracle.sieve_primes`` as it was when it flagged every number up to n:
    the reference the block sieve must reproduce."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    try:
        is_comp = np.zeros(n + 1, dtype=bool)
    except (MemoryError, ValueError):  # numpy refuses an array this large
        raise ResourceError(f"a prime sieve up to {n} does not fit in memory") from None
    is_comp[:2] = True
    for i in range(2, math.isqrt(n) + 1):
        if not is_comp[i]:
            is_comp[i * i :: i] = True
    # Inverting in place and a no-copy cast keep the peak at the flag array
    # plus the primes.
    np.logical_not(is_comp, out=is_comp)
    return np.flatnonzero(is_comp).astype(np.int64, copy=False)


def piecewise_integral_per_segment(table, a: float, b: float) -> float:
    """``PiecewiseFunction.integral`` as it was when every segment, whole or
    partial, went through ``_segment_integral``: the reference the cached
    whole-segment integrals must reproduce bit for bit."""
    if b < a:
        return -piecewise_integral_per_segment(table, b, a)
    ia = table.segment_index(a)
    ib = table.segment_index(b)
    total = 0.0
    for k in range(ia, ib + 1):
        left = max(a, float(table.knots[k]))
        right = min(b, float(table.knots[k]) + 1.0)
        if right > left:
            total += table._segment_integral(k, left, right)
    return total
