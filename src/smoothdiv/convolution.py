"""Tail integral tau and partial convolutions of omega with rho and rho'.

The quantities computed here are

    tau(v)                  = integral of rho(s) over [v, inf),
    conv_omega_rho(u, v)    = integral of omega(u-s) rho(s)  over [v, inf),
    conv_omega_rho_prime    = integral of omega(u-s) rho'(s) over [v, inf),
    conv_rho_rho(u, v)      = integral of rho(u-s) rho(s)    over [v, inf).

The infinite upper limits are a formality: omega(u-s) vanishes for s > u-1 and
rho(u-s) for s > u, so the effective support is finite, and the rho tail is
truncated once the table certifies the remainder is negligible.

Every integral is pre-split at each point where either factor's piecewise
definition changes (integer s, s = u - j, and s = 1 for the rho' jump), so
each knot-free piece is analytic.  All pieces of one integral then go through
one vectorized pass of QUADPACK's 21-point Gauss-Kronrod rule ``dqk21``
(Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*, 1983): the
integrand is evaluated once on the flat array of every node of every piece,
and each piece gets the rule's value and error estimate, computed with the
Fortran routine's nodes, weights and order of operations.  A piece is
accepted by the first-pass test of QUADPACK's adaptive routine ``dqagse``.
The few it rejects (in practice, pieces straddling the point where rho
underflows to 0) are refined by repeatedly bisecting each one's worst
subinterval until its summed error meets the tolerance or the subdivision
budget is spent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import special
from .errors import DomainError
from .piecewise import PiecewiseFunction

#: Default absolute tolerance; downstream terms are multiplied by x, so this
#: stays far below any error envelope at desk scale.
DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-10

#: Subintervals a rejected piece may be bisected into before its best value
#: and error are returned as they stand.
MAX_SUBDIVISIONS = 64

#: Default epsilon in the estimators' lower-bound check
#: y >= exp((log log x)**(5/3 + eps)).
DEFAULT_EPSILON = 0.01


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the convolution quadrature."""

    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")


@dataclass(frozen=True)
class ConvolutionValue:
    """A convolution integral with its error estimate and clipped support."""

    value: float
    est_abs_err: float
    effective_support: tuple[float, float]


class Numerics(NamedTuple):
    """What an integral or estimate runs with: the rho and omega tables, the
    quadrature spec and the domain-check epsilon.  A None table selects the
    package default; :attr:`rho` and :attr:`omega` resolve it."""

    rho_table: PiecewiseFunction | None = None
    omega_table: PiecewiseFunction | None = None
    spec: QuadratureSpec = QuadratureSpec()
    epsilon: float = DEFAULT_EPSILON

    @property
    def rho(self) -> PiecewiseFunction:
        return self.rho_table if self.rho_table is not None else special.default_dickman()

    @property
    def omega(self) -> PiecewiseFunction:
        return self.omega_table if self.omega_table is not None else special.default_buchstab()


DEFAULT_NUMERICS = Numerics()

# dqk21 constants: Kronrod abscissae (the even-numbered ones, 1-based, are the
# 10-point Gauss abscissae; the last is the centre), Kronrod weights, and the
# 10-point Gauss weights.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# d1mach(4) and d1mach(1).
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def quad(f: Callable[[np.ndarray], np.ndarray], a, b):
    """QUADPACK ``dqk21`` on every piece ``[a[i], b[i]]`` in one pass.

    ``f`` takes a 1-D array of nodes and returns the integrand there; it is
    called once, on all 21 nodes of all pieces.  Returns per-piece arrays
    ``(result, abserr, resabs, resasc)`` as ``dqk21`` defines them: the
    Kronrod value, its error estimate, the rule applied to ``|f|`` and to
    ``|f - mean|``.  Every sum runs in ``dqk21``'s order, elementwise across
    pieces, so each piece's numbers are those of the scalar routine.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK[:10]
    nodes = np.concatenate([centr[:, None], centr[:, None] - absc, centr[:, None] + absc], axis=1)
    fv = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    fc, fv1, fv2 = fv[:, 0], fv[:, 1:11], fv[:, 11:]

    resg = np.zeros_like(centr)
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    # dqk21 adds the Gauss-Kronrod nodes first, then the Kronrod-only ones.
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        fsum = fv1[:, j] + fv2[:, j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv1[:, j] - reskh) + np.abs(fv2[:, j] - reskh))

    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    # math.pow is the C library's pow; numpy's SIMD power can differ in the last bit.
    ratio = (200.0 * abserr[scaled] / resasc[scaled]).tolist()
    abserr[scaled] = resasc[scaled] * np.minimum(1.0, [math.pow(r, 1.5) for r in ratio])
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[floor] = np.maximum((_EPMACH * 50.0) * resabs[floor], abserr[floor])
    return result, abserr, resabs, resasc


def _check_finite(*values):
    for v in values:
        if not math.isfinite(v):
            raise DomainError("arguments must be finite")


def _knot_points(lo: float, hi: float, shifts_from: float | None) -> list[float]:
    """Split points in (lo, hi): integers, plus u - j when a shifted factor is present."""
    pts = set()
    for k in range(math.ceil(lo), math.floor(hi) + 1):
        pts.add(float(k))
    if shifts_from is not None:
        u = shifts_from
        # u - j < hi needs j > u - hi; starting just below that skips only
        # shifts the test would reject, so a huge u costs no more than a small one.
        j = max(1, math.floor(u - hi))
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


def _integrate_pieces(
    f: Callable[[np.ndarray], np.ndarray], points: list[float], spec: QuadratureSpec
) -> tuple[float, float]:
    """Integral of ``f`` over ``[points[0], points[-1]]`` and its error estimate.

    ``f`` takes a 1-D array of nodes and returns the integrand at each.  Each
    piece between consecutive points gets tolerance ``abs_tol / npieces`` and
    ``rel_tol``, as ``dqagse`` would with ``epsabs`` and ``epsrel``; piece
    values and errors are summed in piece order.
    """
    n = max(len(points) - 1, 1)
    epsabs = spec.abs_tol / n
    pts = np.asarray(points, dtype=float)
    a, b = pts[:-1], pts[1:]
    result, abserr, resabs, resasc = quad(f, a, b)
    # dqagse's first-pass exit: converged with an unsaturated error estimate,
    # an exact zero error, or round-off already dominating the error.
    errbnd = np.maximum(epsabs, spec.rel_tol * np.abs(result))
    accept = (abserr == 0.0) | np.where(
        abserr <= errbnd, abserr != resasc, abserr <= 100.0 * _EPMACH * resabs)
    rejected = np.flatnonzero(~accept)
    if rejected.size:
        result[rejected], abserr[rejected] = _bisect(
            f, a[rejected], b[rejected], result[rejected], abserr[rejected], epsabs, spec)
    total = 0.0
    err = 0.0
    for val, e in zip(result.tolist(), abserr.tolist()):
        total += val
        err += e
    return total, err


def _bisect(f, a, b, result, abserr, epsabs: float, spec: QuadratureSpec):
    """Refine rejected pieces by bisecting each one's largest-error subinterval.

    One :func:`quad` pass per round covers the halves of every piece still
    refining.  A piece stops once its summed error is within
    ``max(epsabs, rel_tol * |value|)`` or it holds ``MAX_SUBDIVISIONS``
    subintervals; either way its current value and error are returned.
    """
    # parts[i]: piece i's subintervals in order, as (lo, hi, value, error).
    parts = [[p] for p in zip(a.tolist(), b.tolist(), result.tolist(), abserr.tolist())]
    active = list(range(len(parts)))
    while active:
        worst = [max(range(len(parts[i])), key=lambda j: parts[i][j][3]) for i in active]
        lo, hi = [], []
        for i, j in zip(active, worst):
            left, right = parts[i][j][:2]
            mid = 0.5 * (left + right)
            lo += [left, mid]
            hi += [mid, right]
        vals, errs, _, _ = quad(f, lo, hi)
        halves = list(zip(lo, hi, vals.tolist(), errs.tolist()))
        for k, (i, j) in enumerate(zip(active, worst)):
            parts[i][j:j + 1] = halves[2 * k:2 * k + 2]
        still = []
        for i in active:
            value, err = _sum_parts(parts[i])
            if err > max(epsabs, spec.rel_tol * abs(value)) and len(parts[i]) < MAX_SUBDIVISIONS:
                still.append(i)
        active = still
    values, errs = zip(*map(_sum_parts, parts))
    return values, errs


def _sum_parts(parts) -> tuple[float, float]:
    value = 0.0
    err = 0.0
    for _, _, v, e in parts:
        value += v
        err += e
    return value, err


def _integral(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              support: tuple[float, float], shifts_from: float | None,
              spec: QuadratureSpec) -> ConvolutionValue:
    """Integral of ``f`` over ``[a, b]``, split at the knots (see
    :func:`_knot_points`); 0 when ``b <= a``.  ``support`` is reported as the
    result's effective support."""
    if b <= a:
        return ConvolutionValue(0.0, 0.0, support)
    total, err = _integrate_pieces(f, _knot_points(a, b, shifts_from), spec)
    return ConvolutionValue(total, err, support)


def tau(v: float, num: Numerics = DEFAULT_NUMERICS) -> float:
    """Tail integral of the Dickman function, integral of rho over [v, inf).

    For v < 0 this equals tau(0) since rho vanishes below 0.  The upper limit
    is truncated at the first knot where the certified table values make the
    remaining tail smaller than a tenth of the absolute tolerance.
    """
    _check_finite(v)
    rho_t = num.rho
    lo = max(float(v), 0.0)
    hi = _tau_cutoff(lo, rho_t, num.spec)
    return _integral(lambda s: special.rho(s, table=rho_t), lo, hi, (lo, hi), None,
                     num.spec).value


def _tau_cutoff(lo: float, rho_t: PiecewiseFunction, spec: QuadratureSpec) -> float:
    """First knot where rho's monotone decay bounds the remaining tail below
    abs_tol/10 (rho is decreasing beyond 1, so tail <= rho(k) * remaining length)."""
    support_hi = special.rho_support_hi(rho_t)
    k = max(math.ceil(lo), 1)
    while k < support_hi:
        remaining = support_hi - k
        if special.rho(float(k), table=rho_t) * remaining < spec.abs_tol / 10.0:
            return float(k)
        k += 1
    return support_hi


def conv_omega_rho(u: float, v: float, num: Numerics = DEFAULT_NUMERICS) -> ConvolutionValue:
    """integral of omega(u-s) rho(s) ds over [v, u-1] (support-clipped)."""
    _check_finite(u, v)
    rho_t, omega_t = num.rho, num.omega
    hi = u - 1.0
    lo = min(max(v, 0.0), hi)
    cut = min(hi, special.rho_support_hi(rho_t))
    return _integral(lambda s: special.omega(u - s, table=omega_t) * special.rho(s, table=rho_t),
                     lo, cut, (lo, hi), u, num.spec)


def conv_omega_rho_prime(u: float, v: float, num: Numerics = DEFAULT_NUMERICS) -> ConvolutionValue:
    """integral of omega(u-s) rho'(s) ds over [v, u-1].

    rho' vanishes identically on (-inf, 1) and jumps to -1 at s = 1, so the
    lower limit is advanced to 1 analytically rather than sampling the jump.
    """
    _check_finite(u, v)
    rho_t, omega_t = num.rho, num.omega
    hi = u - 1.0
    lo = min(max(v, 1.0), hi)
    # rho'(s) = -rho(s-1)/s dies once s - 1 passes the rho support.
    cut = min(hi, special.rho_support_hi(rho_t) + 1.0)
    return _integral(
        lambda s: special.omega(u - s, table=omega_t) * special._rho_prime_ext(s, table=rho_t),
        lo, cut, (lo, hi), u, num.spec)


def conv_rho_rho(u: float, v: float, num: Numerics = DEFAULT_NUMERICS) -> ConvolutionValue:
    """integral of rho(u-s) rho(s) ds over [v, u] (support-clipped).

    Both factors have unit-interval knots, so splits land at integer s and at
    s = u - j alike.
    """
    _check_finite(u, v)
    rho_t = num.rho
    hi = u
    lo = min(max(v, 0.0), hi)
    support = special.rho_support_hi(rho_t)
    cut_hi = min(hi, support)            # rho(s) dead beyond
    cut_lo = max(lo, u - support)        # rho(u-s) dead below
    return _integral(lambda s: special.rho(u - s, table=rho_t) * special.rho(s, table=rho_t),
                     cut_lo, cut_hi, (lo, hi), u, num.spec)
