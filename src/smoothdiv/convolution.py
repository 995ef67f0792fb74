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
each knot-free piece is analytic.  All pieces of every integral an estimate
needs then go through one vectorized pass of QUADPACK's 21-point
Gauss-Kronrod rule ``dqk21`` (Piessens, de Doncker-Kapenga, Ueberhuber &
Kahaner, *QUADPACK*, 1983): ``eta`` hands :func:`omega_convolutions` C_or and
C_or' at two u, four integrals (:func:`rho_convolutions` batches C_rr the
same way), and the tables are evaluated once on the flat array of every
node of every piece, each node with its own integral's integrand.  A
batch's integrand is ``f(s, owner)``: ``s`` is that flat node array and
``owner[k]`` the index of the integral node ``s[k]`` belongs to, so the
pieces of different integrals may sit in a pass in any order.  Each
piece gets the rule's value and error estimate, computed with the Fortran
routine's nodes, weights and order of operations, so a piece has the same
bits in a batch as alone.  A piece is accepted by the first-pass
test of QUADPACK's adaptive routine ``dqagse``, with its own integral's
tolerance.  The few it rejects (in practice, pieces straddling the point
where rho underflows to 0) are refined by repeatedly bisecting each one's
worst subinterval until its summed error meets the tolerance or the
subdivision budget is spent.  The single-integral functions are batches of
one.
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
    called once, on all 21 nodes of all pieces, piece ``i``'s at flat indices
    ``21 i`` to ``21 i + 20``.  Returns per-piece arrays
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


#: The integrand of a batch: ``f(s, owner)`` takes the flat array of nodes
#: and, for each node, the index of the integral it belongs to.
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _pass(f: Integrand, owner: np.ndarray, a, b):
    """One :func:`quad` pass over the pieces ``[a[i], b[i]]``, piece ``i``
    belonging to integral ``owner[i]``."""
    node_owner = np.repeat(owner, 21)  # quad's 21 nodes a piece, in piece order
    # scipy's quad calls the integrand one scalar node at a time, on a batch
    # of one integral.
    return quad(lambda s: f(s, node_owner if np.ndim(s) else owner[0]), a, b)


def _integrate_pieces(f: Integrand, points: list[list[float]], spec: QuadratureSpec
                      ) -> list[tuple[float, float]]:
    """Integral over ``[points[i][0], points[i][-1]]`` and its error estimate
    for each integral ``i``; an integral with fewer than two points is 0.

    Every piece of every integral goes through one pass of ``f`` (see
    :func:`_pass`).  Each piece between consecutive points of integral ``i``
    gets tolerance ``abs_tol / npieces_i`` and ``rel_tol``, as ``dqagse``
    would with ``epsabs`` and ``epsrel``; each integral's piece values and
    errors are summed in piece order.
    """
    counts = [max(len(p) - 1, 0) for p in points]
    owner = np.repeat(np.arange(len(points)), counts)
    a = np.array([x for p in points for x in p[:-1]], dtype=float)
    b = np.array([x for p in points for x in p[1:]], dtype=float)
    epsabs = np.repeat([spec.abs_tol / max(c, 1) for c in counts], counts)
    result = abserr = np.zeros(0)
    if a.size:
        result, abserr, resabs, resasc = _pass(f, owner, a, b)
        # dqagse's first-pass exit: converged with an unsaturated error
        # estimate, an exact zero error, or round-off already dominating it.
        errbnd = np.maximum(epsabs, spec.rel_tol * np.abs(result))
        accept = (abserr == 0.0) | np.where(
            abserr <= errbnd, abserr != resasc, abserr <= 100.0 * _EPMACH * resabs)
        rejected = np.flatnonzero(~accept)
        if rejected.size:
            result[rejected], abserr[rejected] = _bisect(
                f, owner[rejected], a[rejected], b[rejected],
                result[rejected], abserr[rejected], epsabs[rejected], spec)
    # bincount adds each integral's pieces in index order, i.e. piece order
    # (its result is int when there are no pieces at all).
    sums = [np.bincount(owner, x, len(points)).astype(float).tolist() for x in (result, abserr)]
    return list(zip(*sums))


def _bisect(f: Integrand, owner: np.ndarray, a, b, result, abserr, epsabs,
            spec: QuadratureSpec):
    """Refine rejected pieces by bisecting each one's largest-error subinterval.

    Piece ``i`` belongs to integral ``owner[i]``.  One :func:`_pass` per round
    covers the halves of every piece still refining, whichever integral it
    belongs to.  A piece stops once its summed error is within
    ``max(epsabs[i], rel_tol * |value|)`` or it holds ``MAX_SUBDIVISIONS``
    subintervals; either way its current value and error are returned.
    """
    # parts[i]: piece i's subintervals in order, as (lo, hi, value, error).
    parts = [[p] for p in zip(a.tolist(), b.tolist(), result.tolist(), abserr.tolist())]
    epsabs = epsabs.tolist()
    active = list(range(len(parts)))
    while active:
        worst = [max(range(len(parts[i])), key=lambda j: parts[i][j][3]) for i in active]
        lo, hi = [], []
        for i, j in zip(active, worst):
            left, right = parts[i][j][:2]
            mid = 0.5 * (left + right)
            lo += [left, mid]
            hi += [mid, right]
        vals, errs, _, _ = _pass(f, np.repeat(owner[active], 2), lo, hi)
        halves = list(zip(lo, hi, vals.tolist(), errs.tolist()))
        for k, (i, j) in enumerate(zip(active, worst)):
            parts[i][j:j + 1] = halves[2 * k:2 * k + 2]
        still = []
        for i in active:
            value, err = _sum_parts(p[2:] for p in parts[i])
            if err > max(epsabs[i], spec.rel_tol * abs(value)) and len(parts[i]) < MAX_SUBDIVISIONS:
                still.append(i)
        active = still
    values, errs = zip(*(_sum_parts(p[2:] for p in piece) for piece in parts))
    return values, errs


def _sum_parts(parts) -> tuple[float, float]:
    """The sums, in order, of the values and of the errors of ``(value, error)`` pairs."""
    value = 0.0
    err = 0.0
    for v, e in parts:
        value += v
        err += e
    return value, err


def _single(f: Callable[[np.ndarray], np.ndarray]) -> Integrand:
    """``f`` as the integrand of a batch holding one integral."""
    return lambda s, owner: f(s)


def _integrals(f: Integrand, spans, spec: QuadratureSpec) -> list[ConvolutionValue]:
    """Integral ``i`` over ``[a, b]`` for each span ``(a, b, support,
    shifts_from)``, split at the knots (see :func:`_knot_points`), all in one
    pass of :func:`_integrate_pieces`; 0 when ``b <= a``.  ``support`` is
    reported as the result's effective support."""
    points = [_knot_points(a, b, shifts) if b > a else [] for a, b, _, shifts in spans]
    return [ConvolutionValue(total, err, span[2])
            for (total, err), span in zip(_integrate_pieces(f, points, spec), spans)]


def tau(v: float, num: Numerics = DEFAULT_NUMERICS) -> float:
    """Tail integral of the Dickman function, integral of rho over [v, inf).

    For v < 0 this equals tau(0) since rho vanishes below 0.  The quadrature
    stops at the first knot where the certified table values make the
    remaining tail smaller than a tenth of the absolute tolerance; that
    tail, integrated exactly from the table's polynomials, is added back
    when it exceeds the relative tolerance of the value: from v ~ 7 on, and
    from v = 13 on it is all of tau.
    """
    _check_finite(v)
    rho_t = num.rho
    lo = max(float(v), 0.0)
    support_hi = special.rho_support_hi(rho_t)
    hi = _tau_cutoff(lo, support_hi, rho_t, num.spec)
    [value] = _integrals(_single(lambda s: special.rho(s, table=rho_t)),
                         [(lo, hi, (lo, hi), None)], num.spec)
    total = value.value
    bound = num.spec.rel_tol * abs(total)
    # The tail past hi is below abs_tol/10, so only a small total can need it.
    if num.spec.abs_tol / 10.0 > bound:
        tail = rho_t.integral(hi, support_hi)
        if tail > bound:
            total += tail
    return total


def _tau_cutoff(lo: float, support_hi: float, rho_t: PiecewiseFunction,
                spec: QuadratureSpec) -> float:
    """First knot where rho's monotone decay bounds the remaining tail below
    abs_tol/10 (rho is decreasing beyond 1, so tail <= rho(k) * remaining length)."""
    k = max(math.ceil(lo), 1)
    while k < support_hi:
        remaining = support_hi - k
        if special.rho(float(k), table=rho_t) * remaining < spec.abs_tol / 10.0:
            return float(k)
        k += 1
    return support_hi


def _omega_products(terms: list[tuple[float, bool]], num: Numerics) -> Integrand:
    """The integrand of the batch whose integral ``i`` is omega(u - s) rho(s),
    or omega(u - s) rho'(s) when ``terms[i]`` is ``(u, True)``.

    omega is evaluated once on u - s over every node, and rho once: on s
    for the rho integrals and on s - 1 for the rho' ones, where
    rho'(s) = -rho(s - 1)/s (every rho' node has s > 1; see
    ``special._rho_prime_ext``).
    """
    rho_t, omega_t = num.rho, num.omega
    us = np.array([u for u, _ in terms], dtype=float)
    primes = np.array([prime for _, prime in terms], dtype=bool)

    def f(s, owner):
        w = special.omega(us[owner] - s, table=omega_t)
        prime = primes[owner]
        r = special.rho(np.where(prime, s - 1.0, s), table=rho_t)
        return w * np.where(prime, -r / s, r)

    return f


def omega_convolutions(terms: list[tuple[float, float, bool]],
                       num: Numerics = DEFAULT_NUMERICS) -> list[ConvolutionValue]:
    """:func:`conv_omega_rho` (``prime`` false) or :func:`conv_omega_rho_prime`
    (``prime`` true) at each ``(u, v, prime)`` of ``terms``, every piece of
    every integral in one quadrature pass.

    Each value is the one the single-integral function returns, to the bit.
    """
    support = special.rho_support_hi(num.rho)
    spans = []
    for u, v, prime in terms:
        _check_finite(u, v)
        hi = u - 1.0
        if prime:
            # rho' is 0 below s = 1 and dies once s - 1 passes the support.
            lo = min(max(v, 1.0), hi)
            cut = min(hi, support + 1.0)
        else:
            lo = min(max(v, 0.0), hi)
            cut = min(hi, support)
        spans.append((lo, cut, (lo, hi), u))
    return _integrals(_omega_products([(u, prime) for u, _, prime in terms], num), spans, num.spec)


def conv_omega_rho(u: float, v: float, num: Numerics = DEFAULT_NUMERICS) -> ConvolutionValue:
    """integral of omega(u-s) rho(s) ds over [v, u-1] (support-clipped)."""
    [value] = omega_convolutions([(u, v, False)], num)
    return value


def conv_omega_rho_prime(u: float, v: float, num: Numerics = DEFAULT_NUMERICS) -> ConvolutionValue:
    """integral of omega(u-s) rho'(s) ds over [v, u-1].

    rho' vanishes identically on (-inf, 1) and jumps to -1 at s = 1, so the
    lower limit is advanced to 1 analytically rather than sampling the jump.
    """
    [value] = omega_convolutions([(u, v, True)], num)
    return value


def rho_convolutions(terms: list[tuple[float, float]],
                     num: Numerics = DEFAULT_NUMERICS) -> list[ConvolutionValue]:
    """:func:`conv_rho_rho` at each ``(u, v)`` of ``terms``, every piece of
    every integral in one quadrature pass.

    Each value is the one the single-integral function returns, to the bit.
    """
    rho_t = num.rho
    support = special.rho_support_hi(rho_t)
    spans = []
    for u, v in terms:
        _check_finite(u, v)
        hi = u
        lo = min(max(v, 0.0), hi)
        # rho(s) is dead beyond the support, rho(u - s) below u - support.
        spans.append((max(lo, u - support), min(hi, support), (lo, hi), u))
    us = np.array([u for u, _ in terms], dtype=float)

    def f(s, owner):
        return special.rho(us[owner] - s, table=rho_t) * special.rho(s, table=rho_t)

    return _integrals(f, spans, num.spec)


def conv_rho_rho(u: float, v: float, num: Numerics = DEFAULT_NUMERICS) -> ConvolutionValue:
    """integral of rho(u-s) rho(s) ds over [v, u] (support-clipped).

    Both factors have unit-interval knots, so splits land at integer s and at
    s = u - j alike.
    """
    [value] = rho_convolutions([(u, v)], num)
    return value
