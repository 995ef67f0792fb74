"""The Dickman function rho and the Buchstab function omega.

Both functions are defined by delay differential equations,

    u rho'(u) + rho(u - 1) = 0      (u > 1),   rho = 1 on [0, 1], 0 below 0,
    (u omega(u))' = omega(u - 1)    (u > 2),   u omega(u) = 1 on [1, 2], 0 below 1,

with derivatives taken right-continuously at the initial knots.  Each is
represented by one polynomial per unit interval, expanded around the interval
midpoint and produced by integrating the previous segment's series term by
term; continuity at the left knot fixes the constant term.

Construction runs in binary fixed point: every coefficient is a Python
integer in units of 2**-P, with 2**-P far below double resolution, and the
result is rounded to doubles.  That matters for rho, which decays below 1e-220
across the default table while construction errors persist instead of
decaying (a perturbation of the solution obeys the same delay ODE and shrinks
only logarithmically).  Two derived sizes keep the persistent error floor far
below the smallest table values: the segment degree grows with the range
(series truncation injects ~3**-degree; see :func:`dickman_degree_for`) and
the scale P grows with the range and the degree (see :func:`_scale_bits`).
Rounding the finished coefficients to doubles then costs only
evaluation-level roundoff.  A rho table whose values would leave the double
range is refused before any arithmetic.

Each table carries a certificate: the maximum observed relative defect of the
integrated delay-ODE identity per segment,

    u rho(u)   = integral of rho over [u-1, u],
    u omega(u) = 1 + integral of omega over [1, u-1],

with the integrals evaluated exactly from the stored polynomials.
Construction fails loudly if the certificate exceeds ``target_rel_err``.

The default rho table is the same every time, bit for bit, so it ships as
data: :func:`default_dickman` loads the coefficients that
``build_dickman_table()`` produces from ``default_dickman.npy`` next to this
module, instead of running the fixed-point construction, and certifies them
afresh.  A missing, malformed or uncertifiable file is refused like a failed
build.  The default omega table is cheap and is still built.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from collections.abc import Iterator
from functools import lru_cache
from pathlib import Path

import numpy as np

from .constants import EXP_NEG_GAMMA
from .errors import ConstructionError, DomainError
from .piecewise import KIND_BUCHSTAB, KIND_DICKMAN, PiecewiseFunction, TableStack, _horner

#: Default evaluation ceiling for rho; values below the floor report 0.
DEFAULT_RHO_U_MAX = 100
#: rho values smaller than this are reported as exact 0 (documented underflow).
DEFAULT_VALUE_FLOOR = 1e-180
#: Default Buchstab ceiling; beyond it omega is the constant e**-gamma.
DEFAULT_OMEGA_U_CUT = 30
#: Default requested relative accuracy of the tables.
DEFAULT_TARGET_REL_ERR = 1e-10
#: Polynomial degree for the Buchstab table (values stay O(1), so the
#: truncation floor ~3**-degree is already far below double resolution).
BUCHSTAB_DEGREE = 80

_CERT_SAMPLES = 17  # identity-defect sample points per segment
_GUARD_BITS = 64  # significant bits every fixed-point coefficient must keep
#: -log10 of the smallest normal double (2.2e-308), 307.65: a rho table
#: reaching further down leaves the normal doubles and cannot be certified.
_LOG10_INV_DOUBLE_MIN = -math.log10(np.finfo(float).tiny)

#: ``build_dickman_table().coeffs`` saved by ``np.save``: the default rho
#: table, loaded by :func:`default_dickman`.
_DEFAULT_DICKMAN_FILE = Path(__file__).with_name("default_dickman.npy")
#: The one-line command that writes :data:`_DEFAULT_DICKMAN_FILE` afresh.
_REGENERATE_DEFAULT_DICKMAN = (
    'python -c "import numpy as np; from smoothdiv import special; '
    'np.save(special._DEFAULT_DICKMAN_FILE, special.build_dickman_table().coeffs)"'
)


# -- fixed-point segment construction -----------------------------------------


def _log10_inv_rho(u: float) -> float:
    """Crude overestimate-ish of log10(1/rho(u)): u(log u + log log u - 1)/log 10."""
    u = max(float(u), 4.0)
    return u * (math.log(u) + math.log(max(math.log(u), 1.0)) - 1.0) / math.log(10.0)


def dickman_degree_for(u_max: float) -> int:
    """Segment degree needed so the series-truncation floor stays below rho.

    Truncating the midpoint series at degree N injects a persistent absolute
    error ~3**-(N+1) (the [1, 2] segment has convergence ratio 1/3 at the
    segment edge, and perturbations of the delay ODE decay only
    logarithmically).  The degree is chosen so that floor is ~16 orders below
    rho(u_max); the fixed-point scale resolves the same floor (see
    :func:`_scale_bits`).
    """
    digits = _log10_inv_rho(u_max) + 26.0
    return max(64, int(math.ceil(digits * math.log(10.0) / math.log(3.0))))


def _scale_bits(digits: float, degree: int) -> int:
    """Binary scale P of the construction: coefficients are integers in units
    of 2**-P.

    P resolves ``digits`` decimal digits below 1, plus two bits per degree
    for the series tails, whose last coefficients sit up to ~2**-(2 degree)
    below the segment's leading ones, plus ``_GUARD_BITS``.  The smallest tail
    coefficients may lie below the smallest double, and their signs survive
    rounding to +-0 only if P resolves them too.
    """
    return math.ceil(digits * math.log2(10.0)) + 2 * degree + _GUARD_BITS


def _buchstab_bits(u_cut: float) -> int:
    """Scale of the omega table.

    Past c[0] = ~e**-gamma its coefficients follow omega - e**-gamma, which
    decays somewhat faster than rho (2**-11656 against ~2**-11311 for the
    rho estimate at u = 1000), so the estimate gets a quarter more room.
    """
    return _scale_bits(1.25 * _log10_inv_rho(u_cut) + 26.0, BUCHSTAB_DEGREE)


def _at_half(coeffs, sign: int) -> int:
    """The fixed-point polynomial ``coeffs`` at t = sign/2 (Horner by shifts)."""
    acc = 0
    if sign > 0:
        for c in reversed(coeffs):
            acc = c + (acc >> 1)
    else:
        for c in reversed(coeffs):
            acc = c - (acc >> 1)
    return acc


def _dickman_segments(u_max: int, degree: int, bits: int) -> Iterator[list[int]]:
    """Midpoint-series coefficients of rho on [k, k+1] for k = 0..u_max-1, in
    units of 2**-bits, one segment at a time."""
    c = [1 << bits] + [0] * degree
    yield c
    for k in range(1, u_max):
        prev = c
        d = 2 * k + 1  # the midpoint of [k, k+1] is d/2
        # Series of rho(u-1)/u around the midpoint: rho(u-1) has the previous
        # segment's coefficients verbatim (same offset), and division by
        # u = d/2 + t is the stable first-order recurrence q[j] = (prev[j] -
        # q[j-1]) / (d/2); integrating term by term gives c[j] = -q[j-1] / j.
        c = [0] * (degree + 1)
        q = 0
        for j in range(1, degree + 1):
            q = 2 * (prev[j - 1] - q) // d
            c[j] = -q // j
        # Continuity at the left knot: value at t=-1/2 must equal the
        # previous segment's value at t=+1/2.
        c[0] = _at_half(prev, 1) - _at_half(c, -1)
        yield c


def _buchstab_segments(u_cut: int, degree: int, bits: int) -> Iterator[list[int]]:
    """Midpoint-series coefficients of omega on [k, k+1] for k = 1..u_cut-1,
    in units of 2**-bits, one segment at a time."""
    # Segment [1, 2]: omega(u) = 1/u = 1/(3/2 + t), a plain geometric series.
    c = [(2 << bits) // 3]
    for _ in range(degree):
        c.append(-2 * c[-1] // 3)
    yield c
    for i in range(1, u_cut - 1):
        prev = c
        d = 2 * i + 3  # the midpoint of [i+1, i+2] is d/2
        # Work with p(u) = u*omega(u), whose derivative is omega(u-1).
        p = [0] + [prev[j - 1] // j for j in range(1, degree + 1)]
        # p at the left knot is (i+1) times omega there.
        p[0] = (i + 1) * _at_half(prev, 1) - _at_half(p, -1)
        c = [2 * p[0] // d]
        for j in range(1, degree + 1):
            c.append(2 * (p[j] - c[-1]) // d)
        yield c


def _to_doubles(kind: str, segs: Iterator[list[int]], bits: int) -> np.ndarray:
    """The fixed-point coefficients rounded to doubles, one row per segment.

    Int true division rounds correctly, subnormals and the sign of zero
    included.  Raises :class:`ConstructionError` if a coefficient of a
    segment past the first keeps fewer than ``_GUARD_BITS`` significant bits,
    since its rounding (or the sign of its underflow) would then be noise.
    """
    scale = 1 << bits
    rows = [np.array([c / scale for c in next(segs)])]
    for seg in segs:
        kept = min(abs(c).bit_length() for c in seg)
        if kept < _GUARD_BITS:
            raise ConstructionError(
                f"{kind} table fixed-point scale 2**-{bits} keeps only {kept} significant "
                f"bits of a coefficient (need {_GUARD_BITS})"
            )
        rows.append(np.array([c / scale for c in seg]))
    return np.array(rows)


# -- certificates -------------------------------------------------------------


def _certificate_samples(table: PiecewiseFunction):
    """Sample points u, one row of ``_CERT_SAMPLES`` per segment, with
    u*table(u), the segment antiderivatives at the same midpoint offsets, and
    the antiderivatives at the segment edges (offsets -1/2 and +1/2)."""
    knots = table.knots[:-1, None]
    u = knots + np.linspace(0.0, 1.0, _CERT_SAMPLES)
    t = u - (knots + 0.5)
    anti_cols = table._anti.T[::-1]
    lhs = u * _horner(table._horner_cols, t)
    return u, lhs, _horner(anti_cols, t), _horner(anti_cols, np.array([-0.5, 0.5]))


def _certify_dickman(table: PiecewiseFunction) -> np.ndarray:
    """Per-segment max relative defect of u*rho(u) = integral(rho, u-1, u)."""
    u, lhs, anti, ends = _certificate_samples(table)
    # Exact segment integrals from the stored antiderivatives: [u-1, u] splits
    # into a piece of segment k-1 and a piece of segment k, with u-1 and u at
    # the same midpoint offset t in their respective segments.
    lower = ends[:-1, 1:] - anti[:-1]
    upper = anti[1:] - ends[1:, :1]
    rhs = u.copy()  # rho == 1 on [0, 1] and 0 below: integral over [u-1, u] is u
    rhs[1:] = lower + upper
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    rel = np.divide(np.abs(lhs - rhs), scale, out=np.zeros_like(scale), where=scale > 0.0)
    return rel.max(axis=1)


def _certify_buchstab(table: PiecewiseFunction) -> np.ndarray:
    """Defect of u*omega(u) = 1 + integral(omega, 1, u-1) (or of 1/u on [1,2])."""
    u, lhs, anti, ends = _certificate_samples(table)
    # cum[k]: exact integral of omega over [1, knots[k]]
    cum = np.concatenate(([0.0], np.cumsum(ends[:, 1] - ends[:, 0])))
    rhs = np.ones_like(u)
    # integral over [1, u-1] for segment k >= 1: full segments up to knot k-1,
    # plus a partial piece of segment k-1 (u-1 sits there at the same offset t).
    rhs[1:] = (1.0 + cum[:-2, None]) + (anti[:-1] - ends[:-1, :1])
    return (np.abs(lhs - rhs) / np.abs(rhs)).max(axis=1)


# -- table builders -----------------------------------------------------------


def _certified(kind: str, knots: np.ndarray, coeffs: np.ndarray, target_rel_err: float,
               certify) -> PiecewiseFunction:
    """The table of ``coeffs`` on ``knots`` carrying the per-segment defect that
    ``certify`` measures on it.

    Raises :class:`ConstructionError` if the defect exceeds ``target_rel_err``
    on any segment.
    """
    table = PiecewiseFunction(
        kind=kind,
        knots=knots,
        coeffs=coeffs,
        target_rel_err=float(target_rel_err),
        certificate=np.zeros(knots.size - 1),
    )
    cert = certify(table)
    if not cert.max() <= target_rel_err:  # a NaN defect is refused too
        raise ConstructionError(
            f"{kind} table certificate {cert.max():.3e} exceeds target "
            f"{target_rel_err:.3e}"
        )
    # The table has not been handed out yet, so replacing the placeholder
    # certificate is still part of its construction.
    object.__setattr__(table, "certificate", cert)
    return table


def build_dickman_table(
    u_max: int = DEFAULT_RHO_U_MAX,
    target_rel_err: float = DEFAULT_TARGET_REL_ERR,
) -> PiecewiseFunction:
    """Build a certified piecewise table of rho on [0, u_max].

    The degree grows with ``u_max`` (see :func:`dickman_degree_for`) so the
    series-truncation floor stays far below the smallest table values.
    Raises :class:`ConstructionError`, before any arithmetic, if rho(u_max)
    lies below the smallest normal double (u_max >= 130, whatever
    ``target_rel_err`` says), and after the build if the table's delay-ODE
    defect certificate exceeds ``target_rel_err`` on any segment.
    """
    if u_max < 2:
        raise DomainError("need u_max >= 2")
    depth = _log10_inv_rho(u_max)
    if depth > _LOG10_INV_DOUBLE_MIN:
        raise ConstructionError(
            f"dickman table u_max={u_max} cannot be certified: rho(u_max) ~ 1e-{depth:.0f} "
            f"lies below the smallest normal double"
        )
    degree = dickman_degree_for(u_max)
    bits = _scale_bits(_log10_inv_rho(u_max) + 26.0, degree)
    coeffs = _to_doubles(KIND_DICKMAN, _dickman_segments(int(u_max), degree, bits), bits)
    return _certified(KIND_DICKMAN, np.arange(0, int(u_max) + 1, dtype=float), coeffs,
                      target_rel_err, _certify_dickman)


def build_buchstab_table(
    u_cut: int = DEFAULT_OMEGA_U_CUT,
    target_rel_err: float = DEFAULT_TARGET_REL_ERR,
) -> PiecewiseFunction:
    """Build a certified piecewise table of omega on [1, u_cut], of degree
    ``BUCHSTAB_DEGREE``."""
    if u_cut < 3:
        raise DomainError("need u_cut >= 3")
    bits = _buchstab_bits(u_cut)
    coeffs = _to_doubles(KIND_BUCHSTAB, _buchstab_segments(int(u_cut), BUCHSTAB_DEGREE, bits),
                         bits)
    return _certified(KIND_BUCHSTAB, np.arange(1, int(u_cut) + 1, dtype=float), coeffs,
                      target_rel_err, _certify_buchstab)


@lru_cache(maxsize=1)
def default_dickman() -> PiecewiseFunction:
    """The table ``build_dickman_table()`` builds, loaded from the shipped
    coefficients and certified afresh; the construction does not run.

    Raises :class:`ConstructionError`, naming the command that regenerates
    the file, if it is missing, malformed or fails the certificate.
    """
    path = _DEFAULT_DICKMAN_FILE

    def refused(reason: str) -> ConstructionError:
        return ConstructionError(f"default rho table {path} refused: {reason}; "
                                 f"regenerate it with: {_REGENERATE_DEFAULT_DICKMAN}")

    try:
        coeffs = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise refused(" ".join(str(exc).split())) from None
    shape = (DEFAULT_RHO_U_MAX, dickman_degree_for(DEFAULT_RHO_U_MAX) + 1)
    if not (isinstance(coeffs, np.ndarray) and coeffs.dtype == np.float64
            and coeffs.shape == shape):
        raise refused(f"expected float64 coefficients of shape {shape}")
    if not np.all(np.isfinite(coeffs)):
        raise refused("a coefficient is not finite")
    try:
        return _certified(KIND_DICKMAN, np.arange(0, DEFAULT_RHO_U_MAX + 1, dtype=float),
                          coeffs, DEFAULT_TARGET_REL_ERR, _certify_dickman)
    except ConstructionError as exc:
        raise refused(str(exc)) from None


@lru_cache(maxsize=1)
def default_buchstab() -> PiecewiseFunction:
    return build_buchstab_table()


@lru_cache(maxsize=8)
def rho_support_hi(table: PiecewiseFunction) -> float:
    """Largest knot at which the table still exceeds the underflow floor.

    Beyond this point rho is reported as exact 0, so integrands may be
    clipped there; the discarded mass is below ``DEFAULT_VALUE_FLOOR`` per
    unit.
    """
    for k in range(table.n_segments, 0, -1):
        if table.value(float(table.knots[k - 1])) >= DEFAULT_VALUE_FLOOR:
            return float(table.knots[k])
    return float(table.knots[0])


# -- evaluation with extension conventions ------------------------------------


def _as_float_array(u):
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    return arr


def rho(u, table: PiecewiseFunction | None = None):
    """Dickman function rho(u); accepts scalars or arrays.

    Returns 0 exactly for u < 0 and for arguments whose true value lies below
    ``DEFAULT_VALUE_FLOOR`` (documented underflow).  Arguments above the table
    ceiling raise unless the table has already underflowed there, in which
    case the monotone decay of rho justifies returning 0.
    """
    table = table if table is not None else default_dickman()
    if np.ndim(u) == 0:
        x = float(u)
        if not math.isfinite(x):
            raise DomainError("argument must be finite")
        if x < 0.0:
            return 0.0
        if x <= table.hi:
            val = table._value_scalar(x)
            return 0.0 if val < DEFAULT_VALUE_FLOOR else val
        _require_rho_underflow(x, table)
        return 0.0
    arr = _as_float_array(u)
    out = np.zeros_like(arr)
    inside = (arr >= 0.0) & (arr <= table.hi)
    if np.any(inside):
        out[inside] = _floored(table.value(arr[inside]))
    above = arr > table.hi
    if np.any(above):
        _require_rho_underflow(float(arr[above][0]), table)
        out[above] = 0.0
    return out


def _floored(vals: np.ndarray) -> np.ndarray:
    """rho table values with those below ``DEFAULT_VALUE_FLOOR`` set to 0."""
    return np.where(vals < DEFAULT_VALUE_FLOOR, 0.0, vals)


def _underflowed(table: PiecewiseFunction) -> bool:
    """Whether rho has underflowed at the table ceiling, so that 0 is its value above it."""
    return table._value_scalar(table.hi) < DEFAULT_VALUE_FLOOR


def _require_rho_underflow(x: float, table: PiecewiseFunction):
    if not _underflowed(table):
        raise DomainError(
            f"u={x} exceeds the rho table ceiling u_max={table.hi} and the "
            f"value there has not underflowed; build a larger table"
        )


def _checked(u, lo: float, strict: bool, name: str):
    """``u`` as a float (scalar input) or a float array, once every value is
    finite and above ``lo`` (or equal to it, when not ``strict``)."""
    x = float(u) if np.ndim(u) == 0 else np.asarray(u, dtype=float)
    if not np.all(np.isfinite(x) & ((x > lo) if strict else (x >= lo))):
        raise DomainError(f"{name} requires finite u {'>' if strict else '>='} {lo:g}")
    return x


def rho_prime(u, table: PiecewiseFunction | None = None):
    """rho'(u) = -rho(u-1)/u for u > 0, right-continuous at the knots.

    rho' is defined by right-continuity only down to 0; arguments <= 0 raise.
    """
    return _rho_prime_ext(_checked(u, 0.0, True, "rho_prime"), table=table)


def _rho_prime_ext(u, table: PiecewiseFunction | None = None):
    """rho' extended by 0 below u = 1 (total function used by integrands)."""
    if np.ndim(u) == 0:
        x = float(u)
        return -rho(x - 1.0, table=table) / x if x >= 1.0 else 0.0
    arr = np.asarray(u, dtype=float)
    out = np.zeros_like(arr)
    mask = arr >= 1.0
    if np.any(mask):
        out[mask] = -rho(arr[mask] - 1.0, table=table) / arr[mask]
    return out


def rho_double_prime(u, table: PiecewiseFunction | None = None):
    """rho''(u) = (rho(u-1) - u*rho'(u-1)) / u**2 for u > 1, right-continuous."""
    x = _checked(u, 1.0, True, "rho_double_prime")
    return (rho(x - 1.0, table=table) - x * _rho_prime_ext(x - 1.0, table=table)) / (x * x)


def _rho_double_prime_ext(u, table: PiecewiseFunction | None = None):
    """rho'' extended below 1 by its classical values (0 on (0,1), 1 at u=1).

    Only error envelopes evaluated outside their theorem domain need this;
    the public ``rho_double_prime`` keeps the strict u > 1 contract.
    """
    x = float(u)
    if x > 1.0:
        return float(rho_double_prime(x, table=table))
    if x == 1.0:
        return 1.0  # right-continuous limit of 1/u**2
    if x > 0.0:
        return 0.0
    raise DomainError("rho'' extension requires u > 0")


def omega(u, table: PiecewiseFunction | None = None):
    """Buchstab function omega(u); accepts scalars or arrays.

    Returns 0 for u < 1 and the limiting constant e**-gamma beyond the table
    ceiling, where the difference is far below double resolution.
    """
    table = table if table is not None else default_buchstab()
    if np.ndim(u) == 0:
        x = float(u)
        if not math.isfinite(x):
            raise DomainError("argument must be finite")
        if x < 1.0:
            return 0.0
        if x <= table.hi:
            return table._value_scalar(x)
        return EXP_NEG_GAMMA
    arr = _as_float_array(u)
    out = np.zeros_like(arr)
    inside = (arr >= 1.0) & (arr <= table.hi)
    if np.any(inside):
        out[inside] = table.value(arr[inside])
    out[arr > table.hi] = EXP_NEG_GAMMA
    return out


def omega_prime(u, table: PiecewiseFunction | None = None):
    """omega'(u) = (omega(u-1) - omega(u)) / u for u >= 1, right-continuous.

    At u = 1 this gives (0 - 1)/1 = -1; below 1 the derivative is undefined.
    """
    x = _checked(u, 1.0, False, "omega_prime")
    return (omega(x - 1.0, table=table) - omega(x, table=table)) / x


# -- one table sweep over the pieces of a quadrature pass ---------------------


@lru_cache(maxsize=8)
def _stack(key: tuple) -> TableStack:
    """The stack of the distinct ``(name, table)`` pairs of ``key``, with
    their functions' constants: 0 below the rho table (from 0) and the omega
    table (from 1), 0 above the rho table once rho has underflowed there,
    and e**-gamma above the omega table."""
    below, above = [], []
    for name, table in key:
        if name == "rho":
            below.append(0.0 if table.lo == 0.0 else None)
            above.append(0.0 if _underflowed(table) else None)
        else:
            below.append(0.0 if table.lo == 1.0 else None)
            above.append(EXP_NEG_GAMMA)
    return TableStack([table for _, table in key], below, above)


def sweep(blocks) -> list[np.ndarray]:
    """``rho(x, table)`` or ``omega(x, table)`` for each ``(name, table, x)``
    of ``blocks``, ``name`` being "rho" or "omega", in one table sweep.

    ``x`` holds one quadrature piece's nodes per row, and the piece is
    evaluated with one coefficient row (see :meth:`TableStack.sweep`).
    Every value has the bits of :func:`rho` or :func:`omega` at its node: a
    node outside its piece's segment is handed to that function itself.
    """
    key = tuple(dict.fromkeys((name, table) for name, table, _ in blocks))
    values, off = _stack(key).sweep([key.index((name, table)) for name, table, _ in blocks],
                                   [x for _, _, x in blocks])
    any_off = off.any()
    out = []
    start = 0
    for name, table, x in blocks:
        stop = start + len(x)
        v, o = values[start:stop], off[start:stop]
        if name == "rho":
            v = _floored(v)
        if any_off and o.any():
            v[o] = (rho if name == "rho" else omega)(x[o], table=table)
        out.append(v)
        start = stop
    return out


# -- high-precision spot values (validation helpers) --------------------------


def omega_deviations_decimal() -> list[float]:
    """|omega(k) - e**-gamma| for k = 3..15, computed far above double precision.

    The deviations decay below double resolution around k = 13, so the
    monotonicity of their magnitudes is checked here on the fixed-point
    construction rather than on the rounded table, against e**-gamma to 60
    digits scaled exactly to the same fixed point.
    """
    bits = _buchstab_bits(DEFAULT_OMEGA_U_CUT)
    segs = list(_buchstab_segments(DEFAULT_OMEGA_U_CUT, BUCHSTAB_DEGREE, bits))
    with localcontext() as ctx:
        ctx.prec = 60
        # gamma to 50 digits; e**-gamma at 60-digit working precision.
        gamma = Decimal("0.57721566490153286060651209008240243104215933593992")
        num, den = (-gamma).exp().as_integer_ratio()
    exp_neg_gamma = (num << bits) // den
    scale = 1 << bits
    # segs[k - 2] is the segment [k-1, k]; its right edge is u = k.
    return [abs(_at_half(segs[k - 2], 1) - exp_neg_gamma) / scale for k in range(3, 16)]
