"""Asymptotic estimates with explicit error envelopes and domain flags.

Every estimator returns an :class:`EstimateResult` whose ``error_envelope`` is
the argument of the corresponding O(.) term evaluated verbatim with implied
constant 1.  The envelopes are yardsticks, not rigorous bounds: the harness
fits and records the empirical constants instead of assuming any.

Out-of-domain policy: the sufficient domains of the underlying theorems are
checked and reported via ``in_theorem_domain`` and ``domain_notes``, but the
estimate is always computed.  Exploratory use outside the proven range is
legitimate; only genuine precondition violations (x < 3, z < 1, ...) raise.

Every estimator takes the rho and omega tables, the quadrature spec and the
domain-check epsilon through one :class:`~smoothdiv.convolution.Numerics`
argument ``num``; the default runs on the package's tables and tolerances.

The headline estimator is ``theta_estimate`` for

    theta(x, y, z) = #{ n <= x : the largest y-smooth divisor of n exceeds z }
                   = (rho(u) + C_or(u, v)) x - gamma C_or'(u, v) x / log y
                     + O(E(x, y, z)),

with u = log x / log y, v = log z / log y, C_or / C_or' the partial
convolutions of omega with rho / rho', and

    E(x, y, z) = x/log y * { rho(u-1) + rho(v) log(v+1)/log y
                             + rho(v)/log(v+1) }.

The same formula at (x, y, z) = (2**k, 2**l, 2**m), divided by x, gives the
probability ``wp(k, l, m)`` that a random k-bit integer has a 2**l-smooth
divisor exceeding 2**m, and ``eta`` combines two of those into the DSA
large-subgroup exposure probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import convolution, oracle, special
from .constants import EULER_GAMMA, EXP_GAMMA
from .convolution import DEFAULT_NUMERICS, Numerics
from .errors import DomainError
from .params import DsaParams, ScaledParams

#: Guard for the log(v+1) denominator in the envelope; the theorem domain
#: forces v > 1, so tiny v only occurs in out-of-domain evaluation and must
#: not divide by zero.
_V_GUARD = 0.01


@dataclass(frozen=True)
class EstimateResult:
    """Main and second asymptotic terms plus the evaluated error envelope.

    ``value`` is exactly ``main_term + second_term``; ``error_envelope`` is
    the O(.) argument with implied constant 1.
    """

    main_term: float
    second_term: float
    error_envelope: float
    in_theorem_domain: bool
    domain_notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.error_envelope < 0.0:
            raise DomainError("error envelope must be nonnegative")

    @property
    def value(self) -> float:
        return self.main_term + self.second_term


# -- domain checks -------------------------------------------------------------


def _log_y_lower_bound(x: float, epsilon: float) -> float:
    """log of the lower bound exp((log log x)^(5/3+eps)) on y."""
    if x <= math.e:
        return -math.inf
    try:
        return math.log(math.log(x)) ** (5.0 / 3.0 + epsilon)
    except OverflowError:
        return math.inf


def _hildebrand_domain(x: float, y: float, epsilon: float) -> tuple[bool, list[str]]:
    notes = [f"epsilon={epsilon:g}"]
    log_y_min = _log_y_lower_bound(x, epsilon)
    # For a large epsilon the bound overflows a double and no y meets it.
    try:
        y_min = math.exp(log_y_min)
    except OverflowError:
        y_min = math.inf
    ok_y = y >= y_min
    notes.append(
        f"y >= exp((log log x)^(5/3+eps)) i.e. y >= {_exp_text(log_y_min)}: "
        + ("ok" if ok_y else f"FAIL (y={y:.6g})")
    )
    ok_xy = x >= y
    notes.append("x >= y: " + ("ok" if ok_xy else "FAIL"))
    return ok_y and ok_xy, notes


def _guarded_log_v_plus_1(v: float) -> float:
    if v < _V_GUARD:
        return math.log1p(_V_GUARD)
    return math.log1p(v)


# -- theta ---------------------------------------------------------------------


def theta_envelope_factor(
    u: float, v: float, y: float, num: Numerics = DEFAULT_NUMERICS
) -> float:
    """E(x, y, z)/x as a function of (u, v, y); the envelope is x times this."""
    log_y = math.log(y)
    r_v = special.rho(max(v, -1.0), table=num.rho) if v != float("-inf") else 0.0
    term1 = special.rho(u - 1.0, table=num.rho)
    term2 = r_v * math.log1p(max(v, 0.0)) / log_y if v >= 0 else 0.0
    term3 = r_v / _guarded_log_v_plus_1(v) if v >= 0 else 0.0
    return (term1 + term2 + term3) / log_y


def theta_error_bound(p: ScaledParams, num: Numerics = DEFAULT_NUMERICS) -> float:
    """The theta error envelope E(x, y, z), implied constant 1.

    E = x/log y * (rho(u-1) + rho(v) log(v+1)/log y + rho(v)/log(v+1)),
    with the log(v+1) denominator guarded below v = 0.01.
    """
    _require_theta_pre(p)
    return p.x * theta_envelope_factor(p.u, p.v, p.y, num)


def _require_theta_pre(p: ScaledParams):
    if p.x < 3 or p.y < 2 or p.z < 1:
        raise DomainError("theta estimate requires x >= 3, y >= 2, z >= 1")


def _convolution_terms(points: list[tuple[float, float]], num: Numerics
                       ) -> list[tuple[float, float]]:
    """C_or(u, v) and the second-order term -gamma C_or'(u, v) that theta,
    lemma 6 and wp share, at each ``(u, v)`` of ``points``, every integral in
    one quadrature pass.

    This is the one place the term's sign is written.  It is an open
    question: the exact weighted sums favour +gamma C_or', while only this
    sign reproduces the paper's eta(863, 80, 160) = 0.09576 (README, note on
    the sign of the second-order term).
    """
    values = convolution.omega_convolutions(
        [(u, v, prime) for u, v in points for prime in (False, True)], num)
    return [(c_or.value, -EULER_GAMMA * c_or_prime.value)
            for c_or, c_or_prime in zip(values[::2], values[1::2])]


def theta_estimate(p: ScaledParams, num: Numerics = DEFAULT_NUMERICS) -> EstimateResult:
    """Two-term estimate of theta(x, y, z) with its error envelope.

    main   = (rho(u) + C_or(u, v)) * x
    second = -gamma * C_or'(u, v) * x / log y
    domain: y log y <= z <= x/y and y >= exp((log log x)^(5/3+eps)).
    """
    _require_theta_pre(p)
    u, v = p.u, p.v
    log_y = math.log(p.y)
    [(c_or, second_term)] = _convolution_terms([(u, v)], num)
    main = (special.rho(u, table=num.rho) + c_or) * p.x
    second = second_term * p.x / log_y
    envelope = p.x * theta_envelope_factor(u, v, p.y, num)
    ok_h, notes = _hildebrand_domain(p.x, p.y, num.epsilon)
    ok_z_lo = p.y * log_y <= p.z
    ok_z_hi = p.z <= p.x / p.y
    notes.append("y log y <= z: " + ("ok" if ok_z_lo else "FAIL"))
    notes.append("z <= x/y: " + ("ok" if ok_z_hi else "FAIL"))
    return EstimateResult(main, second, envelope, ok_h and ok_z_lo and ok_z_hi, tuple(notes))


# -- psi (smooth counting) ------------------------------------------------------


def psi_estimate_hildebrand(x: float, y: float, num: Numerics = DEFAULT_NUMERICS) -> EstimateResult:
    """First-order smooth-count estimate psi(x, y) ~ rho(u) x.

    Envelope: rho(u) x log(u+1)/log y.
    """
    if x < 3 or y < 2:
        raise DomainError("psi estimate requires x >= 3 and y >= 2")
    u = math.log(x) / math.log(y)
    main = special.rho(u, table=num.rho) * x
    envelope = main * math.log1p(u) / math.log(y)
    ok, notes = _hildebrand_domain(x, y, num.epsilon)
    return EstimateResult(main, 0.0, abs(envelope), ok, tuple(notes))


def psi_estimate_saias(x: float, y: float, num: Numerics = DEFAULT_NUMERICS) -> EstimateResult:
    """Second-order smooth-count estimate.

    psi(x, y) = rho(u) x + (gamma - 1) rho'(u) x/log y + O(rho''(u) x/log^2 y),
    valid for x >= y log y on top of the first-order domain.
    """
    if x < 3 or y < 2:
        raise DomainError("psi estimate requires x >= 3 and y >= 2")
    u = math.log(x) / math.log(y)
    log_y = math.log(y)
    main = special.rho(u, table=num.rho) * x
    second = (EULER_GAMMA - 1.0) * special._rho_prime_ext(u, table=num.rho) * x / log_y
    envelope = abs(special._rho_double_prime_ext(u, table=num.rho)) * x / log_y**2
    ok_h, notes = _hildebrand_domain(x, y, num.epsilon)
    ok_xy = x >= y * log_y
    notes.append("x >= y log y: " + ("ok" if ok_xy else "FAIL"))
    return EstimateResult(main, second, envelope, ok_h and ok_xy, tuple(notes))


# -- S(y, z) --------------------------------------------------------------------


def s_error_bound(y: float, z: float, num: Numerics = DEFAULT_NUMERICS) -> float:
    """Envelope E(y, z) for the reciprocal smooth sum, split at z = y log y.

    E = rho(v) log(v+1)/log y   if z >= y log y   (boundary uses this branch),
    E = 1/z + log log y/log y   if z <  y log y.
    """
    if y < 3 or z < 1:
        raise DomainError("S(y, z) requires y >= 3 and z >= 1")
    log_y = math.log(y)
    if z >= y * log_y:
        v = math.log(z) / log_y
        return special.rho(v, table=num.rho) * math.log1p(v) / log_y
    return 1.0 / z + math.log(log_y) / log_y


def _exp_text(x: float) -> str:
    """exp(x) rendered as ``%.6g``, or as ``exp(x)`` where the double overflows."""
    try:
        return f"{math.exp(x):.6g}"
    except OverflowError:
        return f"exp({x:.6g})"


def s_estimate(y: float, z: float, num: Numerics = DEFAULT_NUMERICS) -> EstimateResult:
    """Estimate of S(y, z), the sum of 1/d over y-smooth d > z.

    S(y, z) = tau(v) log y - gamma rho(v) + O(E(y, z)),
    in the domain z <= exp(exp((log y)^(3/5 - eps))).
    """
    if y < 3 or z < 1:
        raise DomainError("S(y, z) requires y >= 3 and z >= 1")
    log_y = math.log(y)
    v = math.log(z) / log_y
    main = convolution.tau(v, num) * log_y
    second = -EULER_GAMMA * special.rho(v, table=num.rho)
    envelope = s_error_bound(y, z, num)
    # The cap itself overflows a double once y is large, so compare log z
    # with log(cap); that overflows too only for an epsilon far below 0.
    try:
        log_z_cap = math.exp(log_y ** (3.0 / 5.0 - num.epsilon))
    except OverflowError:
        log_z_cap = math.inf
    ok = math.log(z) <= log_z_cap
    notes = (
        f"epsilon={num.epsilon:g}",
        f"z <= exp(exp((log y)^(3/5-eps))) i.e. z <= {_exp_text(log_z_cap)}: "
        + ("ok" if ok else "FAIL"),
        "envelope branch: " + ("z >= y log y" if z >= y * log_y else "z < y log y"),
    )
    return EstimateResult(main, second, envelope, ok, notes)


# -- phi (rough counting) --------------------------------------------------------


def phi_estimate(x: float, y: float, num: Numerics = DEFAULT_NUMERICS) -> EstimateResult:
    """Rough-count estimate phi(x, y) = (x omega(u) - y) e^gamma / zeta(1, y).

    zeta(1, y) is the exact finite Euler product over primes <= y, not its
    Mertens asymptotic (which is kept as a validation identity only).
    Envelope: x rho(u)/log^2 y.
    """
    if x < 3 or y < 2:
        raise DomainError("phi estimate requires x >= 3 and y >= 2")
    if y > x:
        raise DomainError("phi estimate requires y <= x")
    u = math.log(x) / math.log(y)
    main = (x * special.omega(u, table=num.omega) - y) * EXP_GAMMA / oracle.zeta_one_y(y)
    envelope = x * special.rho(u, table=num.rho) / math.log(y) ** 2
    ok, notes = _hildebrand_domain(x, y, num.epsilon)
    return EstimateResult(main, 0.0, envelope, ok, tuple(notes))


# -- weighted smooth-divisor sums -------------------------------------------------


def lemma6_estimate(p: ScaledParams, num: Numerics = DEFAULT_NUMERICS) -> EstimateResult:
    """Estimate of the omega-weighted reciprocal sum over smooth d in (z, x/y]:

        sum omega(u - u_d)/d = C_or(u, v) log y - gamma C_or'(u, v) + O(E(y, z)).
    """
    if p.y < 3:
        raise DomainError("lemma 6 requires y >= 3")
    if not (1 <= p.z <= p.x / p.y):
        raise DomainError("requires 1 <= z <= x/y")
    u, v = p.u, p.v
    log_y = math.log(p.y)
    [(c_or, second)] = _convolution_terms([(u, v)], num)
    main = c_or * log_y
    envelope = s_error_bound(p.y, p.z, num)
    return EstimateResult(main, second, envelope, True, ())


def lemma4_bound(p: ScaledParams, num: Numerics = DEFAULT_NUMERICS) -> float:
    """Upper-bound comparator for the rho-weighted reciprocal sum:

        C_rr(u, v) log(u+1) + rho(u-v) rho(v) + rho(u-1),

    implied constant 1.  One-sided: the exact sum is compared against a fitted
    multiple of this, never asserted asymptotically.
    """
    if not (1 <= p.z <= p.x / p.y):
        raise DomainError("requires 1 <= z <= x/y")
    u, v = p.u, p.v
    c_rr = convolution.conv_rho_rho(u, v, num)

    def r(t):
        return special.rho(t, table=num.rho)

    return c_rr.value * math.log1p(u) + r(u - v) * r(v) + r(u - 1.0)


# -- DSA risk ---------------------------------------------------------------------


def _wp_scaled(ks: list[int], l: int, m: int, num: Numerics) -> list[float]:
    """wp(k, l, m) at each k of ``ks``, every convolution in one quadrature pass."""
    terms = _convolution_terms([(k / l, m / l) for k in ks], num)
    return [special.rho(k / l, table=num.rho) + c_or + second / (l * math.log(2.0))
            for k, (c_or, second) in zip(ks, terms)]


def wp(d: DsaParams, num: Numerics = DEFAULT_NUMERICS) -> float:
    """Probability that a random k-bit integer has a 2**l-smooth divisor > 2**m:

        wp = rho(k/l) + C_or(k/l, m/l) - gamma C_or'(k/l, m/l) / (l log 2).
    """
    if d.l == 0:
        raise DomainError("smoothness exponent l must be positive")
    [w] = _wp_scaled([d.k], d.l, d.m, num)
    return w


def wp_and_eta(d: DsaParams, num: Numerics = DEFAULT_NUMERICS) -> tuple[float, float]:
    """(wp(k), eta) from one quadrature pass over wp(k) and wp(k-1); each
    value has the bits of :func:`wp` and :func:`eta`."""
    if d.k <= 1:
        raise DomainError("eta requires k >= 2")
    w_k, w_km1 = _wp_scaled([d.k, d.k - 1], d.l, d.m, num)
    return w_k, 2.0 * w_k - w_km1


def eta(d: DsaParams, num: Numerics = DEFAULT_NUMERICS) -> float:
    """DSA large-subgroup exposure probability, eta = 2 wp(k) - wp(k-1).

    The difference accounts for sampling n uniformly from [2**(k-1), 2**k)
    rather than [1, 2**k).  Both wp share one quadrature pass.
    """
    return wp_and_eta(d, num)[1]
