"""Independent oracles used to freeze expected values in the tests.

Nothing here touches the package's piecewise tables or its Gauss-Kronrod
quadrature: the integrators are plain composite Simpson with step halving,
and the Dickman values come either from closed forms on [0, 3] or from a
trapezoid march of the defining integral recurrence with Richardson
extrapolation.
"""

import math


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
