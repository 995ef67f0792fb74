#!/usr/bin/env python3
"""The tail integral tau and the omega/rho partial convolutions.

These integrals are the continuous machinery behind the smooth-divisor
count: tau(v) integrates rho over [v, inf), and the partial convolutions

    C_or(u, v)  = integral of omega(u-s) rho(s)  over [v, u-1],
    C_or'(u, v) = integral of omega(u-s) rho'(s) over [v, u-1],

supply the main and second terms of the estimate.  Integration is pre-split
at every point where either factor changes its piecewise definition, then
all analytic pieces go through one vectorized 21-point Gauss-Kronrod pass.
"""

import math

from smoothdiv import (
    EXP_GAMMA,
    conv_omega_rho,
    conv_omega_rho_prime,
    conv_rho_rho,
    rho,
    tau,
)

print("=== tau: the tail of rho ===")
print(f"tau(0) = {tau(0.0):.12f}   (classical identity: e^gamma = {EXP_GAMMA:.12f})")
print(f"tau(1) = {tau(1.0):.12f}   (= e^gamma - 1)")
for v in (2.0, 3.0, 5.0, 8.0):
    print(f"tau({v:.0f}) = {tau(v):.6e}")

print("\n=== convolutions clip to their true support ===")
c = conv_omega_rho(2.5, 1.6)
print(f"C_or(2.5, 1.6) = {c.value}   (v >= u-1: empty support {c.effective_support})")
c = conv_omega_rho(10.7875, 2.0)
print(f"C_or(10.7875, 2) = {c.value:.10f} +/- {c.est_abs_err:.1e} "
      f"on support {c.effective_support}")
print(f"    bounded by tau(2) = {tau(2.0):.10f} since 0 <= omega <= 1")

print("\n=== closed-form cross-checks ===")
c = conv_omega_rho(3.0, 1.5)
print(f"C_or(3, 1.5)  = {c.value:.12f}  (integrand (1 - log s)/(3 - s) on [1.5, 2])")
c = conv_omega_rho_prime(3.0, 1.5)
print(f"C_or'(3, 1.5) = {c.value:.12f}  (integrand -1/(s (3 - s)))")
c = conv_rho_rho(2.0, 0.0)
print(f"C_rr(2, 0)    = {c.value:.12f}  (analytic: 4 - 4 log 2 = {4 - 4 * math.log(2):.12f})")

print("\n=== monotone decay in the lower limit ===")
u = 6.0
for v in (0.0, 1.0, 2.0, 3.0, 4.0):
    print(f"C_or({u}, {v}) = {conv_omega_rho(u, v).value:.8f}   "
          f"C_or'({u}, {v}) = {conv_omega_rho_prime(u, v).value:+.8f}")
print("|C_or'| <= rho(v) for v >= 1 because the omega factor stays in [0, 1]:")
for v in (1.0, 2.0, 3.0):
    print(f"  |C_or'({u}, {v})| = {abs(conv_omega_rho_prime(u, v).value):.8f} "
          f"<= rho({v:.0f}) = {rho(v):.8f}")
