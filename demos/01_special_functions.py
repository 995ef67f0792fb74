#!/usr/bin/env python3
"""The Dickman function rho and the Buchstab function omega.

rho(u) is the limiting density of y-smooth integers at x = y^u: a random
integer below x has all prime factors <= x^(1/u) with probability ~ rho(u).
omega(u) governs the density of y-rough integers (no prime factor <= y) and
tends to e^-gamma.  Both satisfy delay differential equations and are
evaluated here from certified piecewise-polynomial tables.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from smoothdiv import (
    EXP_NEG_GAMMA,
    load_piecewise,
    omega,
    omega_prime,
    rho,
    rho_double_prime,
    rho_prime,
    save_piecewise,
)
from smoothdiv.special import default_buchstab, default_dickman

print("=== closed forms on the first intervals ===")
print(f"rho(0.5)  = {rho(0.5):.12f}      (constant 1 on [0, 1])")
print(f"rho(1.5)  = {rho(1.5):.12f}      (1 - log 1.5 = {1 - math.log(1.5):.12f})")
print(f"rho(2.5)  = {rho(2.5):.12f}")
print(f"omega(1.7) = {omega(1.7):.12f}     (1/1.7 = {1 / 1.7:.12f})")
print(f"omega(2.5) = {omega(2.5):.12f}     ((1 + log 1.5)/2.5 = {(1 + math.log(1.5)) / 2.5:.12f})")

print("\n=== the rapid decay of rho ===")
for u in (2, 3, 5, 10, 20, 50):
    print(f"rho({u:>2}) = {rho(float(u)):.6e}")
print("a random 100-digit integer is 10-digit smooth with probability ~ rho(10)")

print("\n=== omega hugs its limit e^-gamma ===")
for u in (2, 3, 5, 10, 20):
    print(f"omega({u:>2}) - e^-gamma = {omega(float(u)) - EXP_NEG_GAMMA:+.3e}")

print("\n=== derivatives come from the delay ODEs, not numerics ===")
print(f"rho'(2.5)  = -rho(1.5)/2.5      = {rho_prime(2.5):+.10f}")
print(f"rho''(2.5) = (rho(1.5) - 2.5 rho'(1.5))/2.5^2 = {rho_double_prime(2.5):+.10f}")
print(f"omega'(2.5) = (omega(1.5) - omega(2.5))/2.5   = {omega_prime(2.5):+.10f}")

print("\n=== the defining identities, checked from the tables ===")
dt, bt = default_dickman(), default_buchstab()
rng = np.random.default_rng(1)
worst = max(abs(u * rho(u) - dt.integral(u - 1.0, u)) / (u * rho(u))
            for u in rng.uniform(1.0, 30.0, 50))
print(f"max rel defect of u rho(u) = integral(rho, u-1, u) over 50 points: {worst:.2e}")
worst = max(abs(u * omega(u) - 1.0 - bt.integral(1.0, u - 1.0))
            for u in rng.uniform(2.0, 25.0, 50))
print(f"max abs defect of u omega(u) = 1 + integral(omega, 1, u-1):        {worst:.2e}")
print(f"stored table certificates: rho {dt.max_certificate:.2e}, "
      f"omega {bt.max_certificate:.2e}")

print("\n=== tables export to schema-tagged JSON and reload bit-identically ===")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "buchstab.json"
    save_piecewise(bt, path)
    again = load_piecewise(path)
    print(f"wrote {path.stat().st_size} bytes; "
          f"reloaded values identical: {again.value(7.3) == bt.value(7.3)}")
