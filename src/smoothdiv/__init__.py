"""Integers with a large smooth divisor: special functions, estimates, oracles.

The central quantity is theta(x, y, z), the number of integers n <= x whose
largest y-smooth divisor exceeds z.  The package provides

* ``special``      -- the Dickman function rho and the Buchstab function omega
                      (and their derivatives), evaluated from certified
                      piecewise-polynomial tables built from their
                      difference-differential equations;
* ``convolution``  -- the tail integral tau(v) and the partial convolutions of
                      omega with rho and rho', computed by knot-splitting
                      and one vectorized Gauss-Kronrod pass over the pieces;
* ``estimators``   -- two-term asymptotic estimates for theta, the smooth and
                      rough counting functions psi and phi, the reciprocal
                      smooth sum S(y, z), and the DSA risk probability eta,
                      each with an explicit error envelope and domain flags;
* ``oracle``       -- exact sieve-backed ground truth for all of the above at
                      desk scale, plus a seeded Monte Carlo for eta;
* ``harness``      -- reproducible comparison grids (exact vs. estimate);
* ``cli``          -- a command-line surface with machine-readable output.
"""

from .constants import EULER_GAMMA, EXP_GAMMA, EXP_NEG_GAMMA
from .errors import ConstructionError, DomainError, ResourceError, SmoothdivError
from .piecewise import PiecewiseFunction, load_piecewise, save_piecewise
from .special import (
    build_buchstab_table,
    build_dickman_table,
    default_buchstab,
    default_dickman,
    omega,
    omega_prime,
    rho,
    rho_double_prime,
    rho_prime,
)
from .convolution import (
    ConvolutionValue,
    Numerics,
    QuadratureSpec,
    conv_omega_rho,
    conv_omega_rho_prime,
    conv_rho_rho,
    tau,
)
from .estimators import (
    DsaParams,
    EstimateResult,
    ScaledParams,
    eta,
    lemma4_bound,
    lemma6_estimate,
    phi_estimate,
    psi_estimate_hildebrand,
    psi_estimate_saias,
    s_error_bound,
    s_estimate,
    theta_error_bound,
    theta_estimate,
    wp,
    wp_and_eta,
)
from .oracle import (
    SieveTables,
    WeightKind,
    build_sieve,
    eta_empirical,
    phi_exact,
    psi_exact,
    s_exact,
    smooth_numbers,
    smooth_part,
    theta_exact,
    theta_exact_decomposed,
    weighted_smooth_sum,
    zeta_one_y,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionError",
    "ConvolutionValue",
    "DomainError",
    "DsaParams",
    "EULER_GAMMA",
    "EXP_GAMMA",
    "EXP_NEG_GAMMA",
    "EstimateResult",
    "Numerics",
    "PiecewiseFunction",
    "QuadratureSpec",
    "ResourceError",
    "ScaledParams",
    "SieveTables",
    "SmoothdivError",
    "WeightKind",
    "build_buchstab_table",
    "build_dickman_table",
    "build_sieve",
    "conv_omega_rho",
    "conv_omega_rho_prime",
    "conv_rho_rho",
    "default_buchstab",
    "default_dickman",
    "eta",
    "eta_empirical",
    "lemma4_bound",
    "lemma6_estimate",
    "load_piecewise",
    "omega",
    "omega_prime",
    "phi_estimate",
    "phi_exact",
    "psi_estimate_hildebrand",
    "psi_estimate_saias",
    "psi_exact",
    "rho",
    "rho_double_prime",
    "rho_prime",
    "s_error_bound",
    "s_estimate",
    "s_exact",
    "save_piecewise",
    "smooth_numbers",
    "smooth_part",
    "tau",
    "theta_error_bound",
    "theta_estimate",
    "theta_exact",
    "theta_exact_decomposed",
    "weighted_smooth_sum",
    "wp",
    "wp_and_eta",
    "zeta_one_y",
]
