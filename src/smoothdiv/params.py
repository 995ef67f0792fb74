"""Parameter bundles shared by the estimators and the exact oracles."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class ScaledParams:
    """A triple (x, y, z) with its logarithmic scalings u and v.

    ``u`` and ``v`` are always recomputed from (x, y, z); ``v`` is the -inf
    sentinel when z < 1 (no lower constraint on the smooth divisor).
    Per-divisor scalings u_d = log d / log y arise inside oracle sums and are
    computed inline by callers.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise DomainError("x, y, z must be finite")
        if self.x <= 0 or self.y < 2 or self.z < 0:
            raise DomainError("require x > 0, y >= 2, z >= 0")

    @property
    def u(self) -> float:
        return math.log(self.x) / math.log(self.y)

    @property
    def v(self) -> float:
        if self.z < 1.0:
            return float("-inf")
        return math.log(self.z) / math.log(self.y)


@dataclass(frozen=True)
class DsaParams:
    """DSA prime-generation parameters: p = 2nq + 1 with n of k bits,
    q an m-bit prime, and smoothness bound 2**l."""

    k: int
    l: int
    m: int

    def __post_init__(self):
        if self.k < 2 or self.l < 1 or self.m < 1:
            raise DomainError("require k >= 2, l >= 1, m >= 1")
        # The estimates scale k, l and m as floats (u = k/l, v = m/l).
        if max(self.k, self.l, self.m) > sys.float_info.max:
            raise DomainError("require k, l, m below 2**1024")
        if not (self.k > self.m >= self.l):
            warnings.warn(
                f"(k, l, m) = ({self.k}, {self.l}, {self.m}) is outside the "
                "regime of interest k > m >= l",
                stacklevel=3,
            )
