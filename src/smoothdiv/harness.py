"""Reproducible comparison experiments: exact counts vs. asymptotic estimates.

Each experiment produces a :class:`ComparisonReport` whose rows pair an exact
oracle value with the corresponding estimate and its error envelope; the row
ratio |exact - estimate| / envelope is always derived from those fields, never
stored independently.  Reports contain the seed and package version but no
timestamps, so a rerun with the same inputs is byte-identical.

Envelopes carry implied constant 1, so the interesting output is the fitted
constant (the largest observed ratio), which the reports record rather than
assert; acceptance-level bounds live in the test suite.

The kind registry :data:`KINDS` pairs each quantity with its parameters, its
estimate and its exact count; the report builders here and the CLI's
``estimate``, ``exact`` and ``compare`` subcommands all dispatch through it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, estimators, oracle
from .convolution import DEFAULT_NUMERICS, Numerics
from .estimators import EstimateResult
from .params import DsaParams, ScaledParams

_THEOREM1_XS = (1e5, 1e6, 1e7)
_THEOREM1_UV = ((4.0, 2.0), (5.0, 2.0), (6.0, 3.0))


def fmt17(x) -> str:
    """Render a value as a string; floats get 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer, str)):
        return str(x)
    return f"{float(x):.17g}"


# -- kind registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One quantity: its parameters, its estimate and its exact count.

    The callables take the parameter values as keywords:
    ``estimate(num, **p)``, ``exact(sieve, num, **p)`` and
    ``sieve_limit(**p)``, the bound on the integers ``exact`` counts over
    (x, or z for s, or n for smoothpart), which the CLI holds to its sieve
    ceiling; ``exact`` reads no prime above min(y, that bound), so a sieve
    to that suffices.  ``num`` is a
    :class:`~smoothdiv.convolution.Numerics`.  They look their
    functions up through the module at call time, so wrappers installed on
    ``estimators`` and ``oracle`` see every call.  The CLI's ``estimate`` and
    ``compare`` offer every kind with an estimate; ``exact`` offers the kinds
    marked ``exact_command``.  ``zeta_route`` names the callable,
    ``"estimate"`` or ``"exact"``, that evaluates the Euler product
    zeta(1, y), which sieves the primes up to the parameter y outside any
    sieve table; the CLI holds that y to its sieve ceiling.
    """

    params: tuple[str, ...]
    estimate: Callable[..., EstimateResult] | None = None
    exact: Callable[..., float] | None = None
    sieve_limit: Callable[..., float] = lambda x, **_: x
    exact_command: bool = False
    zeta_route: str | None = None


def _psi_exact(t, num, x, y):
    return oracle.psi_exact(x, y, t)


KINDS: dict[str, Kind] = {
    "theta": Kind(
        ("x", "y", "z"),
        lambda num, x, y, z: estimators.theta_estimate(ScaledParams(x, y, z), num),
        lambda t, num, x, y, z: oracle.theta_exact_decomposed(x, y, z, t),
        exact_command=True),
    "psi-h": Kind(
        ("x", "y"),
        lambda num, x, y: estimators.psi_estimate_hildebrand(x, y, num),
        _psi_exact),
    "psi-s": Kind(
        ("x", "y"),
        lambda num, x, y: estimators.psi_estimate_saias(x, y, num),
        _psi_exact),
    "psi": Kind(("x", "y"), exact=_psi_exact, exact_command=True),
    "phi": Kind(
        ("x", "y"),
        lambda num, x, y: estimators.phi_estimate(x, y, num),
        lambda t, num, x, y: oracle.phi_exact(x, y, t),
        exact_command=True,
        zeta_route="estimate"),
    "s": Kind(
        ("y", "z"),
        lambda num, y, z: estimators.s_estimate(y, z, num),
        lambda t, num, y, z: oracle.s_exact(y, z, t),
        sieve_limit=lambda z, **_: max(z, 2.0),
        exact_command=True,
        zeta_route="exact"),
    "lemma6": Kind(
        ("x", "y", "z"),
        lambda num, x, y, z: estimators.lemma6_estimate(ScaledParams(x, y, z), num),
        lambda t, num, x, y, z: oracle.weighted_smooth_sum(
            ScaledParams(x, y, z), oracle.WeightKind.BUCHSTAB_OMEGA, t, num)),
    "smoothpart": Kind(
        ("n", "y"),
        exact=lambda t, num, n, y: oracle.smooth_part(n, y, t),
        sieve_limit=lambda n, **_: n,
        exact_command=True),
}


@dataclass(frozen=True)
class ReportRow:
    params: dict
    exact: float
    estimate: float
    envelope: float
    in_domain: bool
    note: str = ""

    @property
    def ratio(self) -> float:
        if self.envelope == 0.0:
            return 0.0 if self.exact == self.estimate else math.inf
        return abs(self.exact - self.estimate) / self.envelope

    def to_jsonable(self) -> dict:
        return {
            "params": {k: fmt17(v) for k, v in self.params.items()},
            "exact": fmt17(self.exact),
            "estimate": fmt17(self.estimate),
            "abs_diff": fmt17(abs(self.exact - self.estimate)),
            "envelope": fmt17(self.envelope),
            "ratio": fmt17(self.ratio),
            "in_domain": self.in_domain,
            "note": self.note,
        }


@dataclass(frozen=True)
class ComparisonReport:
    experiment_id: str
    rows: tuple[ReportRow, ...]
    seed: int
    version: str
    summary: dict = field(default_factory=dict)

    @property
    def fitted_constant(self) -> float:
        """Largest observed |exact - estimate| / envelope across the rows."""
        finite = [r.ratio for r in self.rows if math.isfinite(r.ratio)]
        return max(finite) if finite else 0.0

    def median_ratio(self, **param_filter) -> float:
        vals = [r.ratio for r in self.rows
                if all(r.params.get(k) == v for k, v in param_filter.items())]
        return float(np.median(vals)) if vals else math.nan

    def to_jsonable(self) -> dict:
        return {
            "schema": "smoothdiv/comparison-report/1",
            "experiment_id": self.experiment_id,
            "rows": [r.to_jsonable() for r in self.rows],
            "fitted_constant": fmt17(self.fitted_constant),
            "summary": {k: fmt17(v) for k, v in self.summary.items()},
            "seed": self.seed,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=1) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    def summary_table(self) -> str:
        lines = [f"experiment: {self.experiment_id}"]
        header = f"{'params':<40} {'exact':>14} {'estimate':>16} {'envelope':>14} {'ratio':>9} {'domain':>7}"
        lines.append(header)
        for r in self.rows:
            ps = ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in r.params.items())
            lines.append(
                f"{ps:<40} {r.exact:>14.6g} {r.estimate:>16.6g} "
                f"{r.envelope:>14.6g} {r.ratio:>9.4f} {str(r.in_domain):>7}"
            )
        lines.append(f"fitted constant (max ratio): {self.fitted_constant:.4f}")
        for k, v in self.summary.items():
            lines.append(f"{k}: {v:.6g}" if isinstance(v, float) else f"{k}: {v}")
        return "\n".join(lines)


def compare_row(
    kind: str,
    params: dict,
    sieve: oracle.SieveTables,
    num: Numerics = DEFAULT_NUMERICS,
    note: str | None = None,
) -> ReportRow:
    """Exact count vs. estimate of ``kind`` at one point.

    ``params`` holds the kind's parameters and may carry more keys (u, v);
    all of them go into the row.  ``note`` defaults to the failed domain
    conditions of the estimate ("" inside the domain).
    """
    entry = KINDS[kind]
    p = {k: params[k] for k in entry.params}
    est = entry.estimate(num, **p)
    exact = float(entry.exact(sieve, num, **p))
    if note is None:
        note = "" if est.in_theorem_domain else "; ".join(
            n for n in est.domain_notes if "FAIL" in n)
    return ReportRow(params, exact, est.value, est.error_envelope, est.in_theorem_domain, note)


def _branch(y: float, z: float) -> str:
    return "z >= y log y" if z >= y * math.log(y) else "z < y log y"


def run_theorem1_grid(sieve: oracle.SieveTables | None = None, xs=_THEOREM1_XS) -> ComparisonReport:
    """Exact theta vs. the two-term estimate on the default convergence grid.

    Grid: x in {1e5, 1e6, 1e7}, (u, v) in {(4,2), (5,2), (6,3)}, with
    y = x**(1/u) and z = y**v (inside the window y log y <= z <= x/y by
    construction).  Every row lies below the theorem's lower bound on y
    (y runs from 6.8 to 56, while x = 1e7 needs y >= 258), and on this grid
    the envelope exceeds theta itself.  The ``median_ratio_x_*`` summary is a
    record of the median ratio per x, not a convergence test: Theorem 1
    bounds the ratio by a constant, it does not ask it to fall.
    """
    t = sieve if sieve is not None else oracle.build_sieve(int(max(xs)))
    rows = []
    for x in xs:
        for (u, v) in _THEOREM1_UV:
            y = x ** (1.0 / u)
            rows.append(compare_row("theta", {"x": x, "u": u, "v": v, "y": y, "z": y ** v}, t))
    report = ComparisonReport("theta-two-term-grid", tuple(rows), seed=0, version=__version__)
    return dataclasses.replace(report, summary={
        f"median_ratio_x_{x:.0e}": report.median_ratio(x=x) for x in xs})


_PSI_GRID = [(x, u) for x in (1e5, 1e6, 1e7) for u in (2.0, 2.5, 3.0, 4.0)]


def _lemma1_report(t: oracle.SieveTables) -> ComparisonReport:
    rows = [compare_row("psi-h", {"x": x, "u": u, "y": x ** (1.0 / u)}, t, note="")
            for (x, u) in _PSI_GRID]
    return ComparisonReport("psi-first-order-grid", tuple(rows), 0, __version__)


def _lemma2_report(t: oracle.SieveTables) -> ComparisonReport:
    rows = []
    saias_wins = 0
    for (x, u) in _PSI_GRID:
        row = compare_row("psi-s", {"x": x, "u": u, "y": x ** (1.0 / u)}, t, note="")
        first = estimators.psi_estimate_hildebrand(x, row.params["y"])
        if abs(row.exact - row.estimate) <= abs(row.exact - first.value):
            saias_wins += 1
        rows.append(row)
    return ComparisonReport("psi-second-order-grid", tuple(rows), 0, __version__,
                            {"second_order_wins": float(saias_wins),
                             "points": float(len(rows))})


def _lemma3_report(t: oracle.SieveTables) -> ComparisonReport:
    # Both envelope branches: z < y log y and z >= y log y.
    grid = [(100.0, 10.0), (1000.0, 50.0), (10000.0, 1000.0),
            (100.0, 1e4), (1000.0, 1e6), (10000.0, 1e7)]
    rows = [compare_row("s", {"y": y, "z": z}, t, note=_branch(y, z)) for (y, z) in grid]
    return ComparisonReport("reciprocal-smooth-sum-grid", tuple(rows), 0, __version__)


def _lemma4_report(t: oracle.SieveTables) -> ComparisonReport:
    # One-sided bound: report exact / bound, no envelope semantics.
    grid = [(1e5, 50.0, 200.0), (1e6, 50.0, 500.0), (1e6, 100.0, 1000.0),
            (3e6, 80.0, 800.0)]
    rows = []
    for (x, y, z) in grid:
        p = ScaledParams(x, y, z)
        exact = oracle.weighted_smooth_sum(p, oracle.WeightKind.DICKMAN_RHO, t)
        bound = estimators.lemma4_bound(p)
        rows.append(ReportRow({"x": x, "y": y, "z": z}, exact, 0.0, bound,
                              True, note="upper bound, not an asymptotic"))
    return ComparisonReport("rho-weighted-sum-bound", tuple(rows), 0, __version__,
                            {"max_exact_over_bound": max(r.exact / r.envelope for r in rows)})


def _lemma5_report(t: oracle.SieveTables) -> ComparisonReport:
    grid = [(1e5, 20.0), (1e6, 50.0), (1e6, 100.0), (1e7, 200.0)]
    rows = [compare_row("phi", {"x": x, "y": y}, t, note="") for (x, y) in grid]
    return ComparisonReport("phi-rough-count-grid", tuple(rows), 0, __version__)


def _lemma6_report(t: oracle.SieveTables) -> ComparisonReport:
    # lemma6_estimate has no domain conditions: every row is in its domain.
    grid = [(1e5, 30.0, 100.0), (1e6, 50.0, 500.0), (1e6, 50.0, 5000.0),
            (1e6, 100.0, 300.0), (1e7, 100.0, 1000.0)]
    rows = [compare_row("lemma6", {"x": x, "y": y, "z": z}, t, note=_branch(y, z))
            for (x, y, z) in grid]
    return ComparisonReport("omega-weighted-sum-grid", tuple(rows), 0, __version__)


def run_lemma_grids(sieve: oracle.SieveTables | None = None) -> list[ComparisonReport]:
    """One exact-vs-estimate report per supporting estimate (six in all)."""
    t = sieve if sieve is not None else oracle.build_sieve(10**7)
    return [
        _lemma1_report(t),
        _lemma2_report(t),
        _lemma3_report(t),
        _lemma4_report(t),
        _lemma5_report(t),
        _lemma6_report(t),
    ]


def run_eta_desk(
    sieve: oracle.SieveTables | None = None,
    samples: int = 10**6,
    seed: int = 7,
) -> ComparisonReport:
    """Analytic DSA risk probability vs. seeded Monte Carlo at desk scale.

    Rows: (k, l, m) in {(40,10,20), (48,12,24), (60,15,30)} plus the control
    row (40, 10, 40) whose empirical value must be exactly 0 (m >= k).  The
    envelope is the theta error term of both endpoints scaled by the sample
    range; sigma is the binomial standard error.
    """
    t = sieve if sieve is not None else oracle.build_sieve(1 << 15)
    rows = []
    cases = [(40, 10, 20), (48, 12, 24), (60, 15, 30), (40, 10, 40)]
    for i, (k, l, m) in enumerate(cases):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the control row is outside the regime
            d = DsaParams(k, l, m)
            analytic = estimators.eta(d)
            emp, se = oracle.eta_empirical(d, samples, seed + i, t)
        envelope = (estimators.theta_error_bound(ScaledParams(2.0**k, 2.0**l, 2.0**m))
                    + estimators.theta_error_bound(ScaledParams(2.0**(k - 1), 2.0**l, 2.0**m))
                    ) / 2.0**(k - 1)
        sigma_dist = abs(analytic - emp) / se if se > 0 else math.inf
        rows.append(ReportRow(
            params={"k": k, "l": l, "m": m, "samples": samples, "seed": seed + i},
            exact=emp, estimate=analytic, envelope=3.0 * se + envelope,
            in_domain=(k > m >= l),
            note=f"binomial sigma {se:.3e}; |diff| = {abs(analytic - emp):.3e} "
                 f"({sigma_dist:.2f} sigma)"))
    return ComparisonReport("dsa-risk-monte-carlo", tuple(rows), seed, __version__)
