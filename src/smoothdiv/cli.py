"""Command-line surface with machine-readable output.

Subcommands:

* ``special``   -- evaluate rho, rho', rho'', omega, omega' at a point;
* ``estimate``  -- asymptotic estimates (theta, psi-h, psi-s, phi, s, lemma6)
                   with main/second terms, error envelope, and domain flags;
* ``exact``     -- exact sieve-backed counts (theta, psi, phi, s, smoothpart);
* ``compare``   -- exact vs. estimate over a parameter grid, emitted as a
                   comparison-report JSON document;
* ``dsa-risk``  -- the DSA large-subgroup exposure probability, analytic and
                   optionally Monte Carlo; flagged ``eta_negative=true`` when
                   the analytic value falls below 0;
* ``validate``  -- run the invariant suites.

Exit codes: 0 success, 1 validation failed (``validate`` only), 2 usage
error (bad flags, or a config value of the wrong type or range), 3 resource
limit (sieve ceiling, work budget, a table that cannot be built to the
requested accuracy, or memory exhausted), 4 domain error, or any other
error as one ``internal error: <Type>: <message>`` line.
Numbers in JSON/CSV output are decimal strings with 17 significant digits, so
values round-trip exactly and identical invocations (including ``--seed``)
produce byte-identical output.  A JSON config file (``--config`` or the
``SMOOTHDIV_CONFIG`` environment variable) can set tolerances, the sieve
ceiling, the table ranges and epsilon; every subcommand uses them (``validate``
runs its suites on the configured tables and tolerances, and ``compare``
weights the exact lemma6 sum by the configured omega table), and command-line
flags override them.

The kinds of ``estimate``, ``exact`` and ``compare`` and their parameters
come from :data:`smoothdiv.harness.KINDS`.  ``exact`` and ``compare`` count
up to the kind's ``sieve_limit`` (x, z for s, n for smoothpart) over a table
of the primes up to min(y, that bound), the largest y of the grid for
``compare``; ``dsa-risk --empirical`` sieves to 2**l and ``validate`` to
10**6.  The configured ``sieve_ceiling`` caps that table only: a count's cost
is bounded by :data:`smoothdiv.oracle.WORK_BUDGET`, and ``exact theta`` counts
by :func:`smoothdiv.oracle.theta_exact_decomposed`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from . import __version__, convolution, estimators, harness, oracle, special, validation
from .errors import ConstructionError, DomainError, ResourceError
from .harness import KINDS, fmt17
from .params import DsaParams

CONFIG_ENV_VAR = "SMOOTHDIV_CONFIG"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DOMAIN = 4


class UsageError(Exception):
    """Bad or missing flags for a subcommand (exit code 2)."""


@dataclass(frozen=True)
class Settings:
    """Runtime configuration; every field can come from the config file."""

    target_rel_err: float = special.DEFAULT_TARGET_REL_ERR
    abs_tol: float = convolution.DEFAULT_ABS_TOL
    rel_tol: float = convolution.DEFAULT_REL_TOL
    sieve_ceiling: int = oracle.DEFAULT_SIEVE_CEILING
    rho_u_max: int = special.DEFAULT_RHO_U_MAX
    omega_u_cut: int = special.DEFAULT_OMEGA_U_CUT
    epsilon: float = convolution.DEFAULT_EPSILON


#: Float settings that only make sense as positive finite numbers.
_POSITIVE_KEYS = ("target_rel_err", "abs_tol", "rel_tol")


def load_settings(config_path: str | None) -> Settings:
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return Settings()
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    known = {f.name: f.type for f in fields(Settings)}
    unknown = set(raw) - set(known)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, value in raw.items():
        # Integer fields take integers only; float fields take any number.
        # bool is an int subclass in Python but a number in neither.
        if known[key] == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"config key {key!r} must be an integer, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"config key {key!r} must be a number, got {value!r}")
        values[key] = value if known[key] == "int" else float(value)
        if key in _POSITIVE_KEYS and not (math.isfinite(values[key]) and values[key] > 0):
            raise UsageError(f"config key {key!r} must be positive and finite, got {value!r}")
        if key == "epsilon" and not math.isfinite(values[key]):
            raise UsageError(f"config key {key!r} must be finite, got {value!r}")
        if key == "sieve_ceiling" and value < 2:
            raise UsageError(f"config key {key!r} must be at least 2, got {value!r}")
    return Settings(**values)


@lru_cache(maxsize=4)
def _rho_table_for(target_rel_err: float, rho_u_max: int):
    """The rho table built to the configured ceiling and accuracy; None for
    the defaults, which :class:`~smoothdiv.convolution.Numerics` loads on
    first use."""
    if target_rel_err == special.DEFAULT_TARGET_REL_ERR and rho_u_max == special.DEFAULT_RHO_U_MAX:
        return None
    return special.build_dickman_table(rho_u_max, target_rel_err=target_rel_err)


@lru_cache(maxsize=4)
def _omega_table_for(target_rel_err: float, omega_u_cut: int):
    """The omega table built to the configured cut and accuracy; None for the
    defaults, which :class:`~smoothdiv.convolution.Numerics` builds on first use."""
    if (target_rel_err == special.DEFAULT_TARGET_REL_ERR
            and omega_u_cut == special.DEFAULT_OMEGA_U_CUT):
        return None
    return special.build_buchstab_table(omega_u_cut, target_rel_err=target_rel_err)


def _numerics(s: Settings, epsilon: float | None = None) -> convolution.Numerics:
    """Tables, quadrature tolerances and epsilon from the settings; a given
    ``epsilon`` (the ``--epsilon`` flag) overrides the configured one."""
    rt = _rho_table_for(s.target_rel_err, s.rho_u_max)
    ot = _omega_table_for(s.target_rel_err, s.omega_u_cut)
    return convolution.Numerics(rt, ot,
                                convolution.QuadratureSpec(abs_tol=s.abs_tol, rel_tol=s.rel_tol),
                                s.epsilon if epsilon is None else epsilon)


# -- output record -------------------------------------------------------------


@dataclass(frozen=True)
class OutputRecord:
    """One command's machine-readable result.

    Field order is stable for diffing; all numeric values are decimal strings
    with 17 significant digits, so serialization round-trips losslessly.
    """

    command: str
    inputs: dict
    outputs: dict
    flags: list = field(default_factory=list)
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": {k: fmt17(v) for k, v in self.inputs.items()},
            "outputs": {k: fmt17(v) for k, v in self.outputs.items()},
            "flags": list(self.flags),
            "version": self.version,
        }

    def render(self, fmt: str) -> str:
        d = self.to_dict()
        if fmt == "json":
            return json.dumps(d, indent=1) + "\n"
        if fmt == "csv":
            cols = (["command"] + [f"in_{k}" for k in d["inputs"]]
                    + [f"out_{k}" for k in d["outputs"]] + ["flags", "version"])
            vals = ([d["command"]] + list(d["inputs"].values())
                    + list(d["outputs"].values())
                    + [";".join(d["flags"]), d["version"]])
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([cols, vals])
            return buf.getvalue()
        if fmt == "table":
            lines = [f"command: {d['command']}"]
            for section in ("inputs", "outputs"):
                for k, v in d[section].items():
                    lines.append(f"  {k} = {v}")
            for fl in d["flags"]:
                lines.append(f"  [{fl}]")
            lines.append(f"  version {d['version']}")
            return "\n".join(lines) + "\n"
        raise UsageError(f"unknown format {fmt!r}")


def parse_output_record(text: str) -> OutputRecord:
    """Inverse of the JSON rendering (values stay decimal strings)."""
    d = json.loads(text)
    validate_output_record(d)
    return OutputRecord(command=d["command"], inputs=d["inputs"],
                        outputs=d["outputs"], flags=d["flags"], version=d["version"])


def validate_output_record(d: dict) -> None:
    """Structural check against the published output-record schema."""
    expected = ["command", "inputs", "outputs", "flags", "version"]
    if list(d.keys()) != expected:
        raise ValueError(f"record keys {list(d.keys())} != {expected}")
    if not isinstance(d["command"], str) or not isinstance(d["version"], str):
        raise ValueError("command and version must be strings")
    for section in ("inputs", "outputs"):
        if not isinstance(d[section], dict):
            raise ValueError(f"{section} must be an object")
        for k, v in d[section].items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValueError(f"{section} entries must map strings to strings")
    if not isinstance(d["flags"], list) or not all(isinstance(f, str) for f in d["flags"]):
        raise ValueError("flags must be a list of strings")


# -- flag helpers ----------------------------------------------------------------


def _need(args, *names) -> dict:
    vals = {}
    for n in names:
        v = getattr(args, n, None)
        if v is None:
            raise UsageError(f"--{n} is required for this command")
        vals[n] = v
    return vals


def _estimate_flags(result) -> list[str]:
    flags = [f"in_theorem_domain={'true' if result.in_theorem_domain else 'false'}"]
    flags.extend(n for n in result.domain_notes if "FAIL" in n)
    return flags


def _sieve_for(bound: float | int, settings: Settings,
               y: float = math.inf) -> oracle.SieveTables:
    """The primes up to min(y, ``bound``), all that a count over n <= bound (a
    float, or an int past every float) reads, under the configured ceiling."""
    if isinstance(bound, float):
        if not math.isfinite(bound):
            raise DomainError(f"the exact count needs a sieve up to {bound}")
        bound = math.ceil(bound)
    if math.isnan(y):
        raise DomainError("y must not be NaN")
    return oracle.build_sieve(math.floor(max(2, min(bound, y))), settings.sieve_ceiling)


def _int_or_float(text: str) -> int | float:
    """A flag value spelt as an integer, exactly (past 2**53 too), or else as
    a float (1e6, 12.7, nan)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _philox_seed(seed: int, span: int = 1) -> int:
    """``--seed`` as the first of ``span`` Philox keys, which lie in [0, 2**128)."""
    if not 0 <= seed <= 2**128 - span:
        raise UsageError(f"--seed must lie in [0, 2**128 - {span}], got {seed}")
    return seed


def _power(base: float, exponent: float, name: str) -> float:
    """``base ** exponent`` for a derived grid value, which must be a finite real."""
    try:
        value = math.pow(base, exponent)
    except (OverflowError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"{name} = {base:g}^{exponent:g} is not a finite real number")
    return value


# -- subcommands -------------------------------------------------------------------


def cmd_special(args, settings: Settings) -> OutputRecord:
    num = _numerics(settings)
    table = num.rho if args.fn.startswith("rho") else num.omega
    fn = {"rho": special.rho, "rho1": special.rho_prime, "rho2": special.rho_double_prime,
          "omega": special.omega, "omega1": special.omega_prime}[args.fn]
    return OutputRecord(
        command="special",
        inputs={"fn": args.fn, "u": args.u},
        outputs={"value": fn(args.u, table=table),
                 "table_max_certificate": table.max_certificate,
                 "table_target_rel_err": table.target_rel_err},
    )


def cmd_estimate(args, settings: Settings) -> OutputRecord:
    kind = KINDS[args.kind]
    p = _need(args, *kind.params)
    if args.epsilon is not None and not math.isfinite(args.epsilon):
        raise UsageError(f"--epsilon must be finite, got {args.epsilon!r}")
    r = kind.estimate(_numerics(settings, args.epsilon), **p)
    return OutputRecord(
        command=f"estimate {args.kind}",
        inputs=p,
        outputs={"main_term": r.main_term, "second_term": r.second_term,
                 "value": r.value, "error_envelope": r.error_envelope},
        flags=_estimate_flags(r),
    )


def cmd_exact(args, settings: Settings) -> OutputRecord:
    kind = KINDS[args.kind]
    p = _need(args, *kind.params)
    if isinstance(p.get("n"), float):  # the integer whose smooth part is asked for
        if not p["n"].is_integer():
            raise UsageError(f"--n must be an integer, got {p['n']!r}")
        p["n"] = int(p["n"])
    t = _sieve_for(kind.sieve_limit(**p), settings, p["y"])
    return OutputRecord(command=f"exact {args.kind}", inputs=p,
                        outputs={"value": kind.exact(t, _numerics(settings), **p)})


def _parse_x_list(spec: str) -> list[float]:
    try:
        xs = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"malformed x list {spec!r}")
    if not xs or any(not math.isfinite(x) or x <= 0 for x in xs):
        raise UsageError(f"malformed x list {spec!r}")
    return xs


def cmd_compare(args, settings: Settings) -> tuple[str, str | None]:
    """Exact vs. estimate over the requested grid; returns (stdout text, report path)."""
    xs = _parse_x_list(args.x)
    if (args.u is None) == (args.y is None):
        raise UsageError("give exactly one of --u (y = x^(1/u)) or --y (fixed)")
    needs_z = "z" in KINDS[args.kind].params
    if needs_z and (args.v is None) == (args.z is None):
        raise UsageError("give exactly one of --v (z = y^v) or --z (fixed)")
    if args.u == 0:
        raise DomainError("--u must be nonzero (y = x^(1/u))")
    grid = []
    for x in xs:
        y = _power(x, 1.0 / args.u, "y") if args.u is not None else args.y
        params = {"x": x, "y": y}
        if needs_z:
            params["z"] = _power(y, args.v, "z") if args.v is not None else args.z
        grid.append(params)
    # One sieve for the grid: counts up to the largest bound any point needs,
    # over the primes up to the largest y.  The y are one --y, or finite
    # powers of x, so max sees no NaN beside a number.
    t = _sieve_for(max(KINDS[args.kind].sieve_limit(**p) for p in grid), settings,
                   max(p["y"] for p in grid))
    num = _numerics(settings)
    rows = [harness.compare_row(args.kind, p, t, num) for p in grid]
    ratios = [r.ratio for r in rows]
    report = harness.ComparisonReport(
        f"compare-{args.kind}", tuple(rows), seed=0, version=__version__,
        summary={"max_ratio": max(ratios), "median_ratio": float(np.median(ratios))})
    if args.report:
        try:
            report.save(args.report)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
                PermissionError) as exc:
            raise UsageError(f"cannot write --report {args.report}: {exc.strerror}")
    return report.to_json(), args.report


def cmd_dsa_risk(args, settings: Settings) -> OutputRecord:
    num = _numerics(settings)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = DsaParams(args.k, args.l, args.m)
        w_k, analytic = estimators.wp_and_eta(d, num)
    flags = [f"regime_warning={str(w.message)}" for w in caught]
    if analytic < 0.0:  # a probability, so the asymptotic formula is off here
        flags.append("eta_negative=true")
    inputs = {"k": args.k, "l": args.l, "m": args.m}
    outputs = {"wp": w_k, "eta": analytic}
    if args.empirical is not None:
        seed = _philox_seed(args.seed)
        # 2**l exceeds the ceiling exactly when l reaches its bit length;
        # testing l first never builds 2**l for a huge l.
        if args.l >= settings.sieve_ceiling.bit_length():
            raise ResourceError(f"trial division needs a sieve up to 2^{args.l}, beyond "
                                f"the ceiling {settings.sieve_ceiling}")
        t = _sieve_for(1 << args.l, settings)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            emp, se = oracle.eta_empirical(d, args.empirical, seed, t)
        inputs["samples"] = args.empirical
        inputs["seed"] = args.seed
        outputs["empirical"] = emp
        outputs["empirical_std_err"] = se
        outputs["sigma_distance"] = abs(analytic - emp) / se if se > 0 else math.inf
    return OutputRecord(command="dsa-risk", inputs=inputs, outputs=outputs, flags=flags)


def cmd_validate(args, settings: Settings) -> tuple[str, bool]:
    seed = _philox_seed(args.seed, span=3)  # the suites key Philox with seed .. seed + 2
    sieve = None
    if args.suite in ("estimators", "oracle", "all"):
        sieve = _sieve_for(10**6, settings)
    results = validation.run_suite(args.suite, seed=seed, sieve=sieve, num=_numerics(settings))
    lines = [r.line() for r in results]
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    if n_fail:
        failed = ", ".join(f"{r.suite}.{r.name}" for r in results if not r.passed)
        lines.append(f"FAILED: {failed}")
    return "\n".join(lines) + "\n", n_fail == 0


# -- parser ------------------------------------------------------------------------


_ESTIMATE_KINDS = [k for k, e in KINDS.items() if e.estimate is not None]


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one (parsing leaves it unchanged; help text is laid out per call)."""
    p = argparse.ArgumentParser(
        prog="smoothdiv",
        description="Counts and densities of integers with a large smooth divisor.",
    )
    p.add_argument("--config", help="path to a JSON config file "
                   f"(or set {CONFIG_ENV_VAR})")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("special", help="evaluate rho, omega, or a derivative")
    sp.add_argument("--fn", required=True, choices=["rho", "rho1", "rho2", "omega", "omega1"])
    sp.add_argument("--u", required=True, type=float)
    sp.add_argument("--format", default="json", choices=["json", "csv", "table"])

    es = sub.add_parser("estimate", help="asymptotic estimate with error envelope")
    es.add_argument("kind", choices=_ESTIMATE_KINDS)
    es.add_argument("--x", type=float)
    es.add_argument("--y", type=float)
    es.add_argument("--z", type=float)
    es.add_argument("--epsilon", type=float, default=None)
    es.add_argument("--format", default="json", choices=["json", "csv", "table"])

    ex = sub.add_parser("exact", help="exact sieve-backed value")
    ex.add_argument("kind", choices=[k for k, e in KINDS.items() if e.exact_command])
    ex.add_argument("--x", type=float)
    ex.add_argument("--y", type=float)
    ex.add_argument("--z", type=float)
    ex.add_argument("--n", type=_int_or_float)
    ex.add_argument("--format", default="json", choices=["json", "csv", "table"])

    cp = sub.add_parser("compare", help="exact vs. estimate over a grid")
    cp.add_argument("--kind", default="theta", choices=_ESTIMATE_KINDS)
    cp.add_argument("--x", required=True, help="comma-separated list, e.g. 1e5,1e6,1e7")
    cp.add_argument("--u", type=float, help="derive y = x^(1/u)")
    cp.add_argument("--y", type=float, help="fixed y")
    cp.add_argument("--v", type=float, help="derive z = y^v")
    cp.add_argument("--z", type=float, help="fixed z")
    cp.add_argument("--report", help="also write the report JSON to this path")

    dr = sub.add_parser("dsa-risk", help="DSA large-subgroup exposure probability")
    dr.add_argument("--k", required=True, type=int, help="modulus-factor bit length")
    dr.add_argument("--l", required=True, type=int, help="smoothness exponent (y = 2^l)")
    dr.add_argument("--m", required=True, type=int, help="subgroup-prime bit length")
    dr.add_argument("--empirical", type=int, metavar="SAMPLES",
                    help="also run a seeded Monte Carlo with this many samples")
    dr.add_argument("--seed", type=int, default=7)
    dr.add_argument("--format", default="json", choices=["json", "csv", "table"])

    va = sub.add_parser("validate", help="run invariant suites")
    va.add_argument("suite", choices=["special", "convolution", "estimators", "oracle", "all"])
    va.add_argument("--seed", type=int, default=validation.DEFAULT_SEED)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        settings = load_settings(args.config)
        if args.subcommand == "special":
            sys.stdout.write(cmd_special(args, settings).render(args.format))
        elif args.subcommand == "estimate":
            sys.stdout.write(cmd_estimate(args, settings).render(args.format))
        elif args.subcommand == "exact":
            sys.stdout.write(cmd_exact(args, settings).render(args.format))
        elif args.subcommand == "compare":
            text, _path = cmd_compare(args, settings)
            sys.stdout.write(text)
        elif args.subcommand == "dsa-risk":
            sys.stdout.write(cmd_dsa_risk(args, settings).render(args.format))
        elif args.subcommand == "validate":
            text, ok = cmd_validate(args, settings)
            sys.stdout.write(text)
            return EXIT_OK if ok else EXIT_FAILURE
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceError, ConstructionError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # last resort: a traceback's exit 1 means "validation failed"
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_DOMAIN


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
