"""The three workloads: input pools, seeded rounds, op execution and checks.

Every workload draws its ops from a fixed pool of inputs whose outputs at
the commit that defined the benchmark are recorded in ``golden/<name>.json``
(written by ``make_golden.py``).  A pool entry is either fixed (``stratum``
is null: it runs in every round) or belongs to a stratum; each round runs
all fixed entries, then one entry from every stratum in seeded order.
Strata are narrow parameter bins, so every round does nearly the same work
whatever the seed, while the seed still changes the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

ABS_TOL = 1e-12  # the convolution quadrature's default absolute tolerance
REL_TOL = 1e-10  # ... and its relative tolerance
HEADLINE = (863, 80, 160)
HEADLINE_ETA = 0.09576
HEADLINE_TOL = 5e-4
POOL_SEED = 20060117
CANDIDATES = 8  # pool entries per stratum
EXACT_GRID_SIEVE = 10**7

WORKLOADS = ("estimate-sweep", "exact-grid", "cli-mix")

# Kinds whose estimate terms count integers up to x: their absolute
# tolerance scales with x.
X_SCALED = {"theta", "psi", "phi", "psi-h", "psi-s"}


# -- pool generation ---------------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _g(v: float) -> float:
    """Round to 12 significant digits so inputs print and parse exactly."""
    return float(f"{v:.12g}")


def _dsa_triple(rng: random.Random, u_lo: float, u_hi: float) -> tuple[int, int, int]:
    """A DSA-shaped (k, l, m) with 64 <= k <= 4096, k/l in [u_lo, u_hi] and k > m >= l."""
    u = math.exp(rng.uniform(math.log(u_lo), math.log(u_hi)))
    k = int(round(math.exp(rng.uniform(math.log(max(64.0, 2.0 * u)), math.log(4096)))))
    l = max(1, int(round(k / u)))
    v = rng.uniform(1.0, max(1.0, min(k / l - 1.0, 3.0)))
    m = min(max(l, int(round(v * l))), k - 1)
    return k, l, m


class _Pool:
    def __init__(self):
        self.entries: list[dict] = []

    def add(self, kind: str, stratum: str | None, **params) -> None:
        n = sum(1 for e in self.entries if e["kind"] == kind)
        self.entries.append({"id": f"{kind}-{n}", "kind": kind, "stratum": stratum,
                             "params": params})

    def strata(self, kind: str, name: str, count: int, draw) -> None:
        """``count`` strata of ``CANDIDATES`` entries each, from ``draw()``."""
        for s in range(count):
            for _ in range(CANDIDATES):
                self.add(kind, f"{name}.{s}", **draw())


def _estimate_sweep_pool(rng: random.Random) -> list[dict]:
    pool = _Pool()
    k, l, m = HEADLINE
    pool.add("eta", None, k=k, l=l, m=m)
    # eta cost grows with u = k/l (more knots, more quad pieces): one
    # stratum per log-spaced u bin from 2 to 100.
    edges = [2.0 * 50.0 ** (i / 10) for i in range(11)]
    for b in range(10):
        for _ in range(CANDIDATES):
            k, l, m = _dsa_triple(rng, edges[b], edges[b + 1])
            pool.add("eta", f"eta.u{b}", k=k, l=l, m=m)

    def theta(u_lo, u_hi):
        def draw():
            u = rng.uniform(u_lo, u_hi)
            log_y = rng.uniform(1.5, min(12.0, 300.0 / u))
            v = rng.uniform(1.0, max(1.5, u - 1.0))
            return {"x": _g(10.0 ** (u * log_y)), "y": _g(10.0 ** log_y),
                    "z": _g(10.0 ** (v * log_y))}
        return draw

    for i, (lo, hi) in enumerate([(2, 4), (4, 8), (8, 15), (15, 25), (25, 40), (40, 60)]):
        pool.strata("theta", f"theta.u{i}", 2 if lo >= 25 else 1, theta(lo, hi))
    pool.strata("s", "s", 1, lambda: {"y": _g(_log_uniform(rng, 0.5, 8.0)),
                                      "z": _g(_log_uniform(rng, 0.0, 15.0))})

    def psi():
        x = _log_uniform(rng, 4.0, 60.0)
        return {"x": _g(x), "y": _g(x ** (1.0 / rng.uniform(1.5, 30.0)))}

    pool.strata("psi", "psi", 1, psi)

    def phi():
        x = _log_uniform(rng, 4.0, 30.0)
        return {"x": _g(x), "y": _g(_log_uniform(rng, 0.5, 5.0))}

    pool.strata("phi", "phi", 1, phi)
    return pool.entries


# The harness's own grids (harness.run_theorem1_grid, run_lemma_grids and
# run_eta_desk) run as fixed rows in every exact-grid round, slow corners
# included: s_exact(1e4, 1e7) and psi_exact(1e7, 1e7**(1/2)).
_THEOREM1 = [(x, u, v) for x in (1e5, 1e6, 1e7) for (u, v) in ((4.0, 2.0), (5.0, 2.0), (6.0, 3.0))]
_LEMMA12 = [(x, u) for x in (1e5, 1e6, 1e7) for u in (2.0, 2.5, 3.0, 4.0)]
_LEMMA3 = [(100.0, 10.0), (1000.0, 50.0), (10000.0, 1000.0), (100.0, 1e4), (1000.0, 1e6),
           (10000.0, 1e7)]
_LEMMA46 = [(1e5, 50.0, 200.0), (1e6, 50.0, 500.0), (1e6, 100.0, 1000.0), (3e6, 80.0, 800.0),
            (1e5, 30.0, 100.0), (1e6, 50.0, 5000.0), (1e6, 100.0, 300.0), (1e7, 100.0, 1000.0)]
_LEMMA5 = [(1e5, 20.0), (1e6, 50.0), (1e6, 100.0), (1e7, 200.0)]
_ETA_DESK = [(40, 10, 20), (48, 12, 24), (60, 15, 30), (40, 10, 40)]
DESK_SAMPLES = 1 << 16  # run_eta_desk uses 10**6; scaled to a row's budget


def _exact_grid_pool(rng: random.Random) -> list[dict]:
    pool = _Pool()
    for (x, u, v) in _THEOREM1:
        y = x ** (1.0 / u)
        pool.add("theta", None, x=x, y=y, z=y ** v)
    for (x, u) in _LEMMA12:
        pool.add("psi", None, x=x, y=x ** (1.0 / u))
    for (y, z) in _LEMMA3:
        pool.add("s", None, y=y, z=z)
    for (x, y, z) in _LEMMA46:
        pool.add("weighted_sum", None, x=x, y=y, z=z)
    for (x, y) in _LEMMA5:
        pool.add("phi", None, x=x, y=y)
    for i, (k, l, m) in enumerate(_ETA_DESK):
        pool.add("eta_empirical", None, k=k, l=l, m=m, samples=DESK_SAMPLES, seed=7 + i)

    def theta(lx_lo, lx_hi):
        def draw():
            x = _log_uniform(rng, lx_lo, lx_hi)
            u = rng.uniform(3.0, 7.0)
            y = x ** (1.0 / u)
            return {"x": _g(x), "y": _g(y), "z": _g(y ** rng.uniform(1.2, u - 1.0))}
        return draw

    # A theta row costs about x (stride writes over arrays of x entries), so
    # each stratum is a narrow band of log x and a round climbs the same
    # ladder of sizes whatever the seed.
    for name, lo, hi, bands in (("x5", 5.0, 6.0, 4), ("x6", 6.0, 6.5, 4), ("x7", 6.5, 7.0, 64)):
        width = (hi - lo) / bands
        for b in range(bands):
            pool.strata("theta", f"theta.{name}.b{b}", 1,
                        theta(lo + b * width, lo + (b + 1) * width))

    def psi(lx_lo, lx_hi, u_lo, u_hi):
        def draw():
            x = _log_uniform(rng, lx_lo, lx_hi)
            return {"x": _g(x), "y": _g(x ** (1.0 / rng.uniform(u_lo, u_hi)))}
        return draw

    pool.strata("psi", "psi.small", 3, psi(5.0, 6.0, 2.0, 4.0))
    pool.strata("psi", "psi.large", 4, psi(6.0, 7.0, 2.5, 4.0))
    pool.strata("psi", "psi.corner", 1, psi(6.5, 7.0, 2.0, 2.5))
    pool.strata("phi", "phi", 8, lambda: {"x": _g(_log_uniform(rng, 5.0, 7.0)),
                                          "y": _g(_log_uniform(rng, 1.0, 2.7))})
    pool.strata("s", "s.y2", 3, lambda: {"y": _g(_log_uniform(rng, 2.0, 3.0)),
                                         "z": _g(_log_uniform(rng, 1.0, 6.0))})
    pool.strata("s", "s.y3", 3, lambda: {"y": _g(_log_uniform(rng, 3.0, 4.0)),
                                         "z": _g(_log_uniform(rng, 1.0, 5.0))})

    def weighted():
        x = _log_uniform(rng, 5.0, 7.0)
        y = rng.uniform(20.0, 200.0)
        return {"x": _g(x), "y": _g(y),
                "z": _g(_log_uniform(rng, math.log10(y), math.log10(x / y)))}

    pool.strata("weighted_sum", "weighted_sum", 10, weighted)

    # Sample counts fall as 2**-l so the sampling work per row stays about
    # the same: the int64 path loops over the pi(2**l) primes, and the
    # big-int path reduces a primorial of about 1.44 * 2**l bits per sample.
    # Building that primorial takes seconds at l = 20, a slow corner kept in.
    def mc(k_lo, k_hi, l_lo, l_hi, work_bits):
        def draw():
            k = rng.randint(k_lo, k_hi)
            l = rng.randint(l_lo, l_hi)
            return {"k": k, "l": l, "m": rng.randint(l, min(k - 1, 3 * l)),
                    "samples": 1 << (work_bits - l), "seed": rng.randint(0, 2**31)}
        return draw

    for lo in (8, 10, 12, 14):
        pool.strata("eta_empirical", f"mc.int64.l{lo}", 2, mc(40, 62, lo, lo + 1, 28))
    for lo in (12, 14, 16, 18, 20):
        pool.strata("eta_empirical", f"mc.bigint.l{lo}", 2 if lo < 18 else 1,
                    mc(64, 128, lo, min(lo + 1, 20), 26))
    return pool.entries


def _argv(*tokens) -> list[str]:
    return [t if isinstance(t, str) else f"{t:.12g}" for t in tokens]


def _cli_mix_pool(rng: random.Random) -> list[dict]:
    pool = _Pool()
    lu = lambda lo, hi: _log_uniform(rng, lo, hi)  # noqa: E731

    u_ranges = {"rho": (0.0, 90.0), "rho1": (0.5, 90.0), "rho2": (1.5, 90.0),
                "omega": (1.0, 40.0), "omega1": (1.0, 40.0)}
    for fn, (lo, hi) in u_ranges.items():
        pool.strata("special", f"special.{fn}", 2,
                    lambda fn=fn, lo=lo, hi=hi: {"argv": _argv("special", "--fn", fn, "--u",
                                                               rng.uniform(lo, hi))})

    def est_theta():
        x = lu(6.0, 40.0)
        u = rng.uniform(2.0, 20.0)
        y = x ** (1.0 / u)
        return _argv("estimate", "theta", "--x", x, "--y", y, "--z", y ** rng.uniform(1.0, u - 1.0))

    def est_xy(kind):
        def draw():
            x = lu(4.0, 40.0)
            return _argv("estimate", kind, "--x", x, "--y", lu(1.0, math.log10(x)))
        return draw

    def est_lemma6():
        x, y = lu(6.0, 20.0), lu(1.0, 4.0)
        return _argv("estimate", "lemma6", "--x", x, "--y", y, "--z",
                     lu(0.0, math.log10(x / y)))

    estimates = {
        "theta": est_theta,
        "psi-h": est_xy("psi-h"),
        "psi-s": est_xy("psi-s"),
        "phi": lambda: _argv("estimate", "phi", "--x", lu(5.0, 30.0), "--y", lu(1.0, 5.0)),
        "s": lambda: _argv("estimate", "s", "--y", lu(0.5, 8.0), "--z", lu(0.0, 15.0)),
        "lemma6": est_lemma6,
    }
    for kind, draw in estimates.items():
        pool.strata("estimate", f"estimate.{kind}", 2, lambda draw=draw: {"argv": draw()})

    def exact_theta():
        x = lu(5.0, 6.0)
        return _argv("exact", "theta", "--x", x, "--y", rng.uniform(2.0, 200.0), "--z",
                     lu(0.0, math.log10(x)))

    exacts = {
        "theta": exact_theta,
        "psi": lambda: _argv("exact", "psi", "--x", lu(5.0, 6.0), "--y", lu(0.5, 3.0)),
        "phi": lambda: _argv("exact", "phi", "--x", lu(5.0, 6.0), "--y", lu(0.5, 2.5)),
        "s": lambda: _argv("exact", "s", "--y", lu(0.5, 3.0), "--z", lu(5.0, 6.0)),
        "smoothpart": lambda: _argv("exact", "smoothpart", "--n", str(rng.randint(1, 10**6)),
                                    "--y", str(rng.randint(2, 1000))),
    }
    for kind, draw in exacts.items():
        pool.strata("exact", f"exact.{kind}", 6, lambda draw=draw: {"argv": draw()})

    def compare():
        kind = rng.choice(["theta", "psi-h", "psi-s", "phi", "s", "lemma6"])
        xs = sorted(_g(lu(5.0, 6.0)) for _ in range(rng.randint(2, 3)))
        argv = ["compare", "--kind", kind, "--x", ",".join(f"{x:.12g}" for x in xs)]
        if kind == "theta":
            u = rng.uniform(3.0, 6.0)
            return argv + _argv("--u", u, "--v", rng.uniform(1.2, u - 1.0))
        if kind in ("psi-h", "psi-s"):
            return argv + _argv("--u", rng.uniform(2.0, 4.0))
        if kind == "phi":
            return argv + _argv("--y", rng.uniform(5.0, 100.0))
        if kind == "s":
            return argv + _argv("--y", lu(1.0, 3.0), "--z", lu(1.0, 4.0))
        return argv + _argv("--y", rng.uniform(20.0, 100.0), "--z", lu(0.5, 2.0))

    pool.strata("compare", "compare", 8, lambda: {"argv": compare()})

    k, l, m = HEADLINE
    pool.add("dsa-risk", None, argv=_argv("dsa-risk", "--k", str(k), "--l", str(l), "--m", str(m)))

    def dsa():
        k, l, m = _dsa_triple(rng, 2.0, 60.0)
        return {"argv": _argv("dsa-risk", "--k", str(k), "--l", str(l), "--m", str(m))}

    pool.strata("dsa-risk", "dsa-risk", 8, dsa)

    def dsa_empirical():
        k = rng.randint(30, 62)
        l = rng.randint(8, 14)
        m = rng.randint(l, min(k - 1, 3 * l))
        return {"argv": _argv("dsa-risk", "--k", str(k), "--l", str(l), "--m", str(m),
                              "--empirical", str(rng.randint(4096, 32768)),
                              "--seed", str(rng.randint(0, 2**31)))}

    pool.strata("dsa-risk", "dsa-risk.empirical", 4, dsa_empirical)

    def validate(suites):
        def draw():
            seed = rng.choice([None, rng.randint(0, 2**31)])
            argv = ["validate", rng.choice(suites)]
            return {"argv": argv + (["--seed", str(seed)] if seed is not None else [])}
        return draw

    pool.strata("validate", "validate.tables", 1, validate(["special", "convolution"]))
    pool.strata("validate", "validate.sieve", 1, validate(["estimators", "oracle"]))

    # Documented error classes: usage errors exit 2, domain errors exit 4.
    usage = [
        lambda: _argv("estimate", "theta", "--x", lu(4.0, 20.0), "--y", lu(1.0, 3.0)),
        lambda: _argv("exact", "psi", "--x", lu(3.0, 5.0)),
        lambda: _argv("compare", "--x", f"{lu(4.0, 5.0):.6g},abc", "--u", "3"),
        lambda: _argv("compare", "--x", lu(4.0, 5.0), "--u", "3", "--y", "10"),
        lambda: _argv("exact", "theta", "--x", lu(4.0, 6.0), "--y", "100", "--z", "50",
                      "--limit", "10"),
        lambda: _argv("special", "--fn", "sigma", "--u", rng.uniform(0.0, 10.0)),
        lambda: _argv("dsa-risk", "--k", str(rng.randint(64, 4096))),
    ]
    domain = [
        lambda: _argv("special", "--fn", "rho1", "--u", -rng.uniform(0.0, 10.0)),
        lambda: _argv("special", "--fn", "rho2", "--u", rng.uniform(0.1, 1.0)),
        lambda: _argv("estimate", "theta", "--x", rng.uniform(0.5, 2.9), "--y", "100",
                      "--z", "10"),
        lambda: _argv("estimate", "phi", "--x", lu(1.0, 2.5), "--y", lu(3.0, 4.0)),
        lambda: _argv("estimate", "s", "--y", rng.uniform(0.5, 2.9), "--z", "10"),
        lambda: _argv("dsa-risk", "--k", "1", "--l", "1", "--m", "1"),
        lambda: _argv("exact", "smoothpart", "--n", "0", "--y", str(rng.randint(2, 100))),
    ]
    pool.strata("error", "error.usage", 2, lambda: {"argv": rng.choice(usage)()})
    pool.strata("error", "error.domain", 2, lambda: {"argv": rng.choice(domain)()})
    return pool.entries


_POOLS = {
    "estimate-sweep": _estimate_sweep_pool,
    "exact-grid": _exact_grid_pool,
    "cli-mix": _cli_mix_pool,
}


def make_pool(workload: str) -> list[dict]:
    """The workload's input pool; a fixed function of ``POOL_SEED``."""
    return _POOLS[workload](random.Random(f"{POOL_SEED}/{workload}"))


# -- seeded rounds ---------------------------------------------------------------------


class Rounds:
    """The op sequence for one seed; ``rounds(i)`` is round ``i``.

    A round is every fixed entry, in pool order, then one entry per
    stratum, in seeded order.  Each stratum walks a seeded permutation of
    its candidates, so every candidate runs once per ``CANDIDATES`` rounds
    and runs of any seed do nearly the same work.
    """

    def __init__(self, entries: list[dict], seed: int):
        rng = random.Random(seed)
        strata: dict[str, list[dict]] = {}
        for e in entries:
            if e["stratum"] is not None:
                strata.setdefault(e["stratum"], []).append(e)
        self.seed = seed
        self.fixed = [e for e in entries if e["stratum"] is None]
        self.strata = [rng.sample(members, len(members)) for _, members in sorted(strata.items())]

    def __call__(self, index: int) -> list[dict]:
        drawn = [members[index % len(members)] for members in self.strata]
        random.Random(f"{self.seed}/{index}").shuffle(drawn)
        return self.fixed + drawn


def tiny_round(entries: list[dict]) -> list[dict]:
    """The first fixed or stratum-0 entry of each kind, for smoke tests."""
    seen: dict[str, dict] = {}
    for e in entries:
        if e["stratum"] is None or e["stratum"].endswith(".0"):
            seen.setdefault(e["kind"], e)
    return list(seen.values())


# -- execution -------------------------------------------------------------------------


class Context:
    """Package modules and shared state the ops run against."""

    def __init__(self, workload: str):
        from smoothdiv import cli, convolution, estimators, oracle, special, validation
        from smoothdiv.params import DsaParams, ScaledParams

        self.modules = {"special": special, "convolution": convolution,
                        "estimators": estimators, "oracle": oracle,
                        "validation": validation, "cli": cli}
        self.DsaParams, self.ScaledParams = DsaParams, ScaledParams
        self.workload = workload
        self.sieve = None

    def setup(self) -> None:
        """Build what the first op needs: the default tables and, for
        exact-grid, the shared sieve."""
        special, oracle = self.modules["special"], self.modules["oracle"]
        special.default_dickman()
        special.default_buchstab()
        if self.workload == "exact-grid":
            self.sieve = oracle.build_sieve(EXACT_GRID_SIEVE)


def _estimate(r) -> dict:
    return {"main": float(r.main_term), "second": float(r.second_term),
            "envelope": float(r.error_envelope), "in_domain": bool(r.in_theorem_domain)}


def _run_estimate_sweep(ctx: Context, kind: str, p: dict) -> dict:
    est = ctx.modules["estimators"]
    if kind == "eta":
        return {"eta": float(est.eta(ctx.DsaParams(p["k"], p["l"], p["m"])))}
    if kind == "theta":
        return _estimate(est.theta_estimate(ctx.ScaledParams(p["x"], p["y"], p["z"])))
    if kind == "s":
        return _estimate(est.s_estimate(p["y"], p["z"]))
    if kind == "psi":
        return _estimate(est.psi_estimate_saias(p["x"], p["y"]))
    if kind == "phi":
        return _estimate(est.phi_estimate(p["x"], p["y"]))
    raise ValueError(f"unknown estimate-sweep kind {kind!r}")


def _run_exact_grid(ctx: Context, kind: str, p: dict) -> dict:
    est, orc, t = ctx.modules["estimators"], ctx.modules["oracle"], ctx.sieve
    if kind == "theta":
        x, y, z = p["x"], p["y"], p["z"]
        return {"exact": int(orc.theta_exact(x, y, z, t)),
                "decomposed": int(orc.theta_exact_decomposed(x, y, z, t)),
                **_estimate(est.theta_estimate(ctx.ScaledParams(x, y, z)))}
    if kind == "psi":
        x, y = p["x"], p["y"]
        return {"exact": int(orc.psi_exact(x, y, t)),
                **_estimate(est.psi_estimate_saias(x, y)),
                **{f"first_order_{k}": v
                   for k, v in _estimate(est.psi_estimate_hildebrand(x, y)).items()}}
    if kind == "phi":
        x, y = p["x"], p["y"]
        return {"exact": int(orc.phi_exact(x, y, t)), **_estimate(est.phi_estimate(x, y))}
    if kind == "s":
        y, z = p["y"], p["z"]
        return {"exact": float(orc.s_exact(y, z, t)), **_estimate(est.s_estimate(y, z))}
    if kind == "weighted_sum":
        sp = ctx.ScaledParams(p["x"], p["y"], p["z"])
        return {"omega_sum": float(orc.weighted_smooth_sum(sp, orc.WeightKind.BUCHSTAB_OMEGA, t)),
                "rho_sum": float(orc.weighted_smooth_sum(sp, orc.WeightKind.DICKMAN_RHO, t)),
                **_estimate(est.lemma6_estimate(sp)),
                "lemma4_bound": float(est.lemma4_bound(sp))}
    if kind == "eta_empirical":
        d = ctx.DsaParams(p["k"], p["l"], p["m"])
        emp, se = orc.eta_empirical(d, p["samples"], p["seed"], t)
        return {"empirical": float(emp), "std_err": float(se), "eta": float(est.eta(d))}
    raise ValueError(f"unknown exact-grid kind {kind!r}")


def _run_cli(ctx: Context, kind: str, p: dict) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = ctx.modules["cli"].main(list(p["argv"]))
        except SystemExit as exc:  # argparse exits 2 on bad argv
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


_RUNNERS = {
    "estimate-sweep": _run_estimate_sweep,
    "exact-grid": _run_exact_grid,
    "cli-mix": _run_cli,
}


def run_op(ctx: Context, entry: dict) -> dict:
    return _RUNNERS[ctx.workload](ctx, entry["kind"], entry["params"])


# -- output checks -----------------------------------------------------------------------


def close(got, want, scale: float = 1.0) -> bool:
    """Equal for ints, bools and strings; within the quadrature tolerance
    (absolute part scaled by ``scale``) for floats."""
    if isinstance(want, (bool, int, str)):
        return type(got) is type(want) and got == want
    if not isinstance(got, float):
        return False
    if got == want:
        return True
    return abs(got - want) <= max(ABS_TOL * scale, REL_TOL * abs(want))


def _close_dicts(got: dict, want: dict, scale: float) -> bool:
    return got.keys() == want.keys() and all(close(got[k], want[k], scale) for k in want)


def _decimal(s: str):
    """A CLI decimal string as int when it is one, else float."""
    try:
        return int(s)
    except ValueError:
        return float(s)


def _x_scale(kind: str, params: dict) -> float:
    return abs(float(params["x"])) if kind in X_SCALED and "x" in params else 1.0


def _check_cli(ctx: Context, entry: dict, got: dict) -> bool:
    want = entry["expected"]
    if got["exit"] != want["exit"]:
        return False
    if want["exit"] != 0:
        return got["stdout"] == ""
    argv = entry["params"]["argv"]
    text = got["stdout"]
    if argv[0] == "validate":
        lines = text.splitlines()
        return (lines[-1] == want["stdout"].splitlines()[-1]
                and all(line.startswith("PASS ") for line in lines[:-1]))
    doc, gold = json.loads(text), json.loads(want["stdout"])
    if argv[0] == "compare":
        if doc.get("schema") != "smoothdiv/comparison-report/1" or doc.keys() != gold.keys():
            return False
        kind = argv[argv.index("--kind") + 1]
        if len(doc["rows"]) != len(gold["rows"]):
            return False
        for row, gold_row in zip(doc["rows"], gold["rows"]):
            if row["params"] != gold_row["params"] or row["in_domain"] != gold_row["in_domain"]:
                return False
            scale = _x_scale(kind, {"x": row["params"]["x"]})
            if not all(close(_decimal(row[k]), _decimal(gold_row[k]), scale)
                       for k in ("exact", "estimate", "envelope")):
                return False
        return True
    ctx.modules["cli"].validate_output_record(doc)
    if (doc["command"], doc["inputs"], doc["flags"]) != (gold["command"], gold["inputs"],
                                                         gold["flags"]):
        return False
    kind = doc["command"].split()[-1]
    scale = _x_scale(kind, doc["inputs"]) if doc["command"].startswith("estimate") else 1.0
    return _close_dicts({k: _decimal(v) for k, v in doc["outputs"].items()},
                        {k: _decimal(v) for k, v in gold["outputs"].items()}, scale)


def check_op(ctx: Context, entry: dict, got: dict) -> bool:
    """True when ``got`` matches the recorded output and the op's invariants."""
    if ctx.workload == "cli-mix":
        return _check_cli(ctx, entry, got)
    kind, p = entry["kind"], entry["params"]
    if not _close_dicts(got, entry["expected"], _x_scale(kind, p)):
        return False
    if kind == "theta" and "decomposed" in got and got["exact"] != got["decomposed"]:
        return False
    if kind == "eta" and (p["k"], p["l"], p["m"]) == HEADLINE:
        return abs(got["eta"] - HEADLINE_ETA) <= HEADLINE_TOL
    return True
