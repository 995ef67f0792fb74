"""One workload process: set up, run the timed closed loop, check outputs.

Started by ``run.py`` from the checkout root.  It prints ``ready`` once the
first op can run (``run.py`` times that line to get ``setup_s``) and, unless
``--setup-only`` is given, a JSON summary as its last stdout line.

Closed loop, one client, one thread: each op starts when the previous one
has returned.  Ops run in whole rounds (see ``workloads.Rounds``); a new
round starts only while the rounds so far, extrapolated by one more, fit in
``--seconds``, so every run does the same mix of work.  With ``--trace 1``
the loop instead runs a fixed number of rounds twice, untraced and then
traced, so the per-layer counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Rounds per pass of a traced run: a few seconds of work, and for
# exact-grid its single round, which holds the slow corners.
TRACE_ROUNDS = {"estimate-sweep": 10, "exact-grid": 1, "cli-mix": 4}


def import_package(root: Path):
    """Import smoothdiv from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "smoothdiv" / "__init__.py").is_file():
        raise SystemExit(f"no smoothdiv sources under {src}")
    sys.path.insert(0, str(src))
    import smoothdiv

    if Path(smoothdiv.__file__).resolve().parent != (src / "smoothdiv").resolve():
        raise SystemExit(f"imported smoothdiv from {smoothdiv.__file__}, not {src}")
    return smoothdiv


def load_golden(workload: str) -> list[dict]:
    """Pool entries with their recorded outputs, checked against the generator."""
    import workloads

    golden = json.loads((HERE / "golden" / f"{workload}.json").read_text())
    entries = golden["entries"]
    pool = workloads.make_pool(workload)
    if [(e["id"], e["kind"], e["stratum"], e["params"]) for e in pool] != [
            (e["id"], e["kind"], e["stratum"], e["params"]) for e in entries]:
        raise SystemExit(f"golden/{workload}.json does not match the pool generator")
    return entries


def run_loop(ctx, next_round, seconds: float | None = None, rounds: int | None = None):
    """Run whole rounds; returns ([(entry, output, error, latency_s)], elapsed_s, rounds)."""
    import workloads

    clock = time.perf_counter
    records = []
    done = 0
    start = clock()
    while True:
        for entry in next_round(done):
            t0 = clock()
            try:
                out, err = workloads.run_op(ctx, entry), None
            except Exception as exc:  # a failing op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            records.append((entry, out, err, clock() - t0))
        done += 1
        elapsed = clock() - start
        if rounds is not None:
            if done >= rounds:
                break
        elif elapsed * (done + 1) / done > seconds:
            break
    return records, elapsed, done


def check_records(ctx, records) -> list[str]:
    """Ids and reasons of the ops whose output is wrong or that raised."""
    import workloads

    failures = []
    for entry, out, err, _ in records:
        if err is None:
            try:
                if not workloads.check_op(ctx, entry, out):
                    err = "output differs from the recorded one"
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{entry['id']}: {err}")
    return failures


def end_to_end(records, elapsed: float, failures: list[str]) -> dict[str, float]:
    """The timed loop's metrics; set-up time and memory are measured apart."""
    cuts = statistics.quantiles([1e3 * r[3] for r in records], n=10, method="inclusive")
    return {
        "ops_per_s": len(records) / elapsed,
        "latency_p50_ms": cuts[4],
        "latency_p90_ms": cuts[8],
        "ok_ops_ratio": (len(records) - len(failures)) / len(records),
    }


def kind_seconds(records) -> dict[str, float]:
    out: dict[str, float] = {}
    for entry, _, _, latency in records:
        out[entry["kind"]] = out.get(entry["kind"], 0.0) + latency
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="one op per kind, for smoke tests")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    import_package(Path.cwd())
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    ctx = workloads.Context(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(ctx.modules)
    ctx.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if tracer:
        tracer.uninstall()

    entries = load_golden(args.workload)
    tiny = workloads.tiny_round(entries)
    if args.tiny:
        def next_round(i):
            return tiny
    else:
        next_round = workloads.Rounds(entries, args.seed)

    for entry in tiny:  # warm lazy caches; untimed and unchecked
        try:
            workloads.run_op(ctx, entry)
        except Exception:
            pass

    summary = {}
    if tracer:
        rounds = 1 if args.tiny else TRACE_ROUNDS[args.workload]
        records, elapsed, done = run_loop(ctx, next_round, rounds=rounds)
        tracer.install(ctx.modules)
        traced, traced_elapsed, _ = run_loop(ctx, next_round, rounds=rounds)
        tracer.uninstall()
        summary["kind_seconds"] = kind_seconds(records)
        summary["overhead_ratio"] = (len(traced) / traced_elapsed) / (len(records) / elapsed)
        summary["sites"] = tracer.sites
        summary["errors"] = tracer.errors
        failures = check_records(ctx, records) + check_records(ctx, traced)
        attempted = len(records) + len(traced)
    else:
        records, elapsed, done = run_loop(ctx, next_round, seconds=args.seconds)
        failures = check_records(ctx, records)
        attempted = len(records)
        summary.update(end_to_end(records, elapsed, failures))

    import numpy
    import scipy

    summary.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": done,
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
