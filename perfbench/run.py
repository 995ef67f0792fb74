"""smoothdiv benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload estimate-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics named in BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it stamps the run (git sha, Python, numpy, scipy, nproc, seed,
op count).  See perfbench/README.md for the workloads and the metric map.

Set-up is timed from launching a fresh interpreter to its first op, three
times (two set-up-only interpreters plus the measured worker), and the
median is reported.  Exits nonzero without a result when the package
sources, BENCHMARK.json or a worker are missing or fail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUPS = 3
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(worker_args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker; return (seconds until it printed ``ready``, later stdout lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *worker_args],
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(worker_args)} failed (exit {code})")
    return setup_s, rest


def import_times(target: str, deadline: float) -> dict[str, float]:
    """Split ``import <target>`` into scipy and the rest, from -X importtime."""
    code = f"import sys; sys.path.insert(0, 'src'); import {target}"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise BenchError(f"import {target} failed")
    lines = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            lines.append((depth, name.strip(), int(parts[1]) * 1e-6))
    # importtime prints each module after its imports; walk it backwards so
    # parents come first and only the outermost scipy entries are summed.
    scipy_s, total_s, stack = 0.0, 0.0, []
    for depth, name, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == target and not stack:
            total_s = cumulative
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy_s += cumulative
        stack.append((depth, name))
    return {"import.smoothdiv.s": total_s - scipy_s, "import.scipy.s": scipy_s}


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_value(name: str, worker: dict, imports: dict) -> float:
    """Resolve a per-layer metric name against the worker's tracer data."""
    if name in imports:
        return imports[name]
    if name == "trace.overhead_ratio":
        return worker["overhead_ratio"]
    if name.startswith("share."):
        seconds = worker["kind_seconds"]
        return seconds.get(name[len("share."):], 0.0) / sum(seconds.values())
    if name.endswith(".errors"):
        return worker["errors"].get(name.split(".")[0], 0)
    site, counter = name.rsplit(".", 1)
    for path in ("scalar", "vector"):
        if counter.startswith(path + "_"):
            site, counter = f"{site}.{path}", counter[len(path) + 1:]
    data = worker["sites"].get(site, {})
    if counter == "samples_per_s":
        return data["samples"] / data["busy_s"] if data.get("busy_s") else 0.0
    return data.get("busy_s" if counter == "s" else counter, 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="one op per kind and one set-up, for the smoke test")
    args = ap.parse_args(argv)
    root = Path.cwd()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (root / "src" / "smoothdiv" / "__init__.py").is_file():
            raise BenchError("run from the repository root: src/smoothdiv is missing")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            worker_args.append("--tiny")
        if args.trace:
            _, out = run_worker(worker_args, deadline)
            worker = json.loads(out[-1])
            runs = [import_times("smoothdiv.cli", deadline) for _ in range(1 if args.tiny else 3)]
            imports = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
            wanted = spec["per_layer"]
            values = {m["name"]: layer_value(m["name"], worker, imports) for m in wanted}
        else:
            setups = [run_worker(worker_args + ["--setup-only"], deadline)[0]
                      for _ in range(0 if args.tiny else SETUPS - 1)]
            setup_s, out = run_worker(worker_args, deadline)
            worker = json.loads(out[-1])
            wanted = spec["end_to_end"]
            values = {name: worker[name] for name in
                      ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "ok_ops_ratio",
                       "peak_rss_mb")}
            values["setup_s"] = statistics.median(setups + [setup_s])
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for failure in worker["failures"]:
        print(f"failed op {failure}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": int(value) if m["unit"] in ("count", "bytes") else value,
                              "unit": m["unit"]}
    stamp = {
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "numpy": worker["numpy"],
        "scipy": worker["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": worker["attempted"],
        "rounds": worker["rounds"],
        "timed_s": worker["elapsed_s"],
        "p90_valid": worker["attempted"] >= 100,
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": worker["failed"] == 0, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
