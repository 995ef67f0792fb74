"""Record the outputs the benchmark checks against.

    python3 perfbench/make_golden.py [workload ...]

Runs every pool entry once against the package in ``src/`` and writes
``perfbench/golden/<workload>.json``.  Rerun it only when the benchmark's
pools change; a change to the package must reproduce the recorded outputs
(see ``workloads.check_op``), which is what the benchmark's ``correct`` field
reports.  Prints each stratum's op times, which is how the strata were
balanced.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

from worker import HERE, import_package


def record(workload: str) -> None:
    import workloads

    ctx = workloads.Context(workload)
    ctx.setup()
    entries = workloads.make_pool(workload)
    times: dict[str, list[float]] = {}
    for entry in entries:
        t0 = time.perf_counter()
        entry["expected"] = workloads.run_op(ctx, entry)
        times.setdefault(entry["stratum"] or f"fixed:{entry['kind']}", []).append(
            time.perf_counter() - t0)
        if not workloads.check_op(ctx, entry, entry["expected"]):
            raise SystemExit(f"{workload} {entry['id']} fails its own invariants")
    path = HERE / "golden" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"pool_seed": workloads.POOL_SEED, "entries": entries},
                               indent=0) + "\n")
    print(f"{workload}: {len(entries)} entries -> {path.relative_to(Path.cwd())}")
    for stratum, ts in times.items():
        per_round = sum(ts) if stratum.startswith("fixed:") else sum(ts) / len(ts)
        print(f"  {stratum:28s} n={len(ts):3d} min={min(ts):8.4f} max={max(ts):8.4f} "
              f"per_round={per_round:8.4f}")


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    import_package(Path.cwd())
    import workloads as _w

    for name in sys.argv[1:] or _w.WORKLOADS:
        record(name)
