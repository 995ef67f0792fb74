"""Smoke test for the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q      # from the repository root

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that a failing op is counted and does not stop the
run; and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, stamp_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    stamp = json.loads(stamp_line)["stamp"]
    assert stamp["seed"] == 3 and stamp["ops"] == result["attempted"]


def test_failing_ops_are_counted_and_do_not_stop_the_run():
    warnings.simplefilter("ignore")
    worker.import_package(ROOT)
    ctx = workloads.Context("estimate-sweep")
    ctx.setup()
    ops = workloads.tiny_round(worker.load_golden("estimate-sweep"))
    wrong = dict(ops[0], id="wrong-output", expected={"eta": 0.5})
    raises = dict(ops[0], id="raises", params={"k": 1, "l": 1, "m": 1})
    round_ = [wrong, raises] + ops
    records, _, _ = worker.run_loop(ctx, lambda i: round_, rounds=1)
    assert [r[0]["id"] for r in records] == [e["id"] for e in round_]
    failures = worker.check_records(ctx, records)
    assert [f.split(":")[0] for f in failures] == ["wrong-output", "raises"]
    ratio = worker.end_to_end(records, 1.0, failures)["ok_ops_ratio"]
    assert ratio == (len(round_) - 2) / len(round_)


def test_refuses_to_run_without_the_package():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", SPEC["workloads"][0]["name"],
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
