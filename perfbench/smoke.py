#!/usr/bin/env python3
"""Smoke test of the benchmark itself; runs in about half a minute.

Usage (from the repository root)::

    python3 perfbench/smoke.py

It runs every workload at the ``tiny`` size, untraced and traced, and
asserts that each run exits 0 and prints every metric declared in
``BENCHMARK.json`` with its unit.  It then perturbs one output of each
workload and asserts that the output check catches it, and finally runs
the benchmark from a directory holding only ``BENCHMARK.json`` and
``perfbench/``, where it must fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "smoke"


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def check_metrics(spec: dict, workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared], label
    printed = {line.split()[1]: line.split()[3]
               for line in lines if line.startswith("metric ")}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
        assert printed.get(m["name"]) == m["unit"], f"{label}: {m['name']}"
    print(f"smoke: {label}: {len(declared)} metrics ok")


def check_perturbations() -> None:
    """A perturbed output must be counted as a failed unit."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    for workload in ("sweep-des", "sweep-exact"):
        inputs = wl.make_inputs(workload, 3, "tiny")
        run_dir = str(SCRATCH / workload)
        out = wl.run(inputs, run_dir)
        assert wl.check(inputs, out).failed == 0, workload
        points = out.value.results
        points[1] = dataclasses.replace(
            points[1], speedup=points[1].speedup * (1 + 1e-12)
        )
        checked = wl.check(inputs, out)
        assert checked.failed == 1, f"{workload}: perturbed point missed"
        print(f"smoke: {workload}: perturbed point caught")

    inputs = wl.make_inputs("serve", 3, "tiny")
    out = wl.run(inputs, "")
    assert wl.check(inputs, out).failed == 0, "serve"
    tenant = out.value[0].tenants[0]
    tenant.completed += 1
    checked = wl.check(inputs, out)
    assert checked.failed >= tenant.arrived, "serve: perturbed tenant missed"
    print("smoke: serve: perturbed tenant caught")


def check_hollow() -> None:
    """Without the program's sources the benchmark must fail cleanly."""
    hollow = SCRATCH / "hollow"
    shutil.copy2(ROOT / "BENCHMARK.json", hollow / "BENCHMARK.json")
    shutil.copytree(HERE, hollow / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(hollow, "serve", 0)
    assert proc.returncode != 0, "hollow checkout exited 0"
    assert '"correct"' not in proc.stdout, "hollow checkout printed a result"
    print("smoke: hollow checkout fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "hollow").mkdir(parents=True)
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                check_metrics(spec, workload, trace)
        check_perturbations()
        check_hollow()
    except AssertionError as exc:
        print(f"smoke: FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
