"""Benchmark trajectory tracking: collect, append, gate.

The benchmark suite (``benchmarks/test_bench_*.py``) measures wall
clock — which this module, living inside the deterministic runtime,
must never do (reprolint RL001 bans clock calls under ``runtime/``).
The division of labor is therefore strict:

* benchmarks **measure** and drop one ``BENCH_<suite>.json`` per suite
  into a scratch directory (``pytest benchmarks/ --bench-json DIR``),
  written atomically through :func:`write_bench_json`;
* this module **bookkeeps**: it collects those per-suite summaries into
  one trajectory entry, appends it to the committed
  ``BENCH_trajectory.json`` (one entry per PR), and gates CI on
  throughput regressions against the previous entry.

Timestamps and labels are *inputs* (CI passes the commit SHA and date);
nothing here reads a clock or draws randomness, so the module itself
stays replayable.

CLI (used by the ``bench-trajectory`` CI job)::

    python -m repro.runtime.benchtrack append \\
        --dir bench-json --label pr8 --timestamp 2026-08-07
    python -m repro.runtime.benchtrack gate

``append`` exits 2 on usage errors (missing suite files); ``gate``
exits 1 when any watched metric in the newest entry fell more than
``--tolerance`` (default 20%) below the previous entry.
See ``docs/PERFORMANCE.md`` for how to read the trajectory file.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Mapping, Sequence

from .journal import atomic_write_text

__all__ = [
    "TRAJECTORY_FILE",
    "GATE_METRICS",
    "REGRESSION_TOLERANCE",
    "write_bench_json",
    "collect_bench_results",
    "build_entry",
    "load_trajectory",
    "append_entry",
    "check_regression",
    "main",
]

#: the committed trajectory file, repo-root relative
TRAJECTORY_FILE = "BENCH_trajectory.json"

#: throughput metrics the regression gate watches (higher is better),
#: mapped to the per-suite summary that produces them
GATE_METRICS: dict[str, tuple[str, str]] = {
    # Completed service requests per wall second.  It replaced
    # events_per_sec, which falls whenever a change does the same
    # simulated work in fewer DES events (the macro-stepped ICAP
    # configure cut ~80% of them while doubling request throughput).
    # BENCH_service.json still records events_per_sec.
    "requests_per_sec": ("service", "requests_per_sec"),
    "grid_points_per_sec_serial": ("hybrid", "grid_points_per_sec_serial"),
    # DES-basis parallel throughput: serial and workers-4 walls measured
    # on the *same* DES-forced grid.  The retired
    # grid_points_per_sec_workers4 metric compared unlike bases — an
    # analytically-answered grid (microseconds per point) against fork
    # startup — so it gated on process-spawn latency, not sweep
    # throughput.  Entries recorded before the split keep the old key;
    # the gate compares like with like and skips one-sided metrics.
    "des_points_per_sec_workers4": (
        "hybrid", "des_points_per_sec_workers4"
    ),
    "hybrid_speedup": ("hybrid", "hybrid_speedup"),
    "power_points_per_sec": ("power", "power_points_per_sec"),
    # warm-cache reprolint throughput (benchmarks/test_bench_lint.py):
    # guards the whole-program analyzer against superlinear growth as
    # the tree and the rule set expand together.
    "lint_files_per_sec": ("lint", "lint_files_per_sec"),
}

#: maximum tolerated relative drop per metric vs the previous entry
REGRESSION_TOLERANCE = 0.20


def write_bench_json(directory: str, name: str, payload: Mapping[str, Any]) -> str:
    """Atomically write one ``BENCH_<name>.json`` summary; returns its path.

    Routed through :func:`~repro.runtime.journal.atomic_write_text`
    (write-to-temp + fsync + rename) so a benchmark run killed
    mid-write never leaves a torn summary for the collector to choke
    on.  No-op (returns ``""``) when ``directory`` is empty — the
    benchmarks' opt-in convention.
    """
    if not directory:
        return ""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return path


def collect_bench_results(directory: str) -> dict[str, dict[str, Any]]:
    """Read every ``BENCH_*.json`` in ``directory``, keyed by suite name."""
    results: dict[str, dict[str, Any]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        suite = os.path.basename(path)[len("BENCH_"):-len(".json")]
        with open(path, encoding="utf-8") as fh:
            results[suite] = json.load(fh)
    return results


def build_entry(
    label: str,
    results: Mapping[str, Mapping[str, Any]],
    *,
    timestamp: str = "",
) -> dict[str, Any]:
    """One trajectory entry from the collected per-suite summaries.

    Pulls each :data:`GATE_METRICS` value out of its producing suite's
    summary; a missing suite or key becomes ``None`` (recorded, but
    skipped by the gate) so a partial benchmark run still appends an
    honest entry rather than failing or inventing numbers.
    """
    metrics: dict[str, float | None] = {}
    for metric, (suite, key) in GATE_METRICS.items():
        value = results.get(suite, {}).get(key)
        metrics[metric] = float(value) if value is not None else None
    return {
        "label": label,
        "timestamp": timestamp,
        "metrics": metrics,
        "suites": sorted(results),
    }


def load_trajectory(path: str) -> dict[str, Any]:
    """The trajectory document (``{"version": 1, "entries": [...]}``)."""
    if not os.path.exists(path):
        return {"version": 1, "entries": []}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc.get("entries"), list):
        raise ValueError(f"{path!r} is not a trajectory file")
    return doc


def append_entry(path: str, entry: Mapping[str, Any]) -> dict[str, Any]:
    """Append ``entry`` to the trajectory at ``path`` (atomic rewrite).

    Re-running the collector for the same ``label`` (a force-pushed PR
    branch, a re-triggered CI job) *replaces* that label's entry
    instead of duplicating it, so the trajectory stays one entry per
    PR.
    """
    doc = load_trajectory(path)
    doc["entries"] = [
        e for e in doc["entries"] if e.get("label") != entry["label"]
    ]
    doc["entries"].append(dict(entry))
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def check_regression(
    entries: Sequence[Mapping[str, Any]],
    tolerance: float = REGRESSION_TOLERANCE,
) -> list[str]:
    """Violation messages for the newest entry vs its predecessor.

    A metric regresses when both entries have it and the new value is
    below ``(1 - tolerance)`` times the old one.  Metrics absent from
    either side are skipped: the gate compares like with like and never
    blocks on a suite that did not run.
    """
    if len(entries) < 2:
        return []
    prev, curr = entries[-2], entries[-1]
    violations: list[str] = []
    for metric in GATE_METRICS:
        old = prev.get("metrics", {}).get(metric)
        new = curr.get("metrics", {}).get(metric)
        if old is None or new is None:
            continue
        if new < old * (1.0 - tolerance):
            violations.append(
                f"{metric}: {new:.4g} is {(1.0 - new / old):.1%} below "
                f"{prev.get('label', 'previous')!r} ({old:.4g}); "
                f"tolerance is {tolerance:.0%}"
            )
    return violations


def _cmd_append(args: argparse.Namespace) -> int:
    results = collect_bench_results(args.dir)
    if not results:
        print(
            f"benchtrack: no BENCH_*.json under {args.dir!r} — run "
            f"`pytest benchmarks/ --bench-json {args.dir}` first",
            file=sys.stderr,
        )
        return 2
    entry = build_entry(args.label, results, timestamp=args.timestamp)
    doc = append_entry(args.out, entry)
    print(
        f"benchtrack: appended {args.label!r} to {args.out} "
        f"({len(doc['entries'])} entries; suites: "
        f"{', '.join(entry['suites'])})"
    )
    for metric, value in sorted(entry["metrics"].items()):
        shown = "n/a" if value is None else f"{value:.4g}"
        print(f"  {metric:<30} {shown}")
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    doc = load_trajectory(args.out)
    violations = check_regression(doc["entries"], tolerance=args.tolerance)
    if violations:
        for violation in violations:
            print(f"benchtrack: REGRESSION {violation}", file=sys.stderr)
        return 1
    n = len(doc["entries"])
    print(
        f"benchtrack: gate PASS ({n} entr{'y' if n == 1 else 'ies'}, "
        f"tolerance {args.tolerance:.0%})"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.runtime.benchtrack``."""
    parser = argparse.ArgumentParser(
        prog="benchtrack",
        description="collect benchmark summaries, track the throughput "
                    "trajectory, gate CI on regressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "append", help="collect BENCH_*.json and append one entry"
    )
    pa.add_argument(
        "--dir", required=True,
        help="directory the benchmarks wrote BENCH_*.json into",
    )
    pa.add_argument(
        "--label", required=True,
        help="entry label (one per PR; re-append replaces)",
    )
    pa.add_argument(
        "--timestamp", default="",
        help="ISO date/SHA stamp recorded verbatim (this module never "
             "reads a clock)",
    )
    pa.add_argument(
        "--out", default=TRAJECTORY_FILE,
        help=f"trajectory file (default {TRAJECTORY_FILE})",
    )
    pa.set_defaults(fn=_cmd_append)

    pg = sub.add_parser(
        "gate", help="fail if the newest entry regressed vs the previous"
    )
    pg.add_argument(
        "--out", default=TRAJECTORY_FILE,
        help=f"trajectory file (default {TRAJECTORY_FILE})",
    )
    pg.add_argument(
        "--tolerance", type=float, default=REGRESSION_TOLERANCE,
        help="maximum tolerated relative drop (default 0.20)",
    )
    pg.set_defaults(fn=_cmd_gate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
