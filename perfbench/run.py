#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` adds traced batches and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("serve", "sweep-des", "sweep-exact")
#: fresh interpreters timed per run for ``setup_s`` (median reported)
SETUP_REPEATS = {"full": 9, "tiny": 2}
#: timed batches per run, at least (more while ``--seconds`` lasts)
MIN_BATCHES = 3
#: traced batches per ``--trace 1`` run; their counts must agree
TRACED_BATCHES = 2
#: :func:`calibrate` time on the machine the benchmark was defined on
#: (2-vCPU x86-64 sandbox, CPython 3.11); timed end-to-end metrics are
#: host seconds scaled to that machine's speed (see README.md)
REF_CALIBRATION_S = 0.06


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop that does not use ``repro``."""
    start = time.perf_counter()
    heap: list[int] = []
    x = 12345
    for _ in range(100_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, x)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def scaled(raw: float, before: float, after: float) -> float:
    """``raw`` host seconds at the reference machine's speed.

    ``before``/``after`` are :func:`calibrate` times taken right around
    the interval; the machine's momentary speed is their mean.
    """
    return raw * REF_CALIBRATION_S / ((before + after) / 2.0)


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Host seconds from spawning a fresh interpreter until it is ready.

    The probe prints its own ``perf_counter`` (the system-wide monotonic
    clock) once ``repro`` is imported and the inputs are generated, so
    interpreter teardown is not counted.  Process start-up is mostly
    file and page-fault work that the CPU calibration does not track,
    so these times are not scaled.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size,
    ]
    times = []
    for _ in range(SETUP_REPEATS[args.size]):
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def machine_reference(run_dir: Path, calibrations: list[float]) -> dict:
    """Host facts plus the run's calibration loop times.

    Informational only: lets results from different machines be put
    side by side.  Nothing is gated on these values.
    """
    return {
        "calibration_s": statistics.median(calibrations),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "run_dir_fs": _filesystem_of(run_dir),
    }


def _filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            mounts = [line.split() for line in fh]
    except OSError:
        return fstype
    target = str(path.resolve())
    for fields in mounts:
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


class Run:
    """One benchmark invocation: batches, checks, accounting."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        import workloads

        self.wl = workloads
        self.work = work
        self.inputs = workloads.make_inputs(args.workload, args.seed, args.size)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: simulated statistics of the first batch; every batch must match
        self.reference: dict[str, Any] | None = None
        self.checked: Any = None
        self.calibrations: list[float] = []
        self._index = 0

    def batch(self, *, des_sample: bool = False, tracer: Any = None):
        """Run, time and check one batch.

        Returns ``(raw_s, scaled_s, spans)``, or ``None`` when the batch
        raised (counted as failed).
        """
        run_dir = self.wl.new_run_dir(str(self.work), self._index)
        self._index += 1
        gc.collect()
        snap = None
        try:
            before = calibrate()
            if tracer is not None:
                tracer.reset()
            start = time.perf_counter()
            out = self.wl.run(self.inputs, run_dir)
            raw = time.perf_counter() - start
            if tracer is not None:
                snap = tracer.snapshot()
                tracer.reset()
            after = calibrate()
            checked = self.wl.check(self.inputs, out, des_sample=des_sample)
            if tracer is not None:
                snap["check"] = tracer.summary()
        except Exception:  # a raising run is a failed batch, reported
            traceback.print_exc()
            units = self.checked.attempted if self.checked else 1
            self.attempted += units
            self.failed += units
            self.problems.append("a batch raised")
            return None
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        self.calibrations += [before, after]
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems += checked.problems
        if self.reference is None:
            self.reference = checked.stats
            self.checked = checked
        elif checked.stats != self.reference:
            self.problems.append("simulated statistics differ between batches")
            self.failed += checked.attempted
        return raw, scaled(raw, before, after), snap

    def timed(self, seconds: float) -> tuple[list[float], list[float]]:
        """Untraced batches until ``seconds`` of them ran: (raw, scaled)."""
        raw: list[float] = []
        norm: list[float] = []
        while sum(raw) < seconds or len(raw) < MIN_BATCHES:
            result = self.batch()
            if result is None:
                break
            raw.append(result[0])
            norm.append(result[1])
        return raw, norm


def end_to_end(run: Run, walls: list[float], setup: list[float]) -> dict:
    """The end-to-end metrics from scaled batch and set-up times."""
    wall = statistics.median(walls)
    checked = run.checked
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "sim_calls_per_s": checked.sim_calls / wall,
        "points_per_s": checked.points / wall,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }


def traced(run: Run, untraced_wall: float) -> tuple[dict, Any, list[str]]:
    """Traced batches: per-layer metrics, spans, count mismatches."""
    import spans as spanlib

    tracer = spanlib.Tracer()
    tracer.install()
    results = []
    try:
        for _ in range(TRACED_BATCHES):
            result = run.batch(tracer=tracer)
            if result is None:
                break
            results.append(result)
    finally:
        tracer.uninstall()
    if not results:
        return {}, None, []
    problems = []
    counts = [snap["counts"] for _, _, snap in results]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("structural counters differ between traced batches")
    raw, _, snap = results[0]
    layer = spanlib.layer_metrics(
        snap, run.checked, wall=raw,
        overhead=statistics.median(n for _, n, _ in results) / untraced_wall,
    )
    return layer, snap, problems


def describe(values: list[float]) -> str:
    """Median, quartiles and count of a list of times."""
    q1, q2, q3 = quartiles(values)
    return f"median={q2:.6f} q1={q1:.6f} q3={q3:.6f} n={len(values)}"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no repro sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads

        workloads.make_inputs(args.workload, args.seed, args.size)
        print(repr(time.perf_counter()))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run = Run(args, work)
        setup = measure_setup(args)
        # Warm-up batch: fills lazy caches; checked (with the DES
        # sample) like every other batch, but not timed.
        run.batch(des_sample=True)
        raw, walls = run.timed(args.seconds) if run.checked else ([], [])
        machine = machine_reference(work, run.calibrations)
        snap = None
        if not walls:
            values = {}
        elif args.trace:
            values, snap, problems = traced(run, statistics.median(walls))
            run.problems += problems
            run.failed += run.checked.attempted if problems else 0
        else:
            values = end_to_end(run, walls, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not run.problems:
        run.problems.append(f"metrics not computed: {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    correct = not run.problems and run.failed == 0 and not missing

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, values_ in (("wall_s", walls), ("wall_raw_s", raw),
                          ("setup_s", setup)):
        if values_:
            print(f"{name} {describe(values_)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if run.reference is not None:
        print("simulated " + json.dumps(run.reference, sort_keys=True))
    for problem in run.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "walls_s": walls, "walls_raw_s": raw,
        "setup_s": setup,
        "calibrations_s": run.calibrations, "machine": machine,
        "simulated": run.reference, "problems": run.problems,
        "metrics": metrics,
    }
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if snap is not None:
        import spans as spanlib

        spanlib.dump(str(OUT / "results" / f"{stem}-spans.json"),
                     snap["records"],
                     {"workload": args.workload, "seed": args.seed})
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
