"""The three benchmark workloads: inputs, one batch, output checks.

Every input is generated from the ``--seed`` argument; the program only
ever sees the generated inputs.  A workload runs a fixed batch of
simulated work through the public ``repro`` API, so host wall time per
batch is comparable across commits, and :func:`check` verifies every
output of the batch.  Module attributes are looked up at call time
(``crashsafe.crash_safe_fault_sweep``, not a name bound at import) so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import asdict, dataclass, field
from typing import Any

import repro.power.pareto as pareto
import repro.runtime.crashsafe as crashsafe
import repro.runtime.invariants as invariants
import repro.service as service
from repro.hardware.prr import uniform_prr_floorplan
from repro.model.parameters import ModelParameters
from repro.model.speedup import speedup
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import make_node
from repro.service.slo import percentile

#: batch sizes; ``tiny`` is the smoke-test size
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "serve_horizon": 200.0,
        "serve_replications": 3,
        "des_rates": (0.0, 1e-3, 1e-2, 5e-2),
        "des_hit_ratios": 11,
        "des_calls": 200,
        "exact_prrs": (2, 3, 4, 5),
        "exact_hit_ratios": 201,
        "exact_calls": 200,
        "exact_des_sample": 4,
    },
    "tiny": {
        "serve_horizon": 10.0,
        "serve_replications": 2,
        "des_rates": (0.0, 1e-2),
        "des_hit_ratios": 2,
        "des_calls": 12,
        "exact_prrs": (2, 3),
        "exact_hit_ratios": 3,
        "exact_calls": 12,
        "exact_des_sample": 2,
    },
}

#: the task time both sweeps use (the sweep functions' default)
TASK_TIME = 0.1


@dataclass
class Inputs:
    """Everything one workload run needs, generated from the seed."""

    workload: str
    seed: int
    params: dict[str, Any]


@dataclass
class Output:
    """One batch's result plus the run directory it journaled into."""

    value: Any
    run_dir: str | None = None


@dataclass
class Checked:
    """Verdict of :func:`check` on one batch."""

    attempted: int
    failed: int
    #: grid points, or service runs on ``serve``
    points: int
    #: simulated work answered: FRTR+PRTR calls, or completed requests
    sim_calls: int
    #: simulated statistics; must be identical on every batch of a seed
    stats: dict[str, Any]
    problems: list[str] = field(default_factory=list)


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """Generate the inputs of ``workload`` from ``seed``."""
    s = SIZES[size]
    if workload == "serve":
        # Independent replications average out how much work one
        # arrival realization happens to carry.
        k = s["serve_replications"]
        params = {
            "tenants": service.default_tenants(),
            "config": service.ServiceConfig(horizon=s["serve_horizon"]),
            "seeds": [seed * k + r for r in range(k)],
        }
    elif workload == "sweep-des":
        n = s["des_hit_ratios"]
        params = {
            "rates": list(s["des_rates"]),
            "hit_ratios": [k / (n - 1) for k in range(n)],
            "n_calls": s["des_calls"],
        }
    elif workload == "sweep-exact":
        # Distinct hit ratios on a 1e-5 grid, drawn from the seed.
        rng = random.Random(seed)
        draws = rng.sample(range(100_001), s["exact_hit_ratios"])
        params = {
            "prrs": list(s["exact_prrs"]),
            "hit_ratios": [d / 100_000 for d in sorted(draws)],
            "n_calls": s["exact_calls"],
            "des_sample": s["exact_des_sample"],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, params)


def units(inputs: Inputs) -> int:
    """Grid points of a sweep batch."""
    p = inputs.params
    if inputs.workload == "sweep-des":
        return len(p["rates"]) * len(p["hit_ratios"])
    return len(p["prrs"]) * len(p["hit_ratios"])


def run(inputs: Inputs, run_dir: str) -> Output:
    """Run one batch (the timed region)."""
    p = inputs.params
    if inputs.workload == "serve":
        return Output([
            service.run_service(p["tenants"], p["config"], seed=seed)
            for seed in p["seeds"]
        ])
    if inputs.workload == "sweep-des":
        return Output(
            crashsafe.crash_safe_fault_sweep(
                run_dir, p["rates"], p["hit_ratios"],
                n_calls=p["n_calls"], task_time=TASK_TIME,
                seed=inputs.seed, hybrid="off",
            ),
            run_dir,
        )
    return Output(
        pareto.crash_safe_power_sweep(
            run_dir, p["prrs"], p["hit_ratios"],
            n_calls=p["n_calls"], task_time=TASK_TIME,
            seed=inputs.seed, hybrid="on",
        ),
        run_dir,
    )


def resume(inputs: Inputs, run_dir: str) -> Any:
    """A ``resume=True`` pass over a finished sweep's run directory."""
    p = inputs.params
    if inputs.workload == "sweep-des":
        return crashsafe.crash_safe_fault_sweep(
            run_dir, p["rates"], p["hit_ratios"],
            n_calls=p["n_calls"], task_time=TASK_TIME,
            seed=inputs.seed, hybrid="off", resume=True,
        )
    return pareto.crash_safe_power_sweep(
        run_dir, p["prrs"], p["hit_ratios"],
        n_calls=p["n_calls"], task_time=TASK_TIME,
        seed=inputs.seed, hybrid="on", resume=True,
    )


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _point_bytes(points: list[Any]) -> list[bytes]:
    return [json.dumps(asdict(pt), sort_keys=True).encode() for pt in points]


def check(
    inputs: Inputs, out: Output, *, des_sample: bool = False
) -> Checked:
    """Verify every output of one batch; count failed units.

    ``des_sample`` (``sweep-exact`` only) also re-runs a seeded sample
    of the replayed cells with ``hybrid="off"`` and compares with ``==``.
    """
    if inputs.workload == "serve":
        return _check_serve(out.value)
    return _check_sweep(inputs, out, des_sample)


def _check_serve(results: list[Any]) -> Checked:
    problems: list[str] = []
    failed = 0
    for i, result in enumerate(results):
        failed_tenants = set()
        report = invariants.audit_service(result)
        if not report.ok:
            problems += [f"run {i}: {v}" for v in report.violations]
            failed_tenants = {t.name for t in result.tenants}
        if result.interrupted:
            problems.append(f"run {i} interrupted: {result.interrupted}")
            failed_tenants = {t.name for t in result.tenants}
        for t in result.tenants:
            if t.arrived != t.completed + t.shed_total + t.in_flight:
                problems.append(
                    f"run {i}: tenant {t.name}: arrived {t.arrived} != "
                    f"completed {t.completed} + shed {t.shed_total} + "
                    f"in-flight {t.in_flight}"
                )
                failed_tenants.add(t.name)
        failed += sum(
            t.arrived for t in result.tenants if t.name in failed_tenants
        )
    tenants = [t for result in results for t in result.tenants]
    latencies = [v for t in tenants for v in t.latencies]
    decided = sum(sum(t.decisions.values()) for t in tenants)
    shed_decided = sum(t.decisions.get("shed", 0) for t in tenants)
    hits = sum(r.cache_hits for r in results)
    lookups = hits + sum(r.cache_misses for r in results)
    completed = sum(t.completed for t in tenants)
    stats = {
        "tenants": [
            (t.name, t.arrived, t.completed, t.shed_total, t.in_flight,
             t.preemptions, t.configs, sorted(t.decisions.items()))
            for t in tenants
        ],
        "events": sum(int(r.notes["events"]) for r in results),
        "makespans": [r.makespan for r in results],
        "fills": sum(r.fills for r in results),
        "completed": completed,
        "arrived": sum(t.arrived for t in tenants),
        "preemptions": sum(t.preemptions for t in tenants),
        "p99_latency_s": percentile(latencies, 99.0) if latencies else 0.0,
        "admit_ratio": (decided - shed_decided) / decided if decided else 0.0,
        "hit_ratio": hits / lookups if lookups else 0.0,
        "latency_digest": _digest(latencies),
    }
    return Checked(
        attempted=stats["arrived"],
        failed=failed,
        points=len(results),
        sim_calls=completed,
        stats=stats,
        problems=problems,
    )


def _check_sweep(inputs: Inputs, out: Output, des_sample: bool) -> Checked:
    outcome = out.value
    points = list(outcome.points)
    n = units(inputs)
    problems: list[str] = []
    bad: set[int] = set()
    if len(points) != n:
        problems.append(f"{len(points)} points for a {n}-point grid")
        bad.update(range(n))
    if not outcome.complete:
        problems.append(f"sweep interrupted: {outcome.interrupted}")
        bad.update(range(n))
    if not outcome.audit.ok:
        problems += [str(v) for v in outcome.audit.violations]
        bad.update(range(n))
    if not outcome.journal.sealed:
        problems.append("journal not sealed")
        bad.update(range(n))
    journal_path = outcome.journal.path
    with open(journal_path, "rb") as fh:
        journal_bytes = fh.read()
    again = resume(inputs, out.run_dir)
    with open(journal_path, "rb") as fh:
        if fh.read() != journal_bytes:
            problems.append("resume pass rewrote the journal")
            bad.update(range(n))
    if again.computed_points:
        problems.append(f"resume recomputed {again.computed_points} points")
        bad.update(range(n))
    problems += check_points(points, list(again.points), bad)
    if des_sample and inputs.workload == "sweep-exact":
        problems += _check_des_sample(inputs, points, bad)
    stats = _sweep_stats(inputs, points, outcome.journal, journal_bytes)
    p = inputs.params
    return Checked(
        attempted=n,
        failed=len(bad),
        points=n,
        sim_calls=2 * p["n_calls"] * len(points),
        stats=stats,
        problems=problems,
    )


def check_points(
    points: list[Any], reference: list[Any], bad: set[int]
) -> list[str]:
    """Byte-compare ``points`` with ``reference``; mark mismatches bad."""
    problems = []
    mine, theirs = _point_bytes(points), _point_bytes(reference)
    for i in range(max(len(mine), len(theirs))):
        a = mine[i] if i < len(mine) else None
        b = theirs[i] if i < len(theirs) else None
        if a != b:
            problems.append(f"point {i} differs from the resumed point")
            bad.add(i)
    return problems


def _check_des_sample(
    inputs: Inputs, points: list[Any], bad: set[int]
) -> list[str]:
    p = inputs.params
    rng = random.Random(inputs.seed)
    k = min(p["des_sample"], len(points))
    problems = []
    for i in sorted(rng.sample(range(len(points)), k)):
        pt = points[i]
        des = pareto.measure_power_point(
            pt.n_prrs, pt.target_hit_ratio, n_calls=p["n_calls"],
            task_time=TASK_TIME, seed=inputs.seed, hybrid="off",
        )
        if des != pt:
            problems.append(f"point {i}: replay != DES")
            bad.add(i)
    return problems


def _power_ratios(n_prrs: int) -> tuple[float, float]:
    """``(x_task, x_prtr)`` of a uniform ``n_prrs`` floorplan."""
    ex = PrtrExecutor(make_node(uniform_prr_floorplan(n_prrs, 12)))
    t_full = ex.node.full_config_time(estimated=ex.estimated)
    return TASK_TIME / t_full, ex.partial_config_time("mod_a") / t_full


def model_gap_pct(points: list[Any], n_calls: int) -> float:
    """Largest |simulated / Eq. (6) - 1| over fault-free points, in %."""
    ratios: dict[int, tuple[float, float]] = {}
    worst = 0.0
    for pt in points:
        if getattr(pt, "fault_rate", 0.0) != 0.0:
            continue
        if hasattr(pt, "x_task"):
            x_task, x_prtr = pt.x_task, pt.x_prtr
        else:
            if pt.n_prrs not in ratios:
                ratios[pt.n_prrs] = _power_ratios(pt.n_prrs)
            x_task, x_prtr = ratios[pt.n_prrs]
        model = float(speedup(
            ModelParameters(x_task=x_task, x_prtr=x_prtr,
                            hit_ratio=pt.hit_ratio),
            n_calls,
        ))
        worst = max(worst, abs(pt.speedup / model - 1.0) * 100.0)
    return worst


def _sweep_stats(
    inputs: Inputs, points: list[Any], journal: Any, journal_bytes: bytes
) -> dict[str, Any]:
    n_calls = inputs.params["n_calls"]
    calls = n_calls * len(points)
    hits = sum(pt.hit_ratio * n_calls for pt in points)
    return {
        "journal_sha256": hashlib.sha256(journal_bytes).hexdigest(),
        "journal_bytes": len(journal_bytes),
        "journal_fsyncs": journal.fsyncs,
        "points": len(points),
        "hit_ratio": hits / calls if calls else 0.0,
        "model_gap_pct": model_gap_pct(points, n_calls),
        "retries": sum(getattr(pt, "prtr_retries", 0) for pt in points),
        "fallbacks": sum(getattr(pt, "prtr_fallbacks", 0) for pt in points),
    }


def new_run_dir(parent: str, index: int) -> str:
    """A fresh (not yet existing) run directory for batch ``index``."""
    return os.path.join(parent, f"batch{index:04d}")
