"""The ``repro chaos`` harness: scenarios vs their fault-free baseline.

One chaos realization is a *pair* of service runs sharing a seed: the
fault-free baseline (the same :class:`~repro.service.tenants.ServiceConfig`
with ``chaos=None``) and the chaotic run.  The pair makes the resilience
metrics well-defined:

* **availability** — per tenant, the fraction of arrivals that were not
  shed (completed / (completed + shed));
* **goodput retention** — chaotic completions over baseline completions,
  the headline "how much service survived the scenario" number;
* **MTTR** — mean time to repair per failure domain, straight from the
  chaos runtime's outage log;
* **latency under failure** — the chaotic run's p50/p99/p999 next to the
  baseline's, so tail inflation is read off directly.

:func:`crash_safe_chaos` journals realizations exactly like
:func:`~repro.service.runner.crash_safe_serve` (kill + ``--resume`` is
byte-identical), and the ``none`` scenario — a ``None`` spec — delegates
to ``crash_safe_serve`` itself, so a rate-0 chaos run produces the *same
journal bytes* as plain ``repro serve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from ..runtime.invariants import audit_chaos
from ..service.runner import (
    ServeOutcome,
    crash_safe_serve,
    run_replications,
    service_meta,
)
from ..service.scheduler import ServiceResult, run_service
from ..service.slo import percentile, slo_report
from ..service.tenants import ServiceConfig, TenantSpec

__all__ = ["ChaosOutcome", "chaos_payload", "crash_safe_chaos", "run_chaos"]


def _availability(report_tenants: dict[str, Any]) -> dict[str, float]:
    """Per-tenant served fraction: completed / (completed + shed)."""
    out = {}
    for name, t in sorted(report_tenants.items()):
        offered = t["completed"] + t["shed_total"]
        out[name] = (t["completed"] / offered) if offered else 1.0
    return out


def _mttr(outages: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Mean time to repair per failure domain (recovered outages only)."""
    spans: dict[str, list[float]] = {}
    for outage in outages:
        recovered = outage.get("recovered_at")
        if recovered is None:
            continue
        spans.setdefault(outage["domain"], []).append(
            recovered - outage["failed_at"]
        )
    return {
        domain: sum(values) / len(values)
        for domain, values in sorted(spans.items())
    }


def _latency_quantiles(result: ServiceResult) -> dict[str, float]:
    """Service-wide p50/p99/p999 over every completed request."""
    lat = [v for t in result.tenants for v in t.latencies]
    return {
        "p50": percentile(lat, 50.0),
        "p99": percentile(lat, 99.0),
        "p999": percentile(lat, 99.9),
    }


def chaos_payload(
    result: ServiceResult, baseline: ServiceResult
) -> dict[str, Any]:
    """Journal payload for one realization: report, chaos log, metrics.

    ``result`` is the chaotic run, ``baseline`` its fault-free twin
    (same tenants, same seed, ``chaos=None``).  The payload embeds the
    ``chaos-containment`` audit so a resumed run replays the original
    verdicts instead of re-auditing.
    """
    chaos = result.chaos or {}
    outages = chaos.get("outages", [])
    per_domain = _mttr(outages)
    breaker_transitions = sum(
        len(b["transitions"])
        for b in chaos.get("breakers", {}).values()
    )
    retention = (
        result.total_completed / baseline.total_completed
        if baseline.total_completed
        else 1.0
    )
    report = slo_report(result)
    return {
        "report": report,
        "epochs": result.decision_epochs,
        "audit": audit_chaos(result).as_dict(),
        "chaos": chaos,
        "resilience": {
            "availability": _availability(report["tenants"]),
            "goodput_retention": retention,
            "baseline_completed": baseline.total_completed,
            "completed": result.total_completed,
            "mttr": per_domain,
            "mttr_overall": (
                sum(per_domain.values()) / len(per_domain)
                if per_domain
                else math.nan
            ),
            "outages": len(outages),
            "migrations": sum(t.migrations for t in result.tenants),
            "breaker_transitions": breaker_transitions,
            "brownout_epochs": len((chaos.get("brownout") or {}).get(
                "epochs", []
            )),
            "latency_under_failure": _latency_quantiles(result),
            "latency_baseline": _latency_quantiles(baseline),
        },
    }


def run_chaos(
    tenants: Sequence[TenantSpec], config: ServiceConfig, *, seed: int = 0
) -> dict[str, Any]:
    """Run one chaos realization and its fault-free baseline.

    ``config.chaos`` holds the armed :class:`~repro.chaos.spec.ChaosSpec`;
    the baseline strips it and reruns the identical service under the
    identical seed, so every difference in the payload's resilience
    section is attributable to the injected failures alone.
    """
    baseline = run_service(
        tenants, replace(config, chaos=None), seed=seed
    )
    result = run_service(tenants, config, seed=seed)
    return chaos_payload(result, baseline)


@dataclass
class ChaosOutcome(ServeOutcome):
    """A checkpointed chaos run; payloads carry resilience sections."""

    @property
    def resilience(self) -> list[dict[str, Any]]:
        """The per-replication resilience summaries, in order."""
        return [p["resilience"] for p in self.results]


def crash_safe_chaos(
    run_dir: str,
    tenants: Sequence[TenantSpec],
    config: ServiceConfig,
    *,
    scenario: str,
    seed: int = 0,
    replications: int = 1,
    resume: bool = False,
    deadline_s: float | None = None,
    strict: bool | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
) -> ServeOutcome:
    """Run (or resume) a journaled chaos scenario, baseline included.

    Mirrors :func:`~repro.service.runner.crash_safe_serve` — replication
    ``i`` seeds from ``seed + i``, kill + ``resume`` is byte-identical —
    with a ``kind: "chaos"`` journal whose meta additionally pins the
    scenario name.  A ``None`` ``config.chaos`` (the ``none`` scenario)
    delegates wholesale to ``crash_safe_serve``: the journal is then
    bit-identical to a plain ``repro serve`` run of the same parameters.
    """
    if config.chaos is None:
        return crash_safe_serve(
            run_dir, tenants, config,
            seed=seed, replications=replications, resume=resume,
            deadline_s=deadline_s, strict=strict, progress=progress,
            workers=workers,
        )
    return run_replications(
        run_dir,
        {
            **service_meta("chaos", tenants, config, seed, replications),
            "scenario": str(scenario),
        },
        lambda rep: run_chaos(tenants, config, seed=seed + rep),
        ChaosOutcome,
        resume=resume, deadline_s=deadline_s, strict=strict,
        progress=progress, workers=workers,
    )
