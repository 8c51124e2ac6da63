"""The journaled ``repro serve`` harness: crash-safe service runs.

One *serve run* is ``replications`` independent service realizations
(replication ``i`` seeds its simulation from ``seed + i``), walked
through :func:`repro.runtime.crashsafe.run_checkpointed` so each
completed realization is journaled atomically: kill the process at any
point, rerun with ``--resume``, and the final SLO reports are
byte-identical to an uninterrupted run — journaled realizations replay
from disk, the rest recompute from their private seeds.  ``workers > 1``
shards replications across fork workers with the same guarantee.

Each realization's journal payload is its full :func:`serve_payload`:
the SLO report, the admission decision epochs, and the
``service-accounting`` audit.  The merged audit across replications is
written to ``<run_dir>/invariants.json`` by the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..runtime import crashsafe
from ..runtime.invariants import AuditReport, Violation, audit_service
from .scheduler import ServiceResult, run_service
from .slo import slo_report
from .tenants import ServiceConfig, TenantSpec

__all__ = [
    "ServeOutcome",
    "crash_safe_serve",
    "serve_payload",
]


def serve_payload(result: ServiceResult) -> dict[str, Any]:
    """Journal payload for one realization: report, epochs, audit."""
    return {
        "report": slo_report(result),
        "epochs": result.decision_epochs,
        "audit": audit_service(result).as_dict(),
    }


def _audit_payloads(payloads: Sequence[Mapping[str, Any]]) -> AuditReport:
    """Merge the audits recorded inside journaled payloads.

    A resumed run replays the original verdicts instead of re-auditing.
    """
    merged = AuditReport()
    for payload in payloads:
        report = AuditReport()
        report.checked = list(payload["audit"]["checked"])
        report.violations = [
            Violation(v["invariant"], v["message"])
            for v in payload["audit"]["violations"]
        ]
        merged.merge(report)
    return merged


@dataclass
class ServeOutcome(crashsafe.GridOutcome):
    """A checkpointed serve run plus its merged accounting audit."""

    @property
    def reports(self) -> list[dict[str, Any]]:
        """The per-replication SLO reports, in replication order."""
        return [p["report"] for p in self.results]


def run_replications(
    run_dir: str,
    meta: Mapping[str, Any],
    point: Callable[[int], dict[str, Any]],
    outcome_type: type[ServeOutcome],
    **walk: Any,
) -> ServeOutcome:
    """Journal ``meta["replications"]`` payloads of ``point(rep)``.

    The shared walk of ``repro serve`` and ``repro chaos``: keys are
    ``rep=<i>`` and the audit merges each payload's recorded verdicts.
    ``walk`` carries the :func:`~repro.runtime.crashsafe.run_checkpointed`
    run options (``resume``, ``deadline_s``, ``strict``, ``progress``,
    ``workers``).
    """
    replications = meta["replications"]
    if replications < 1:
        raise ValueError(f"replications must be >= 1: {replications}")
    return crashsafe.run_checkpointed(
        run_dir,
        list(range(replications)),
        point,
        key_of=lambda rep: f"rep={rep}",
        meta=meta,
        audit=_audit_payloads,
        outcome_type=outcome_type,
        **walk,
    )


def service_meta(
    kind: str,
    tenants: Sequence[TenantSpec],
    config: ServiceConfig,
    seed: int,
    replications: int,
) -> dict[str, Any]:
    """The resume meta of a journaled service run.

    It pins the full tenant mix, service configuration, seed and
    replication count, so a resume under different parameters is
    rejected instead of silently merging incompatible runs.
    """
    return {
        "kind": kind,
        "tenants": [t.as_dict() for t in tenants],
        "config": config.as_dict(),
        "seed": int(seed),
        "replications": int(replications),
    }


def crash_safe_serve(
    run_dir: str,
    tenants: Sequence[TenantSpec],
    config: ServiceConfig,
    *,
    seed: int = 0,
    replications: int = 1,
    resume: bool = False,
    deadline_s: float | None = None,
    strict: bool | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
) -> ServeOutcome:
    """Run (or resume) a journaled multi-replication service run."""
    return run_replications(
        run_dir,
        service_meta("serve", tenants, config, seed, replications),
        lambda rep: serve_payload(
            run_service(tenants, config, seed=seed + rep)
        ),
        ServeOutcome,
        resume=resume, deadline_s=deadline_s, strict=strict,
        progress=progress, workers=workers,
    )
