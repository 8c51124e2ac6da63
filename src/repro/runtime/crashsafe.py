"""Crash-safe execution harnesses: checkpointed sweeps, interruptible DES.

Three layers cooperate (see ``docs/MODEL.md`` section 9):

* :func:`run_checkpointed` — the generic engine: walk a grid of work
  items, journal every completed point atomically
  (:class:`~repro.runtime.journal.RunJournal`), honor a wall-clock
  :class:`~repro.runtime.watchdog.Watchdog` between points, and on
  resume replay journaled payloads instead of recomputing them.
* :func:`crash_safe_fault_sweep` — the concrete wrapper for the
  reliability fault-rate x hit-ratio sweep (the ``repro sweep`` CLI).
  Every grid point is an independent, internally seeded simulation
  (:func:`~repro.model.stochastic.resolve_rng` semantics), so a resumed
  sweep is **bit-identical** to an uninterrupted one regardless of
  where the crash fell.
* :func:`run_interruptible` — attach a watchdog to a single executor's
  DES run; on expiry the partial :class:`~repro.rtr.events.RunResult`
  comes back marked ``interrupted`` instead of the process hanging.

Each walk checks resume meta field by field, audits its results
(:mod:`repro.runtime.invariants`), writes the report to
``<run_dir>/invariants.json``, raises under strict mode and closes its
journal handle on every exit, so the verb wrappers hold only their meta,
grid, point function and audit.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..analysis.reliability import (
    DEFAULT_FAULT_RATES,
    DEFAULT_HIT_RATIOS,
    FaultSweepPoint,
    effective_speedup_under_faults,
)
from ..obs import metrics as obsm
from . import invariants
from .invariants import AuditReport
from .journal import (
    JournalError,
    RunJournal,
    atomic_write_text,
    list_segments,
)
from .parallel import fork_available, load_segment_points, run_sharded
from .watchdog import Watchdog, WatchdogExpired

__all__ = [
    "GridOutcome",
    "SweepOutcome",
    "crash_safe_fault_sweep",
    "run_checkpointed",
    "run_interruptible",
]


@dataclass
class GridOutcome:
    """Result of one checkpointed grid walk."""

    #: results for every *completed* item, in grid order
    results: list[Any]
    #: watchdog reason when the walk was cut short, else ``None``
    interrupted: str | None
    #: points replayed from the journal instead of recomputed
    resumed_points: int
    #: points computed (and journaled) this walk
    computed_points: int
    journal: RunJournal
    #: shard-merge audit when the walk ran in parallel, else ``None``
    merge_audit: AuditReport | None = None
    #: the walk's ``audit`` over ``results`` (empty without one)
    audit: AuditReport = field(default_factory=AuditReport)

    @property
    def complete(self) -> bool:
        """True when the run finished without watchdog interruption."""
        return self.interrupted is None


def _meta_diff(journaled: Any, requested: Any, path: str = "") -> list[str]:
    """Field-level differences between two journal meta trees.

    Returns human-readable ``path: journaled X, requested Y`` lines;
    an empty list means the trees are equal.  Lists of differing length
    are reported as a length mismatch (element diffs would be noise
    when a tenant was added or removed).
    """
    label = path or "<root>"
    if isinstance(journaled, Mapping) and isinstance(requested, Mapping):
        diffs = []
        for key in sorted(set(journaled) | set(requested), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in requested:
                diffs.append(
                    f"{sub}: journaled {journaled[key]!r}, absent from "
                    "the request"
                )
            elif key not in journaled:
                diffs.append(
                    f"{sub}: requested {requested[key]!r}, absent from "
                    "the journal"
                )
            else:
                diffs.extend(
                    _meta_diff(journaled[key], requested[key], sub)
                )
        return diffs
    if isinstance(journaled, list) and isinstance(requested, list):
        if len(journaled) != len(requested):
            return [
                f"{label}: journaled {len(journaled)} entries, "
                f"requested {len(requested)}"
            ]
        diffs = []
        for i, (a, b) in enumerate(zip(journaled, requested)):
            diffs.extend(_meta_diff(a, b, f"{path}[{i}]"))
        return diffs
    if journaled != requested:
        return [f"{label}: journaled {journaled!r}, requested {requested!r}"]
    return []


def _open_journal(
    run_dir: str, meta: dict[str, Any], keys: list[str], resume: bool
) -> RunJournal:
    """Create the run's journal, or load it and check it fits this run.

    A resumed journal must carry exactly this run's ``meta`` (resuming
    under different parameters would merge incompatible grids); the
    error names every drifted field.  A sealed journal must already
    hold every requested key.
    """
    if not resume:
        return RunJournal.create(run_dir, meta)
    journal = RunJournal.load(run_dir)
    # Compare unconditionally: an empty requested meta must match an
    # empty journaled meta, not act as a wildcard that would merge a
    # parameterless resume into any journal.
    if journal.meta != meta:
        diffs = _meta_diff(journal.meta, meta)
        shown = "; ".join(diffs[:6])
        if len(diffs) > 6:
            shown += f" (+{len(diffs) - 6} more)"
        inputs = "tenant file and flags" if "tenants" in meta else "flags"
        raise JournalError(
            f"cannot resume {run_dir!r}: the journal meta does not match "
            f"this invocation's parameters — {shown}. Rerun with the "
            f"original {inputs}, or point --run-dir at a fresh directory."
        )
    if journal.sealed:
        missing = [key for key in keys if not journal.has(key)]
        if missing:
            raise JournalError(
                f"journal in {run_dir!r} is sealed but the requested "
                f"grid has {len(missing)} point(s) it never recorded "
                f"(first: {missing[0]!r}); the grids differ — start "
                f"a fresh run directory instead of resuming"
            )
    return journal


def run_checkpointed(
    run_dir: str,
    items: Iterable[Any],
    fn: Callable[[Any], Any],
    *,
    key_of: Callable[[Any], str],
    encode: Callable[[Any], Any] = lambda r: r,
    decode: Callable[[Any], Any] = lambda p: p,
    meta: Mapping[str, Any] | None = None,
    resume: bool = False,
    watchdog: Watchdog | None = None,
    deadline_s: float | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
    audit: Callable[[list[Any]], AuditReport] | None = None,
    strict: bool | None = None,
    outcome_type: type[GridOutcome] = GridOutcome,
) -> GridOutcome:
    """Walk ``items`` through ``fn`` with durable per-item checkpoints.

    This is the one journaled run path of every grid-shaped verb.  With
    ``resume=True`` the journal in ``run_dir`` is loaded, its ``meta``
    is required to match the provided one (the error names each
    drifted field), and journaled items are decoded instead of
    recomputed.  The wall-clock watchdog (``watchdog``, or one built
    from ``deadline_s``) is consulted *between* items; on expiry the
    walk stops with everything completed so far safely journaled.  The
    journal's append handle is closed on every exit, exceptions
    included.

    ``audit`` (when given) checks the walk's results — complete or
    not: the report lands on ``outcome.audit`` and in
    ``<run_dir>/invariants.json``, and then raises under ``strict``
    (see :meth:`~repro.runtime.invariants.AuditReport.raise_if_strict`).
    ``outcome_type`` is the :class:`GridOutcome` subclass to build.

    ``workers > 1`` runs the walk on the sharded engine
    (:func:`repro.runtime.parallel.run_sharded`): bit-identical results
    and merged journal, one segment journal per worker while in flight.
    A run may be killed under one worker count and resumed under any
    other (including serial) — leftover segments are always absorbed.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    meta = dict(meta or {})
    items = list(items)
    keys = [key_of(item) for item in items]
    if watchdog is None and deadline_s is not None:
        watchdog = Watchdog(max_wall_s=deadline_s)
    journal = _open_journal(run_dir, meta, keys, resume)
    try:
        if workers > 1 and fork_available() and not journal.sealed:
            walk = run_sharded(
                run_dir,
                items,
                fn,
                key_of=key_of,
                encode=encode,
                decode=decode,
                meta=meta,
                journal=journal,
                workers=workers,
                max_wall_s=(
                    watchdog.max_wall_s if watchdog is not None else None
                ),
                wall_clock=(
                    watchdog.clock if watchdog is not None else None
                ),
                progress=progress,
            )
            outcome = outcome_type(
                results=walk.results,
                interrupted=walk.interrupted,
                resumed_points=walk.resumed_points,
                computed_points=walk.computed_points,
                journal=journal,
                merge_audit=walk.merge_audit,
            )
        else:
            outcome = _walk_serial(
                run_dir, journal, items, keys, fn,
                encode=encode, decode=decode, meta=meta, resume=resume,
                watchdog=watchdog, progress=progress,
                outcome_type=outcome_type,
            )
    finally:
        journal.close()
    if audit is not None:
        outcome.audit = audit(outcome.results)
        atomic_write_text(
            os.path.join(run_dir, "invariants.json"),
            json.dumps(outcome.audit.as_dict(), indent=2) + "\n",
        )
        outcome.audit.raise_if_strict(strict)
    return outcome


def _walk_serial(
    run_dir: str,
    journal: RunJournal,
    items: list[Any],
    keys: list[str],
    fn: Callable[[Any], Any],
    *,
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
    meta: dict[str, Any],
    resume: bool,
    watchdog: Watchdog | None,
    progress: Callable[[str], None] | None,
    outcome_type: type[GridOutcome],
) -> GridOutcome:
    """The in-process walk of :func:`run_checkpointed`."""
    if watchdog is not None:
        watchdog.start()
    # Segments left behind by a killed parallel run: absorb their points
    # into the main journal at the grid position a serial walk would
    # have written them, so the merged journal stays byte-identical.
    segment_payloads: dict[str, Any] = {}
    if resume:
        _, segment_payloads = load_segment_points(run_dir, meta)

    results: list[Any] = []
    resumed = computed = 0
    interrupted: str | None = None
    for item, key in zip(items, keys):
        if journal.has(key):
            results.append(decode(journal.payload(key)))
            resumed += 1
            continue
        if key in segment_payloads:
            journal.record(key, segment_payloads[key])
            results.append(decode(segment_payloads[key]))
            resumed += 1
            continue
        if watchdog is not None:
            try:
                watchdog.check_wall()
            except WatchdogExpired as exc:
                interrupted = str(exc)
                break
        result = fn(item)
        journal.record(key, encode(result))
        computed += 1
        results.append(result)
        if progress is not None:
            progress(f"{key} done ({journal.n_points} journaled)")
    if interrupted is None:
        # Seal with the observability snapshot (None while disabled, so
        # uninstrumented journals keep the pre-observability byte format).
        journal.seal(obsm.snapshot() or None)
        for name in list_segments(run_dir).values():
            os.remove(os.path.join(run_dir, name))
    return outcome_type(
        results=results,
        interrupted=interrupted,
        resumed_points=resumed,
        computed_points=computed,
        journal=journal,
    )


@dataclass
class SweepOutcome(GridOutcome):
    """A checkpointed grid sweep (reliability or power) and its audit."""

    @property
    def points(self) -> list[Any]:
        """The merged sweep results (alias of ``results``)."""
        return self.results


def crash_safe_fault_sweep(
    run_dir: str,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    hit_ratios: Sequence[float] = DEFAULT_HIT_RATIOS,
    *,
    n_calls: int = 30,
    task_time: float = 0.1,
    seed: int = 0,
    resume: bool = False,
    deadline_s: float | None = None,
    strict: bool | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
    hybrid: str = "off",
) -> SweepOutcome:
    """The reliability grid with checkpoint/resume and auditing.

    Point order, seeds and numerics are identical to
    :func:`~repro.analysis.reliability.sweep_fault_hit_grid`; each
    point's simulators are freshly seeded from ``seed``, so a resumed
    run merges to a bit-identical point list.  ``workers > 1`` shards
    the grid across fork workers — point list, audit report and merged
    journal are all bit-identical to the serial walk.

    ``hybrid`` ("off"/"on"/"verify") selects the analytic fast path per
    cell; points — and therefore journal bytes — are identical in every
    mode, so a run journaled under one mode resumes cleanly under
    another (``hybrid`` is deliberately left out of the resume meta).
    """
    from ..analysis.reliability import hybrid_cell_modes

    meta = {
        "kind": "fault_sweep",
        "rates": [float(r) for r in fault_rates],
        "hit_ratios": [float(h) for h in hit_ratios],
        "n_calls": int(n_calls),
        "task_time": float(task_time),
        "seed": int(seed),
    }
    grid = [(h, rate) for h in hit_ratios for rate in fault_rates]
    modes = dict(zip(grid, hybrid_cell_modes(grid, hybrid, seed)))
    return run_checkpointed(
        run_dir,
        grid,
        lambda cell: effective_speedup_under_faults(
            cell[1], cell[0],
            n_calls=n_calls, task_time=task_time, seed=seed,
            hybrid=modes[cell],
        ),
        key_of=lambda cell: f"rate={cell[1]!r},H={cell[0]!r}",
        encode=asdict,
        decode=lambda payload: FaultSweepPoint(**payload),
        meta=meta,
        resume=resume,
        deadline_s=deadline_s,
        progress=progress,
        workers=workers,
        audit=invariants.audit_sweep_points,
        strict=strict,
        outcome_type=SweepOutcome,
    )


def run_interruptible(
    executor: Any, trace: Any, *, watchdog: Watchdog
) -> Any:
    """Run one executor under a DES watchdog; never hangs.

    Returns the full :class:`~repro.rtr.events.RunResult` when the run
    drains normally, or a partial result marked ``interrupted`` (with
    ``interrupt_reason`` set to the watchdog's reason) when a limit
    trips mid-run.
    """
    sim = executor.node.sim
    pending = executor.launch(trace)
    sim.watchdog = watchdog.start(sim)
    try:
        try:
            sim.run()
        except WatchdogExpired as exc:
            return pending.finalize(interrupted=str(exc))
    finally:
        sim.watchdog = None
    return pending.finalize()
