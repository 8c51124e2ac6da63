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

Completed sweeps are audited (:mod:`repro.runtime.invariants`) and the
report is written to ``<run_dir>/invariants.json``.
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
from .invariants import AuditReport, audit_sweep_points
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

    @property
    def complete(self) -> bool:
        """True when the run finished without watchdog interruption."""
        return self.interrupted is None


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
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
) -> GridOutcome:
    """Walk ``items`` through ``fn`` with durable per-item checkpoints.

    With ``resume=True`` the journal in ``run_dir`` is loaded, its
    ``meta`` is required to match the provided one (resuming under
    different sweep parameters would merge incompatible grids), and
    journaled items are decoded instead of recomputed.  The wall-clock
    watchdog is consulted *between* items; on expiry the walk stops
    with everything completed so far safely journaled.

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
    if resume:
        journal = RunJournal.load(run_dir)
        # Compare unconditionally: an empty requested meta must match an
        # empty journaled meta, not act as a wildcard that would merge a
        # parameterless resume into any journal.
        if journal.meta != meta:
            raise JournalError(
                f"journal meta in {run_dir!r} does not match this "
                f"sweep's parameters (journaled {journal.meta!r}, "
                f"requested {meta!r})"
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
    else:
        journal = RunJournal.create(run_dir, meta)

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
            wall_clock=watchdog.clock if watchdog is not None else None,
            progress=progress,
        )
        return GridOutcome(
            results=walk.results,
            interrupted=walk.interrupted,
            resumed_points=walk.resumed_points,
            computed_points=walk.computed_points,
            journal=walk.journal,
            merge_audit=walk.merge_audit,
        )

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
    return GridOutcome(
        results=results,
        interrupted=interrupted,
        resumed_points=resumed,
        computed_points=computed,
        journal=journal,
    )


@dataclass
class SweepOutcome(GridOutcome):
    """A checkpointed reliability sweep plus its invariant audit."""

    audit: AuditReport = field(default_factory=AuditReport)

    @property
    def points(self) -> list[FaultSweepPoint]:
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
    watchdog = (
        Watchdog(max_wall_s=deadline_s) if deadline_s is not None else None
    )
    outcome = run_checkpointed(
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
        watchdog=watchdog,
        progress=progress,
        workers=workers,
    )
    audit = audit_sweep_points(outcome.results)
    atomic_write_text(
        os.path.join(run_dir, "invariants.json"),
        json.dumps(audit.as_dict(), indent=2) + "\n",
    )
    sweep = SweepOutcome(
        results=outcome.results,
        interrupted=outcome.interrupted,
        resumed_points=outcome.resumed_points,
        computed_points=outcome.computed_points,
        journal=outcome.journal,
        merge_audit=outcome.merge_audit,
        audit=audit,
    )
    audit.raise_if_strict(strict)
    return sweep


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
