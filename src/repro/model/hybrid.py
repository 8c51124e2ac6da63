"""Hybrid analytical/DES fast path for the sweep engines.

The closed-form model (Eqs. 1-7, :mod:`repro.model.bounds`) is *exact* —
not approximate — wherever nothing the discrete-event simulator models
beyond the equations can fire.  This module makes that claim operational:

* :data:`EXACTNESS_PREDICATES` names the conditions under which a grid
  point's DES makespan is provably equal (bit-for-bit, not just close) to
  a straight-line float replay of the executor's event arithmetic;
* :func:`replay_frtr` / :func:`replay_prtr` perform that replay
  without the event loop.  They call the folds the DES itself resumes
  on — :func:`repro.rtr.frtr.call_times` per FRTR call,
  :func:`repro.rtr.prtr.stage_times` per PRTR stage and
  :meth:`repro.hardware.icap_controller.ConfigurePlan.end_time` per
  partial configuration — and the executor's own residency decisions,
  so the result is the *same Python float*, not an approximation of it,
  and no fold has a second copy here;
* :func:`replay_comparison_speedup` and :func:`replay_fault_point` answer
  a Figure-9 point or a rate-0 fault-grid cell without spinning up the
  event loop;
* :func:`verification_sample` picks the seeded subset of analytical
  points that ``--hybrid=verify`` shadow-runs on the real DES; the
  resulting :class:`HybridSample` records feed
  :func:`repro.runtime.invariants.audit_hybrid`, the ``hybrid-exactness``
  invariant row.

Why the replay is exact and not merely accurate: every branch of the
executors accumulates absolute event times as a left fold of float sums
(``sim.now + duration`` at each dispatch, or a folded end time resumed
on with :class:`~repro.sim.engine.At`), stage barriers resolve to the
max of their branch end times, the fault-free recovery wrapper adds
zero events, a zero-rate injector consumes no RNG draws, and uncontended
mutexes grant in zero time.  Calling the same folds in the same order
therefore reproduces the DES clock bitwise.  The predicates below
delimit precisely the configurations where "uncontended / fault-free /
single formula per stage" holds; everywhere else the caller must fall
back to the DES.

Regime classification (:func:`repro.model.bounds.classify_regime`)
explains *which* closed-form branch governs each exact point — see
MODEL.md §13 — while the predicates here decide *whether* the replay may
be used at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .stochastic import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..analysis.reliability import FaultSweepPoint
    from ..faults.recovery import RecoveryPolicy
    from ..hardware.prr import Floorplan
    from ..rtr.frtr import FrtrExecutor
    from ..rtr.prtr import PrtrExecutor
    from ..workloads.task import CallTrace

__all__ = [
    "EXACTNESS_PREDICATES",
    "HybridMode",
    "HybridSample",
    "closed_form_exact",
    "comparison_verdicts",
    "fault_point_verdicts",
    "parse_hybrid_mode",
    "power_point_verdicts",
    "replay_comparison_speedup",
    "replay_energy_components",
    "replay_fault_point",
    "replay_frtr",
    "replay_prtr",
    "verification_sample",
]


class HybridMode:
    """The three ``--hybrid`` settings threaded through the sweep CLIs."""

    #: pure DES everywhere (the pre-hybrid behavior)
    OFF = "off"
    #: answer analytically where the predicates prove exactness
    ON = "on"
    #: like ``on``, plus a seeded shadow sample re-run on the DES and
    #: asserted bit-identical (the ``hybrid-exactness`` invariant)
    VERIFY = "verify"

    ALL: tuple[str, ...] = (OFF, ON, VERIFY)


def parse_hybrid_mode(text: str) -> str:
    """Validate and canonicalize a ``--hybrid`` argument."""
    mode = text.strip().lower()
    if mode not in HybridMode.ALL:
        raise ValueError(
            f"hybrid mode must be one of {HybridMode.ALL}: {text!r}"
        )
    return mode


#: The exactness contract: the closed-form replay is provably
#: bit-identical to the DES iff **every** predicate holds.  Names are
#: pinned by docs/PERFORMANCE.md and MODEL.md §13.
EXACTNESS_PREDICATES: dict[str, str] = {
    "fault-free": (
        "no injector, or every fault rate exactly zero — zero-rate draws "
        "consume no RNG and the resilient() wrapper adds zero events"
    ),
    "overlap-applicable": (
        "more than one PRR slot, so the prefetch branch follows the "
        "paper's max(task, config) stage law; the single-PRR serial "
        "fallback path is not replayed"
    ),
    "uniform-io": (
        "detailed_io disabled: tasks are one Delay, not data-in/compute/"
        "data-out legs contending for the link channels"
    ),
    "local-bitstreams": (
        "no bitstream_source backplane: configuration never queues on a "
        "shared fetch channel"
    ),
    "recovery-inert": (
        "with no faults to recover from, any recovery policy is a "
        "pass-through (implied by fault-free; kept separate because it "
        "is the predicate that breaks first if new recovery hooks gain "
        "unconditional events)"
    ),
}


def closed_form_exact(verdicts: dict[str, bool]) -> bool:
    """True iff every exactness predicate holds for a grid point."""
    unknown = set(verdicts) - set(EXACTNESS_PREDICATES)
    if unknown:
        raise KeyError(f"unknown exactness predicates: {sorted(unknown)}")
    return all(verdicts.get(name, False) for name in EXACTNESS_PREDICATES)


@dataclass(frozen=True)
class HybridSample:
    """One shadow-verification record: analytic vs DES answer.

    ``analytic`` and ``simulated`` must compare equal (``==``, i.e.
    bitwise for floats) for the ``hybrid-exactness`` invariant to hold.
    The comparison itself lives in
    :func:`repro.runtime.invariants.audit_hybrid`.
    """

    label: str
    analytic: Any
    simulated: Any


def verification_sample(
    n_items: int,
    seed: int = 0,
    fraction: float = 0.25,
    min_samples: int = 2,
) -> list[int]:
    """The seeded shadow-validation sample for ``--hybrid=verify``.

    Returns sorted indices into the analytical point list: at least
    ``min_samples`` (capped at ``n_items``), at most
    ``round(fraction * n_items)`` points, drawn without replacement from
    ``resolve_rng(seed)`` — the repo-wide seeded-RNG contract, so the
    sample is a pure function of ``(n_items, seed)`` and identical
    across workers and resumes.
    """
    if n_items <= 0:
        return []
    k = min(n_items, max(min_samples, int(round(fraction * n_items))))
    rng = resolve_rng(seed)
    chosen = rng.choice(n_items, size=k, replace=False)
    return sorted(int(i) for i in chosen)


# -- predicate evaluation ---------------------------------------------------


def comparison_verdicts(
    *,
    floorplan: "Floorplan | None" = None,
    detailed_io: bool = False,
    node_kwargs: dict[str, Any] | None = None,
) -> dict[str, bool]:
    """Exactness verdicts for one :func:`repro.rtr.runner.compare` point."""
    from ..faults.injector import injector_fault_free
    from ..hardware.prr import dual_prr_floorplan

    kwargs = node_kwargs or {}
    fault_free = injector_fault_free(kwargs.get("fault_injector"))
    plan = floorplan or dual_prr_floorplan()
    return {
        "fault-free": fault_free,
        "overlap-applicable": plan.n_prrs > 1,
        "uniform-io": not detailed_io,
        "local-bitstreams": True,
        "recovery-inert": fault_free,
    }


def power_point_verdicts(n_prrs: int) -> dict[str, bool]:
    """Exactness verdicts for one power-sweep cell.

    The power sweep (:mod:`repro.power.pareto`) is fault-free by
    construction; the only predicate that can fail is
    ``overlap-applicable`` — single-PRR floorplans take the serial
    partial-configuration path the replay does not model, so those
    cells always run the DES.
    """
    return {
        "fault-free": True,
        "overlap-applicable": n_prrs > 1,
        "uniform-io": True,
        "local-bitstreams": True,
        "recovery-inert": True,
    }


def fault_point_verdicts(fault_rate: float, seed: int = 0) -> dict[str, bool]:
    """Exactness verdicts for one fault-grid cell.

    Only the zero-rate cells are fault-free (:attr:`repro.faults.injector
    .FaultConfig.fault_free`); every other cell needs the DES because
    injected aborts perturb both the clock and the RNG stream.
    """
    from ..faults.injector import FaultConfig

    fault_free = FaultConfig(chunk_abort_rate=fault_rate, seed=seed).fault_free
    return {
        "fault-free": fault_free,
        "overlap-applicable": True,  # make_node() defaults to dual-PRR
        "uniform-io": True,
        "local-bitstreams": True,
        "recovery-inert": fault_free,
    }


# -- exact float replays ----------------------------------------------------


def _replay_partial_config(
    executor: "PrtrExecutor", module: str, t0: float
) -> float:
    """End time of one partial configuration started at ``t0``."""
    bs = executor.bitstream_for(module)
    if executor.estimated:
        return t0 + executor.node.icap_raw.wire_time(bs.nbytes)
    return executor.node.icap.plan(bs.nbytes).end_time(t0)


def replay_frtr(executor: "FrtrExecutor", trace: "CallTrace") -> float:
    """The FRTR makespan, bit-identical to ``executor.run(trace)``.

    Per call: one full configuration, the control transfer, the task —
    :func:`repro.rtr.frtr.call_times`, the fold the DES resumes on.
    """
    from ..rtr.frtr import call_times

    node = executor.node
    t_config = node.full_config_time(estimated=executor.estimated)
    control = executor.control_time
    t = 0.0
    for call in trace:
        t = call_times(t, t_config, control, call.task.time)[2]
    return t


def replay_prtr(
    executor: "PrtrExecutor", trace: "CallTrace"
) -> tuple[float, int]:
    """The PRTR makespan and miss count, bit-identical to the DES run.

    Requires every :data:`EXACTNESS_PREDICATES` entry to hold (the
    caller checks).  It makes the executor's own residency decisions
    (``_first_resident``, ``_lookahead``) on its *real* cache and policy,
    so which stages pay a partial configuration is the executor's
    choice, and it folds each stage with
    :func:`repro.rtr.prtr.stage_times`, as the DES does.  Returns
    ``(total_time, n_configs)`` where ``n_configs`` counts the calls
    whose module was not resident (the :attr:`RunResult.n_configs`
    analogue).
    """
    from ..rtr.prtr import stage_times

    calls = list(trace)
    n = len(calls)
    if not n:
        return 0.0, 0
    control = executor.control_time
    decision = executor.decision_time

    # Startup: optional prefetch decision, then the initial full
    # configuration that instantiates call 0's module in PRR 0.
    t = 0.0
    if decision:
        t = t + decision
    t = t + executor.node.full_config_time(estimated=executor.estimated)
    n_configs = 0 if executor._first_resident(calls[0].name) else 1

    lookahead = executor._lookahead
    names = [call.name for call in calls]
    last = n - 1
    for i, call in enumerate(calls):
        t_ctrl, _, t_chain = stage_times(t, control, call.task.time, decision)
        if i < last and not lookahead(names[i], names[i + 1]):
            n_configs += 1
            # overlap-applicable guarantees slots > 1, so the
            # configuration overlaps the running task; the stage
            # barrier resolves to the later branch end.
            t_cfg = _replay_partial_config(executor, names[i + 1], t_ctrl)
            t = t_cfg if t_cfg >= t_chain else t_chain
        else:
            t = t_chain
    return t, n_configs


def replay_energy_components(
    trace: "CallTrace",
    *,
    t_config_full: float,
    t_config_partial: float,
    n_full: int,
    n_partial: int,
) -> tuple[float, float, float]:
    """Busy-second buckets for a fault-free run, by exact replay.

    Returns ``(task_s, config_full_s, config_partial_s)`` — the same
    left folds :meth:`repro.power.ledger.EnergyLedger.from_run`
    performs over a clean run's records: task times in call order, then
    ``n_full`` copies of the canonical full-configuration time and
    ``n_partial`` copies of the canonical partial time.  Because every
    addend is the identical Python float on both sides, the resulting
    buckets (and therefore the joule ledger derived from them) are
    bit-identical to the DES-annotated ones wherever
    :data:`EXACTNESS_PREDICATES` hold.
    """
    task_s = 0.0
    for call in trace:
        task_s = task_s + call.task.time
    full_s = 0.0
    for _ in range(n_full):
        full_s = full_s + t_config_full
    part_s = 0.0
    for _ in range(n_partial):
        part_s = part_s + t_config_partial
    return task_s, full_s, part_s


# -- grid-point fast paths --------------------------------------------------


def replay_comparison_speedup(
    trace: "CallTrace",
    *,
    floorplan: "Floorplan | None" = None,
    estimated: bool = False,
    control_time: float | None = None,
    decision_time: float = 0.0,
    force_miss: bool = False,
    bitstream_bytes: int | None = None,
    node_kwargs: dict[str, Any] | None = None,
) -> float:
    """The :attr:`ComparisonResult.speedup` a DES ``compare()`` would
    report, computed by replay.

    Signature mirrors :func:`repro.rtr.runner.compare` (minus
    ``detailed_io``, which the ``uniform-io`` predicate excludes).  The
    caller must have checked :func:`comparison_verdicts`.
    """
    from ..rtr.frtr import FrtrExecutor
    from ..rtr.prtr import PrtrExecutor
    from ..rtr.runner import make_node

    kwargs = node_kwargs or {}
    frtr_node = make_node(floorplan, **kwargs)
    prtr_node = make_node(floorplan, **kwargs)
    frtr_total = replay_frtr(
        FrtrExecutor(
            frtr_node, estimated=estimated, control_time=control_time
        ),
        trace,
    )
    prtr_total, _ = replay_prtr(
        PrtrExecutor(
            prtr_node,
            estimated=estimated,
            control_time=control_time,
            decision_time=decision_time,
            force_miss=force_miss,
            bitstream_bytes=bitstream_bytes,
        ),
        trace,
    )
    if prtr_total <= 0:
        raise ZeroDivisionError("PRTR replay has zero total time")
    return frtr_total / prtr_total


def replay_fault_point(
    fault_rate: float,
    hit_ratio: float = 0.0,
    *,
    n_calls: int = 30,
    task_time: float = 0.1,
    seed: int = 0,
    recovery: "RecoveryPolicy | None" = None,
) -> "FaultSweepPoint":
    """One fault-grid cell by replay — exact only where
    :func:`fault_point_verdicts` all hold (i.e. ``fault_rate`` is
    exactly zero, so retries, fallbacks and recovery time are zero by
    construction and MTTR/availability are their fault-free constants).

    Mirrors :func:`repro.analysis.reliability
    .effective_speedup_under_faults` field for field.
    """
    from ..analysis.reliability import FaultSweepPoint, trace_with_hit_ratio
    from ..faults.injector import FaultConfig, FaultInjector
    from ..rtr.frtr import FrtrExecutor
    from ..rtr.prtr import PrtrExecutor
    from ..rtr.runner import make_node

    verdicts = fault_point_verdicts(fault_rate, seed)
    if not closed_form_exact(verdicts):
        failed = sorted(k for k, ok in verdicts.items() if not ok)
        raise ValueError(
            f"fault point rate={fault_rate!r} is not analytically exact "
            f"(failed predicates: {failed}); run the DES instead"
        )
    trace = trace_with_hit_ratio(hit_ratio, n_calls, task_time)
    config = FaultConfig(chunk_abort_rate=fault_rate, seed=seed)

    frtr_node = make_node(fault_injector=FaultInjector(config))
    frtr_total = replay_frtr(FrtrExecutor(frtr_node, recovery=recovery), trace)

    prtr_node = make_node(fault_injector=FaultInjector(config))
    prtr_executor = PrtrExecutor(prtr_node, recovery=recovery)
    prtr_total, n_configs = replay_prtr(prtr_executor, trace)

    speedup = frtr_total / prtr_total if prtr_total > 0 else 0.0
    t_full = prtr_node.full_config_time(estimated=False)
    t_part = prtr_executor.partial_config_time(trace[0].name)
    achieved = 1.0 - n_configs / n_calls
    return FaultSweepPoint(
        fault_rate=fault_rate,
        target_hit_ratio=hit_ratio,
        hit_ratio=achieved,
        frtr_time=frtr_total,
        prtr_time=prtr_total,
        speedup=speedup,
        prtr_retries=0,
        prtr_fallbacks=0,
        prtr_degraded=False,
        mttr=0.0,
        availability=1.0 - 0.0 / prtr_total if prtr_total > 0 else 1.0,
        x_prtr=t_part / t_full,
        x_task=task_time / t_full,
    )

