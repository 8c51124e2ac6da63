"""The PRTR executor: pipelined partial reconfiguration (Fig. 4).

Execution follows the paper's model: after an initial pre-fetch decision
and one full configuration (the static design plus the first module), the
calls stream through a two-resource pipeline —

* stage *i* runs task *i* on its PRR (serially: transfer of control, the
  task itself, then the pre-fetch decision about call *i+1*);
* concurrently, if call *i+1*'s module is not resident, its partial
  bitstream is pushed through the ICAP controller into another PRR.

The stage ends when both finish: a missed successor costs
``max(T_task + T_decision, T_PRTR)``, a hit successor nothing — exactly
the accounting of Eq. (3).  With a single PRR no overlap is possible and
the executor falls back to serial configure-then-execute.

Hits and misses are decided by PRR residency, tracked by a
:class:`~repro.caching.base.ConfigCache` whose replacement policy is
pluggable.  ``force_miss=True`` reproduces the paper's experimental
configuration (the hypothetical always-missing prefetcher: ``M = 1``).

With ``detailed_io=True`` tasks split into data-in / compute / data-out on
the node's dual-channel link, and partial reconfiguration *shares the
inbound channel* — the Section 4.1 architectural constraint (configuration
can only overlap compute or data-out) emerges from channel serialization
rather than being hard-coded.

A stage is folded rather than spawned whenever ``detailed_io`` is off
and no ``bitstream_source`` is set.  The task chain becomes computed end
times (:func:`stage_times`), an overlappable miss drives the next
call's configuration inline through the same recovery loop and
``IcapController.configure``, and the stage resumes at the chain end
only if that is later than the configuration's.  That is one to three
DES events per stage instead of a spawned task and configuration
process and a barrier.  The timeline spans come out in the order the
spawned processes' events would have added them, exact float ties
included; :func:`repro.model.hybrid.replay_prtr` folds the same
:func:`stage_times` (docs/PERFORMANCE.md, "Folded stages and calls").
"""

from __future__ import annotations

from typing import Any, Generator

from ..caching.base import ConfigCache
from ..caching.policies import LruPolicy
from ..faults.errors import TransferCorruption, WriteAbort
from ..faults.recovery import RecoveryPolicy
from ..hardware.bitstream import Bitstream
from ..obs import metrics as obsm
from ..hardware.node import XD1Node
from ..sim.engine import AllOf, At, Delay, Simulator
from ..sim.trace import Phase, Timeline
from ..sim.resources import BandwidthChannel
from ..workloads.task import CallTrace, FunctionCall
from .events import CallRecord, RunResult
from .frtr import PendingRun
from .resilience import ConfigOutcome, resilient

__all__ = ["PrtrExecutor", "run_prtr", "stage_times"]


def stage_times(
    t: float, control: float, task_time: float, decision: float
) -> tuple[float, float, float]:
    """``(control end, task end, chain end)`` of a stage started at ``t``.

    The additions the DES clock makes, in its order: the control
    transfer, the task, then the prefetch decision (a zero control or
    decision time is skipped, as the executor skips its ``Delay``).
    The executor's folded stage and :func:`repro.model.hybrid
    .replay_prtr` both call this.
    """
    t_ctrl = t + control if control else t
    t_task = t_ctrl + task_time
    return t_ctrl, t_task, t_task + decision if decision else t_task


def _config_slot(
    t_ctrl: float,
    t_task: float,
    t_chain: float,
    t_cfg: float,
    last_yield: float,
    yields: int,
    decision: float,
) -> int:
    """Where the spawned stage logs an overlapped configuration's span.

    0 before the task's span, 1 between it and the decision's, 2 after
    the decision's (there is no 2 without a decision).  The spawned
    processes add each span when its event runs, in ``(time, seq)``
    order, so a tie goes to the event scheduled first.  The task's end
    is scheduled at the stage start (``t_ctrl``), before the
    configuration's first step, so it wins a tie with the configuration
    end.  The decision's end is scheduled at ``t_task``, the
    configuration's end when it last yielded (``last_yield``, its
    ``yields``-th yield).  The configuration wins that tie if it
    yielded before the task end, or if that yield was its first: the
    first step runs at the stage start, before the task's resume even
    when ``t_task == t_ctrl`` (a task shorter than half an ulp of the
    clock).
    """
    if t_cfg < t_task:
        return 0
    if decision and (
        t_cfg < t_chain
        or (t_cfg == t_chain and (last_yield < t_task or yields == 1))
    ):
        return 1
    return 2 if decision else 1


def _marked(
    sim: Simulator, gen: Generator[Any, Any, Any], mark: list[Any]
) -> Generator[Any, Any, Any]:
    """``yield from gen``, noting when it last yielded (``mark[0]``)
    and how often (``mark[1]``)."""
    value = None
    while True:
        try:
            target = gen.send(value)
        except StopIteration as stop:
            return stop.value
        mark[0] = sim.now
        mark[1] += 1
        try:
            value = yield target
        except GeneratorExit:
            gen.close()
            raise


class PrtrExecutor:
    """Pipelined partial-reconfiguration execution on one node.

    Parameters
    ----------
    node:
        Hardware model; its floorplan's PRR count sets the cache slots.
    estimated:
        Wire-only configuration times (Table 2 "estimated") instead of the
        vendor-API + ICAP-controller measured models.
    control_time, decision_time:
        ``T_control`` and ``T_decision`` per call.
    cache:
        Residency tracker; defaults to LRU over the floorplan's PRRs.
    bitstream_bytes:
        Partial bitstream size override (e.g. the published Table 2 value);
        defaults to the floorplan's geometric size for PRR 0.
    force_miss:
        Reconfigure on every call regardless of residency (the paper's
        ``M = 1`` experiment).
    detailed_io:
        Split tasks into data-in/compute/data-out over the link channels.
    bitstream_source:
        Optional shared channel every bitstream (initial full image and
        partials) is fetched over first — the cluster bitstream-server
        model of :mod:`repro.rtr.cluster`.
    recovery:
        Optional :class:`~repro.faults.recovery.RecoveryPolicy` applied
        when a (re)configuration fails: retries/refetches happen inside
        the overlapped configuration branch; a ``fallback_full`` action
        stalls the pipeline after the current stage and reconfigures the
        whole device (wiping every PRR); ``degrade`` abandons the rest of
        the trace.  ``None`` (default) lets faults propagate — fail fast.
    """

    def __init__(
        self,
        node: XD1Node,
        *,
        estimated: bool = False,
        control_time: float | None = None,
        decision_time: float = 0.0,
        cache: ConfigCache | None = None,
        bitstream_bytes: int | None = None,
        force_miss: bool = False,
        detailed_io: bool = False,
        bitstream_source: BandwidthChannel | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        if not node.floorplan.n_prrs:
            raise ValueError(
                "PRTR needs at least one PRR; use a single/dual PRR floorplan"
            )
        self.node = node
        self.estimated = estimated
        self.control_time = (
            node.params.control_time if control_time is None else control_time
        )
        self.decision_time = decision_time
        if self.control_time < 0 or self.decision_time < 0:
            raise ValueError("overhead times must be >= 0")
        self.cache = cache or ConfigCache(
            slots=node.floorplan.n_prrs, policy=LruPolicy()
        )
        if self.cache.slots != node.floorplan.n_prrs:
            raise ValueError(
                f"cache has {self.cache.slots} slots but the floorplan has "
                f"{node.floorplan.n_prrs} PRRs"
            )
        self._bitstream_bytes = bitstream_bytes
        self.force_miss = force_miss
        self.detailed_io = detailed_io
        if detailed_io:
            # Data-in legs share the inbound channel with bitstreams, so
            # configurations must queue per chunk, never reserve it.
            node.link.inbound.declare_data_traffic()
        #: optional shared backplane bitstreams are fetched over before
        #: each (re)configuration — the cluster bitstream-server model
        self.bitstream_source = bitstream_source
        self.recovery = recovery
        self._bitstreams: dict[str, Bitstream] = {}

    # -- bitstream/config helpers -------------------------------------------

    def bitstream_for(self, module: str) -> Bitstream:
        """The (cached) partial bitstream that configures ``module``."""
        bs = self._bitstreams.get(module)
        if bs is None:
            if self._bitstream_bytes is not None:
                bs = Bitstream(
                    name=f"prr:{module}",
                    nbytes=self._bitstream_bytes,
                    region="prr0",
                    module=module,
                    kind="module",
                )
            else:
                bs = self.node.prr_bitstream(0, module)
            self._bitstreams[module] = bs
        return bs

    def partial_config_time(self, module: str) -> float:
        """Unloaded partial configuration time for one module."""
        return self.node.partial_config_time(
            self.bitstream_for(module), estimated=self.estimated
        )

    def _configure_partial(
        self, module: str, owner: str, fetch: bool = True
    ) -> Generator[Any, Any, None]:
        """One partial-configuration attempt (may raise injected faults).

        ``fetch=False`` skips the bitstream-server pull — a plain retry
        re-drives the locally buffered copy.
        """
        bs = self.bitstream_for(module)
        if self.bitstream_source is not None and fetch:
            _, ok = yield from self.bitstream_source.transfer_ok(
                bs.nbytes, owner=f"{owner}:fetch"
            )
            if not ok:
                raise TransferCorruption(
                    f"server fetch of {bs.name!r} failed its CRC check"
                )
        if self.estimated:
            wire = self.node.icap_raw.wire_time(bs.nbytes)
            inj = self.node.fault_injector
            if inj is not None and inj.span_aborted(
                self.node.icap.timings.n_chunks(bs.nbytes)
            ):
                self.node.icap.write_aborts += 1
                yield Delay(inj.abort_fraction() * wire)
                raise WriteAbort(
                    f"wire-only write of {bs.name!r} aborted"
                )
            yield Delay(wire)
        else:
            yield from self.node.icap.configure(bs, owner=owner)

    def _full_config_attempt(
        self, owner: str, fetch: bool = True
    ) -> Generator[Any, Any, None]:
        """One full-device configuration attempt through the vendor path."""
        if self.bitstream_source is not None and fetch:
            _, ok = yield from self.bitstream_source.transfer_ok(
                self.node.full_image.nbytes, owner=f"{owner}:fetch-full"
            )
            if not ok:
                raise TransferCorruption(
                    "full-bitstream server fetch failed its CRC check"
                )
        t_full = self.node.full_config_time(estimated=self.estimated)
        inj = self.node.fault_injector
        if inj is not None and inj.port_aborted():
            self.node.selectmap.write_aborts += 1
            yield Delay(inj.abort_fraction() * t_full)
            raise WriteAbort("vendor-port full configuration aborted")
        yield Delay(t_full)

    def _task_body(
        self, call: FunctionCall, timeline: Timeline, lane: str
    ) -> Generator[Any, Any, None]:
        sim = self.node.sim
        task = call.task
        if self.detailed_io and (task.data_in_bytes or task.data_out_bytes):
            t0 = sim.now
            if task.data_in_bytes:
                yield from self.node.link.inbound.transfer(
                    task.data_in_bytes, owner=f"{call.name}#{call.index}:in"
                )
                timeline.add(
                    Phase.DATA_IN, t0, sim.now, task=call.name, lane=lane
                )
            t0 = sim.now
            yield Delay(task.compute_time)
            timeline.add(Phase.COMPUTE, t0, sim.now, task=call.name, lane=lane)
            t0 = sim.now
            if task.data_out_bytes:
                yield from self.node.link.outbound.transfer(
                    task.data_out_bytes, owner=f"{call.name}#{call.index}:out"
                )
                timeline.add(
                    Phase.DATA_OUT, t0, sim.now, task=call.name, lane=lane
                )
        else:
            t0 = sim.now
            yield Delay(task.time)
            timeline.add(Phase.TASK, t0, sim.now, task=call.name, lane=lane)

    # -- stage bookkeeping (shared with the exact replay) ---------------------

    def _macro(self) -> bool:
        """May this run fold each stage into computed times?

        True unless ``detailed_io`` (task legs contend for the link) or
        a ``bitstream_source`` (blades share a fetch channel and one
        clock) is set.  Those runs spawn a task and a configuration
        process per stage: the reference model the folded stage
        reproduces.
        """
        return not self.detailed_io and self.bitstream_source is None

    def _first_resident(self, first: str) -> bool:
        """The startup image instantiates ``first``; is call 0 a hit?"""
        self.cache.fill(first)
        hit = not self.force_miss
        if hit:
            self.cache.stats.hits += 1
        else:
            self.cache.stats.misses += 1
        return hit

    def _lookahead(self, current: str, nxt: str) -> bool:
        """The prefetch decision about ``nxt``, made while ``current`` runs.

        Returns True on a hit (refreshing ``nxt``'s recency).  On a
        miss with room to overlap, ``nxt`` takes a slot now, with
        ``current`` pinned.
        """
        cache = self.cache
        resident = cache.contains(nxt)
        if resident and not self.force_miss:
            cache.stats.hits += 1
            cache.policy.on_access(nxt)
            return True
        cache.stats.misses += 1
        if not resident and cache.slots > 1:
            cache.fill(nxt, pinned={current})
        return False

    # -- main run -------------------------------------------------------------

    def launch(self, trace: CallTrace, lane: str = "prr") -> PendingRun:
        """Spawn the execution pipeline; does not advance the clock."""
        sim = self.node.sim
        timeline = Timeline()
        records: list[CallRecord] = []
        calls = list(trace)
        n = len(calls)
        macro = self._macro()
        control = self.control_time
        decision = self.decision_time
        #: hit flag per call, decided at lookahead (residency) time
        hit: list[bool] = [False] * n
        config_attr: list[float] = [0.0] * n
        #: per-call recovery accounting (filled when faults are recovered)
        outcomes: dict[int, ConfigOutcome] = {}
        fallback_attr: list[bool] = [False] * n

        # Observability instruments — the shared no-op NULL while
        # observability is disabled, so the hot path stays untouched.
        m_cache = obsm.counter("repro_cache_events_total")
        m_prefetch = obsm.counter("repro_prefetch_outcomes_total")
        m_calls = obsm.counter("repro_calls_total")
        m_configs = obsm.counter("repro_configurations_total")
        m_config_s = obsm.histogram("repro_config_seconds")
        m_stage_s = obsm.histogram("repro_stage_seconds")
        m_recovery_s = obsm.counter("repro_recovery_seconds_total")

        def startup() -> Generator[Any, Any, tuple[float, ConfigOutcome]]:
            t_start = sim.now
            if decision:
                t0 = sim.now
                yield Delay(decision)
                timeline.add(Phase.SETUP, t0, sim.now, note="initial decision")
            t0 = sim.now
            outcome = yield from resilient(
                sim,
                lambda fetch: self._full_config_attempt(lane, fetch),
                self.recovery,
                allow_fallback=False,
            )
            if outcome.degrade:
                timeline.add(Phase.CONFIG, t0, sim.now, note="degraded")
                return sim.now - t_start, outcome
            timeline.add(Phase.CONFIG, t0, sim.now, note="initial full")
            m_configs.inc(kind="full")
            m_config_s.observe(sim.now - t0, kind="full")
            # The full bitstream instantiates the first module in PRR 0.
            hit[0] = self._first_resident(calls[0].name)
            m_cache.inc(result="hit" if hit[0] else "miss")
            return sim.now - t_start, outcome

        def degrade_run(index: int, outcome: ConfigOutcome) -> None:
            """Record the call that never ran and flag the run degraded."""
            records.append(
                CallRecord(
                    index=calls[index].index,
                    task=calls[index].name,
                    hit=False,
                    start=sim.now,
                    end=sim.now,
                    config_time=0.0,
                    retries=outcome.retries,
                    refetches=outcome.refetches,
                    recovery_time=outcome.recovery_time,
                    failed=True,
                )
            )
            main_result["degraded"] = 1.0
            main_result["degraded_at"] = float(index)

        def lookahead(i: int) -> bool:
            """:meth:`_lookahead` for call ``i + 1``, counted; True on a hit."""
            is_hit = self._lookahead(calls[i].name, calls[i + 1].name)
            hit[i + 1] = is_hit
            result = "hit" if is_hit else "miss"
            m_cache.inc(result=result)
            m_prefetch.inc(result=result)
            return is_hit

        def partial(
            idx: int, module: str
        ) -> Generator[Any, Any, ConfigOutcome]:
            """Configure ``module`` for call ``idx``, recovering faults."""
            c0 = sim.now
            out = yield from resilient(
                sim,
                lambda fetch: self._configure_partial(
                    module, owner=f"cfg{idx}", fetch=fetch
                ),
                self.recovery,
                allow_fallback=True,
            )
            outcomes[idx] = out
            config_attr[idx] = sim.now - c0
            return out

        def partial_done(module: str, c0: float, end: float, note: str) -> None:
            """Log the partial configuration that ran over ``[c0, end)``."""
            timeline.add(
                Phase.CONFIG, c0, end, task=module, lane="icap", note=note
            )
            m_configs.inc(kind="partial")
            m_config_s.observe(end - c0, kind="partial")

        def spawned_stage(
            i: int, call: FunctionCall
        ) -> Generator[Any, Any, bool]:
            """Stage ``i`` as concurrent processes (the reference model).

            The task chain and, on an overlappable miss, the next
            call's configuration run as their own processes, joined by
            a barrier.  Returns whether a serial configuration follows.
            """
            if control:
                t0 = sim.now
                yield Delay(control)
                timeline.add(Phase.CONTROL, t0, sim.now, task=call.name)

            # Serial chain: the task, then the pre-fetch decision about
            # the next call.
            def chain() -> Generator[Any, Any, None]:
                yield from self._task_body(call, timeline, lane=lane)
                if decision:
                    t0 = sim.now
                    yield Delay(decision)
                    timeline.add(Phase.SETUP, t0, sim.now, task=call.name)

            branch_task = sim.spawn(chain(), name=f"task{i}")
            if i + 1 < n and not lookahead(i):
                if self.cache.slots == 1:
                    # Single PRR: the target region is the one executing;
                    # configure serially after the stage.
                    yield branch_task.done
                    return True
                module = calls[i + 1].name

                def cfg() -> Generator[Any, Any, None]:
                    c0 = sim.now
                    out = yield from partial(i + 1, module)
                    if out.ok:
                        partial_done(module, c0, sim.now, "partial")

                branch_cfg = sim.spawn(cfg(), name=f"cfg{i + 1}")
                yield AllOf([branch_task.done, branch_cfg.done])
            else:
                yield branch_task.done
            return False

        def macro_stage(
            i: int, call: FunctionCall
        ) -> Generator[Any, Any, bool]:
            """Stage ``i`` with the task chain as computed end times.

            On an overlappable miss the next call's configuration runs
            inline from the control end.  The stage then resumes at the
            chain end only if that is later (the barrier's max), and
            logs the task chain's spans and the configuration's in the
            order the reference model's events would have added them.
            Returns whether a serial configuration follows.
            """
            t_start = sim.now
            t_ctrl, t_task, t_chain = stage_times(
                t_start, control, call.task.time, decision
            )
            miss = i + 1 < n and not lookahead(i)
            if not miss or self.cache.slots == 1:
                if t_chain > t_start:
                    yield At(t_chain)
                if control:
                    timeline.add(
                        Phase.CONTROL, t_start, t_ctrl, task=call.name
                    )
                chain_done(call, t_ctrl, t_task, t_chain)
                return miss
            if control:
                yield At(t_ctrl)
                timeline.add(Phase.CONTROL, t_start, t_ctrl, task=call.name)
            module = calls[i + 1].name
            mark = [t_ctrl, 0]
            out = yield from _marked(sim, partial(i + 1, module), mark)
            t_cfg = sim.now
            if t_chain > t_cfg:
                yield At(t_chain)
            slot = (
                _config_slot(
                    t_ctrl, t_task, t_chain, t_cfg, mark[0], mark[1], decision
                )
                if out.ok
                else -1
            )
            chain_done(call, t_ctrl, t_task, t_chain, module, t_cfg, slot)
            return False

        def chain_done(
            call: FunctionCall,
            t_ctrl: float,
            t_task: float,
            t_chain: float,
            module: str = "",
            t_cfg: float = 0.0,
            slot: int = -1,
        ) -> None:
            """Log a computed task chain: the task, then the decision,
            with ``module``'s configuration at ``slot`` (:func:`_config_slot`;
            -1 for none)."""
            if slot == 0:
                partial_done(module, t_ctrl, t_cfg, "partial")
            timeline.add(Phase.TASK, t_ctrl, t_task, task=call.name, lane=lane)
            if slot == 1:
                partial_done(module, t_ctrl, t_cfg, "partial")
            if decision:
                timeline.add(Phase.SETUP, t_task, t_chain, task=call.name)
            if slot == 2:
                partial_done(module, t_ctrl, t_cfg, "partial")

        def main() -> Generator[Any, Any, None]:
            if macro:
                startup_time, startup_outcome = yield from startup()
            else:
                startup_proc = sim.spawn(startup(), name="prtr-startup")
                yield startup_proc.done
                startup_time, startup_outcome = startup_proc.result
            main_result["startup_time"] = startup_time
            main_result["startup_config"] = startup_time
            if startup_outcome.retries:
                main_result["startup_retries"] = float(
                    startup_outcome.retries
                )
                main_result["startup_recovery_time"] = (
                    startup_outcome.recovery_time
                )
            if startup_outcome.degrade:
                degrade_run(0, startup_outcome)
                return

            stage = macro_stage if macro else spawned_stage
            for i, call in enumerate(calls):
                stage_start = sim.now
                serial_cfg = yield from stage(i, call)
                if serial_cfg:
                    nxt = calls[i + 1]
                    t0 = sim.now
                    out = yield from partial(i + 1, nxt.name)
                    if out.ok:
                        partial_done(nxt.name, t0, sim.now, "partial-serial")
                        if not self.cache.contains(nxt.name):
                            self.cache.fill(nxt.name)

                out_i = outcomes.get(i)
                records.append(
                    CallRecord(
                        index=call.index,
                        task=call.name,
                        hit=hit[i],
                        start=stage_start,
                        end=sim.now,
                        config_time=config_attr[i],
                        slot=(
                            self.cache.slot_of(call.name)
                            if self.cache.contains(call.name)
                            else -1
                        ),
                        retries=out_i.retries if out_i else 0,
                        refetches=out_i.refetches if out_i else 0,
                        fallback_full=fallback_attr[i],
                        recovery_time=out_i.recovery_time if out_i else 0.0,
                    )
                )
                m_calls.inc(mode="prtr", lane=lane)
                m_stage_s.observe(sim.now - stage_start, mode="prtr")
                if out_i is not None and out_i.recovery_time:
                    m_recovery_s.inc(out_i.recovery_time)

                # Resolve a failed overlapped/serial configuration of the
                # next call *after* the stage barrier: the fallback full
                # reconfiguration holds the whole device in reset, so it
                # cannot overlap execution and stalls the pipeline here.
                out_next = outcomes.get(i + 1)
                if out_next is not None and not out_next.ok:
                    nxt = calls[i + 1]
                    # Undo the speculative residency fill — the partial
                    # write never completed.
                    if self.cache.contains(nxt.name):
                        self.cache.evict(nxt.name)
                    if out_next.fallback:
                        fallback_attr[i + 1] = True
                        t0 = sim.now
                        out2 = yield from resilient(
                            sim,
                            lambda fetch, o=f"cfg{i+1}-full": (
                                self._full_config_attempt(o, fetch)
                            ),
                            self.recovery,
                            allow_fallback=False,
                        )
                        out_next.retries += out2.retries
                        out_next.refetches += out2.refetches
                        out_next.recovery_time += out2.recovery_time
                        config_attr[i + 1] += sim.now - t0
                        if out2.degrade:
                            out_next.degrade = True
                        else:
                            timeline.add(
                                Phase.CONFIG,
                                t0,
                                sim.now,
                                task=nxt.name,
                                lane=lane,
                                note="fallback-full",
                            )
                            m_configs.inc(kind="full")
                            m_config_s.observe(sim.now - t0, kind="full")
                            # The full image wipes every PRR and leaves
                            # the next module instantiated in PRR 0.
                            for resident in self.cache.residents:
                                self.cache.evict(resident)
                            self.cache.fill(nxt.name)
                    if out_next.degrade:
                        degrade_run(i + 1, out_next)
                        return

        main_result: dict[str, float] = {}
        start = sim.now

        def wrapped() -> Generator[Any, Any, None]:
            yield from main()
            main_result["done_at"] = sim.now

        sim.spawn(wrapped(), name=f"prtr:{lane}")

        def build(interrupted: str | None = None) -> RunResult:
            end = main_result.get("done_at")
            if end is None:
                # Cancelled mid-run: the last stage barrier is the
                # honest partial makespan (zero if nothing finished).
                end = records[-1].end if records else start
            result = RunResult(
                mode="prtr",
                trace_name=trace.name,
                total_time=end - start,
                records=records,
                # Freeze: the executor is done writing, and aliased
                # references must not corrupt the finalized result.
                timeline=timeline.freeze(),
                startup_time=main_result.get("startup_time", 0.0),
                interrupted=interrupted is not None,
                interrupt_reason=interrupted or "",
            )
            result.notes["mean_task_time"] = trace.mean_task_time()
            result.notes["startup_config"] = main_result.get(
                "startup_config", 0.0
            )
            result.notes["t_config_full"] = self.node.full_config_time(
                estimated=self.estimated
            )
            for key in (
                "startup_retries",
                "startup_recovery_time",
                "degraded",
                "degraded_at",
            ):
                if key in main_result:
                    result.notes[key] = main_result[key]
            if calls:
                result.notes["t_config_partial"] = self.partial_config_time(
                    calls[0].name
                )
            return result

        return PendingRun(build)

    def run(self, trace: CallTrace) -> RunResult:
        """Execute the trace to completion on this node's simulator.

        The result is audited (:func:`repro.runtime.invariants
        .audit_and_record`): violations land in ``notes`` — or raise,
        in strict-invariants mode.  With power accounting enabled
        (:mod:`repro.power`), the energy ledger is stamped into the
        notes first, arming the ``energy-conservation`` check.
        """
        from ..power import annotate_energy
        from ..runtime.invariants import audit_and_record

        pending = self.launch(trace)
        self.node.sim.run()
        result = pending.finalize()
        obsm.gauge("repro_run_sim_seconds").set(
            result.total_time, mode="prtr"
        )
        obsm.gauge("repro_run_events").set(
            self.node.sim.events_processed, mode="prtr"
        )
        annotate_energy(result, trace, self.node)
        audit_and_record(result)
        return result


def run_prtr(
    trace: CallTrace,
    node: XD1Node | None = None,
    **kwargs: Any,
) -> RunResult:
    """One-shot convenience wrapper (builds a default dual-PRR node)."""
    if node is None:
        node = XD1Node(Simulator())
    return PrtrExecutor(node, **kwargs).run(trace)
