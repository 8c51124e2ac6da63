"""The FRTR executor: every call pays a full reconfiguration (Fig. 3).

The baseline of the whole study.  Per call: download the full bitstream
through the vendor API (SelectMap), transfer control, run the task.  The
run total equals Eq. (1) exactly — a property test pins this.

Without a ``bitstream_source`` each call is one DES event: the
vendor-port abort is drawn at the call start, as the reference model
draws it, and the clean call resumes once at the end folded by
:func:`call_times`, which :func:`repro.model.hybrid.replay_frtr` calls
too.  With one, the reference model runs: one event per configuration,
control transfer and task.
"""

from __future__ import annotations

from typing import Any, Generator

from ..faults.errors import TransferCorruption, WriteAbort
from ..faults.recovery import RecoveryPolicy
from ..hardware.node import XD1Node
from ..obs import metrics as obsm
from ..sim.engine import At, Delay, Simulator
from ..sim.resources import BandwidthChannel
from ..sim.trace import Phase, Timeline
from ..workloads.task import CallTrace
from .events import CallRecord, RunResult
from .resilience import resilient

__all__ = ["FrtrExecutor", "PendingRun", "call_times", "run_frtr"]


def call_times(
    t: float, t_config: float, control: float, task_time: float
) -> tuple[float, float, float]:
    """``(config end, control end, task end)`` of a call started at ``t``.

    The additions the DES clock makes, in its order: the full
    configuration, the control transfer (skipped when zero, as the
    executor skips its ``Delay``), the task.  The executor's folded
    call and :func:`repro.model.hybrid.replay_frtr` both call this.
    """
    t_cfg = t + t_config
    t_ctrl = t_cfg + control if control else t_cfg
    return t_cfg, t_ctrl, t_ctrl + task_time


class PendingRun:
    """Handle for an executor launched into a shared simulator.

    Call :meth:`finalize` after the simulator has drained to obtain the
    :class:`RunResult`.  Used by the cluster executor to run many blades
    concurrently on one clock; single-node ``run()`` wraps it.

    ``finalize(interrupted=reason)`` builds a *partial* result from
    whatever the run recorded before a watchdog cancelled it — the
    result is marked :attr:`RunResult.interrupted` and may legitimately
    hold zero records.
    """

    def __init__(self, build: "Any") -> None:
        self._build = build
        self._result: RunResult | None = None

    # finalize() is PendingRun's accessor, not an entry point: every
    # caller (FrtrExecutor.run, the cluster executor) audits the result
    # before it escapes the runtime, so the audit-coverage rule would
    # double-count it here.
    def finalize(self, *, interrupted: str | None = None) -> RunResult:  # reprolint: disable=RL007
        if self._result is None:
            self._result = (
                self._build()
                if interrupted is None
                else self._build(interrupted)
            )
        return self._result


class FrtrExecutor:
    """Serial full-reconfiguration execution on one node.

    Parameters
    ----------
    node:
        The hardware model (provides the full-configuration time).
    estimated:
        Use the wire-only configuration time (Table 2 "estimated") instead
        of the vendor-API measured model.
    control_time:
        Transfer-of-control latency per call (``T_control``).
    bitstream_source:
        Optional shared channel bitstreams must be fetched over before
        each configuration (a cluster's bitstream-distribution backplane).
        ``None`` means bitstreams are local (the single-node experiments).
    recovery:
        Optional :class:`~repro.faults.recovery.RecoveryPolicy` applied
        when a configuration (server fetch or vendor-port write) fails.
        ``None`` (default) lets injected faults propagate out of
        ``Simulator.run`` — fail fast.
    """

    def __init__(
        self,
        node: XD1Node,
        *,
        estimated: bool = False,
        control_time: float | None = None,
        bitstream_source: BandwidthChannel | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.node = node
        self.estimated = estimated
        self.control_time = (
            node.params.control_time if control_time is None else control_time
        )
        if self.control_time < 0:
            raise ValueError("control_time must be >= 0")
        self.bitstream_source = bitstream_source
        self.recovery = recovery

    def _macro(self) -> bool:
        """May each call fold into one resume at its task end?

        True unless a ``bitstream_source`` is set: blades fetching over
        a shared channel on one clock keep the reference model, one
        event per configuration, control transfer and task.
        """
        return self.bitstream_source is None

    def launch(self, trace: CallTrace, lane: str = "main") -> PendingRun:
        """Spawn the execution process; does not advance the clock."""
        sim = self.node.sim
        timeline = Timeline()
        records: list[CallRecord] = []
        t_config = self.node.full_config_time(estimated=self.estimated)
        full_bytes = self.node.full_image.nbytes
        start = sim.now
        macro = self._macro()
        control = self.control_time

        notes_extra: dict[str, float] = {}

        # No-op NULL instruments while observability is disabled.
        m_calls = obsm.counter("repro_calls_total")
        m_configs = obsm.counter("repro_configurations_total")
        m_config_s = obsm.histogram("repro_config_seconds")
        m_stage_s = obsm.histogram("repro_stage_seconds")
        m_recovery_s = obsm.counter("repro_recovery_seconds_total")

        def config_attempt(
            call_index: int, fetch: bool
        ) -> Generator[Any, Any, None]:
            """One fetch + full-configuration try (may raise faults)."""
            if self.bitstream_source is not None and fetch:
                _, ok = yield from self.bitstream_source.transfer_ok(
                    full_bytes, owner=f"{lane}:fetch{call_index}"
                )
                if not ok:
                    raise TransferCorruption(
                        f"full-bitstream fetch for call {call_index} "
                        "failed its CRC check"
                    )
            # Full reconfiguration (the FPGA is held in reset; nothing
            # else can run, so a plain delay is faithful).  The abort is
            # drawn at the attempt start on both paths; the folded call
            # adds a clean write's ``t_config`` itself.
            inj = self.node.fault_injector
            if inj is not None and inj.port_aborted():
                self.node.selectmap.write_aborts += 1
                yield Delay(inj.abort_fraction() * t_config)
                raise WriteAbort(
                    f"vendor-port write aborted on call {call_index}"
                )
            if not macro:
                yield Delay(t_config)

        def config_done(call: Any, cfg_start: float, t_cfg: float) -> None:
            """Log the full configuration that ran over ``[cfg_start, t_cfg)``."""
            timeline.add(
                Phase.CONFIG, cfg_start, t_cfg, task=call.name,
                note="full", lane=lane,
            )
            m_configs.inc(kind="full")
            m_config_s.observe(t_cfg - cfg_start, kind="full")

        def main() -> Generator[Any, Any, None]:
            for call in trace:
                stage_start = sim.now
                cfg_start = sim.now
                outcome = yield from resilient(
                    sim,
                    lambda fetch, idx=call.index: config_attempt(idx, fetch),
                    self.recovery,
                    allow_fallback=False,
                )
                if outcome.degrade:
                    timeline.add(
                        Phase.CONFIG, cfg_start, sim.now, task=call.name,
                        note="degraded", lane=lane,
                    )
                    records.append(
                        CallRecord(
                            index=call.index,
                            task=call.name,
                            hit=False,
                            start=stage_start,
                            end=sim.now,
                            config_time=sim.now - stage_start,
                            retries=outcome.retries,
                            refetches=outcome.refetches,
                            recovery_time=outcome.recovery_time,
                            failed=True,
                        )
                    )
                    m_calls.inc(mode="frtr", lane=lane)
                    m_stage_s.observe(sim.now - stage_start, mode="frtr")
                    if outcome.recovery_time:
                        m_recovery_s.inc(outcome.recovery_time)
                    notes_extra["degraded"] = 1.0
                    notes_extra["degraded_at"] = float(call.index)
                    return
                if macro:
                    t_cfg, t_ctrl, t_end = call_times(
                        sim.now, t_config, control, call.task.time
                    )
                    yield At(t_end)
                    config_done(call, cfg_start, t_cfg)
                else:
                    t_cfg = sim.now
                    config_done(call, cfg_start, t_cfg)
                    if control:
                        yield Delay(control)
                    t_ctrl = sim.now
                    yield Delay(call.task.time)
                    t_end = sim.now
                timeline.add(
                    Phase.CONTROL, t_cfg, t_ctrl, task=call.name, lane=lane
                )
                timeline.add(
                    Phase.TASK, t_ctrl, t_end, task=call.name, lane=lane
                )
                records.append(
                    CallRecord(
                        index=call.index,
                        task=call.name,
                        hit=False,
                        start=stage_start,
                        end=sim.now,
                        config_time=sim.now - stage_start
                        - call.task.time - control,
                        retries=outcome.retries,
                        refetches=outcome.refetches,
                        recovery_time=outcome.recovery_time,
                    )
                )
                m_calls.inc(mode="frtr", lane=lane)
                m_stage_s.observe(sim.now - stage_start, mode="frtr")
                if outcome.recovery_time:
                    m_recovery_s.inc(outcome.recovery_time)

        sim.spawn(main(), name=f"frtr:{lane}")

        def build(interrupted: str | None = None) -> RunResult:
            total = (records[-1].end - start) if records else 0.0
            result = RunResult(
                mode="frtr",
                trace_name=trace.name,
                total_time=total,
                records=records,
                # Freeze: the executor is done writing; aliased list refs
                # (the cluster merges many of these) must not corrupt it.
                timeline=timeline.freeze(),
                startup_time=0.0,
                interrupted=interrupted is not None,
                interrupt_reason=interrupted or "",
            )
            result.notes["mean_task_time"] = trace.mean_task_time()
            result.notes["t_config_full"] = t_config
            result.notes.update(notes_extra)
            return result

        return PendingRun(build)

    def run(self, trace: CallTrace) -> RunResult:
        """Execute the trace; returns the measured :class:`RunResult`.

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
            result.total_time, mode="frtr"
        )
        obsm.gauge("repro_run_events").set(
            self.node.sim.events_processed, mode="frtr"
        )
        annotate_energy(result, trace, self.node)
        audit_and_record(result)
        return result


def run_frtr(
    trace: CallTrace,
    node: XD1Node | None = None,
    *,
    estimated: bool = False,
    control_time: float | None = None,
) -> RunResult:
    """One-shot convenience wrapper (builds a default node if needed)."""
    if node is None:
        node = XD1Node(Simulator())
    return FrtrExecutor(
        node, estimated=estimated, control_time=control_time
    ).run(trace)
