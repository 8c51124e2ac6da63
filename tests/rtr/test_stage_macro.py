"""Folded PRTR stages and FRTR calls: the same bytes as spawned processes.

With ``detailed_io`` off and no ``bitstream_source``, a PRTR stage keeps
its task chain as computed end times and drives the next call's
configuration inline, and an FRTR call resumes once, at its task end.
Each case below runs twice: once with ``PrtrExecutor._macro`` and
``FrtrExecutor._macro`` forced False (the spawned task and
configuration processes, the reference model) and once as shipped.
Results (records and timelines, order included), materialized link
intervals, ICAP counters, injector ``FaultStats`` and random-stream
state and the obs snapshot must agree; only DES event counts differ.
The tie tests construct exact float ties between the task chain and a
configuration end, where the timeline order is decided by the order
in which the reference model scheduled its events.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.reliability import (
    effective_speedup_under_faults,
    trace_with_hit_ratio,
)
from repro.experiments import fig9
from repro.faults import CrcChecker, FallbackPolicy, RetryPolicy, Scrubber
from repro.faults.injector import FaultConfig, FaultInjector
from repro.hardware import single_prr_floorplan
from repro.rtr.frtr import FrtrExecutor
from repro.rtr.prtr import PrtrExecutor, _config_slot
from repro.rtr.runner import compare, make_node
from repro.service import ServiceConfig, default_tenants, run_service
from repro.sim import At, Delay, Simulator
from repro.sim.trace import Phase
from repro.workloads.task import CallTrace, HardwareTask
from tests.hardware.test_macro_configure import (
    CHUNKED,
    DUAL_BYTES,
    POLICIES,
    _run,
    assert_shadow_identical,
    assert_shadow_identical_result,
)

#: the spawned reference processes for every stage and call
STAGES = ((PrtrExecutor, "_macro"), (FrtrExecutor, "_macro"))


def _prtr(trace, *, fault=None, floorplan=None, crc=None, **kwargs):
    """A fresh PRTR run of ``trace`` on a fresh node."""
    injector = None if fault is None else FaultInjector(fault)
    node = make_node(floorplan, fault_injector=injector, crc=crc)
    kwargs.setdefault("bitstream_bytes", DUAL_BYTES)
    return PrtrExecutor(node, **kwargs).run(trace)


def _frtr(trace, *, fault=None, **kwargs):
    """A fresh FRTR run of ``trace`` on a fresh node."""
    injector = None if fault is None else FaultInjector(fault)
    return FrtrExecutor(make_node(fault_injector=injector), **kwargs).run(
        trace
    )


def _cyclic(n_calls: int, task_time: float, pool: int = 3) -> CallTrace:
    lib = [HardwareTask(f"m{k}", task_time) for k in range(pool)]
    return CallTrace([lib[k % pool] for k in range(n_calls)], name="cyclic")


class TestFaultedGrid:
    """The faulted PRTR grid of `test_macro_configure`, spawned stages vs
    folded stages."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize(
        "coverage,check_bandwidth",
        [(1.0, 0.0), (1.0, 50e6), (0.7, 0.0), (0.7, 50e6)],
    )
    @pytest.mark.parametrize("chunk_abort_rate", [0.0, 1e-3, 3e-2])
    @pytest.mark.parametrize("transfer_ber", [0.0, 2e-6, 2e-5])
    def test_prtr_fault_grid(
        self, transfer_ber, chunk_abort_rate, coverage, check_bandwidth,
        policy,
    ):
        fault = FaultConfig(
            transfer_ber=transfer_ber,
            chunk_abort_rate=chunk_abort_rate,
            seed=7,
        )
        crc = CrcChecker(bandwidth=check_bandwidth, coverage=coverage)

        def run():
            return [
                _prtr(
                    trace_with_hit_ratio(hit_ratio, 12, 0.1),
                    fault=fault, crc=crc, recovery=POLICIES[policy](),
                )
                for hit_ratio in (0.0, 0.5, 0.9)
            ]

        ev_reference, ev_macro = assert_shadow_identical(run, STAGES)
        assert ev_macro < ev_reference


class TestCases:
    @pytest.mark.parametrize("reference", [STAGES, STAGES + CHUNKED])
    def test_fault_free_compare_point(self, reference):
        p = fig9.panel("measured")
        trace = fig9._cyclic_trace(task_time=0.5 * p.t_frtr, n_calls=24)
        ev_reference, ev_macro = assert_shadow_identical(
            lambda: compare(
                trace,
                estimated=p.estimated,
                control_time=p.t_control,
                force_miss=True,
                bitstream_bytes=DUAL_BYTES,
            ),
            reference,
        )
        assert ev_macro < ev_reference / 2

    @pytest.mark.parametrize("rate", [0.0, 1e-2])
    @pytest.mark.parametrize("reference", [STAGES, STAGES + CHUNKED])
    def test_sweep_cell(self, rate, reference):
        ev_reference, ev_macro = assert_shadow_identical(
            lambda: effective_speedup_under_faults(
                rate, 0.5, n_calls=24, hybrid="off"
            ),
            reference,
        )
        assert ev_macro < ev_reference / 2

    @pytest.mark.parametrize(
        "fault", [None, FaultConfig(chunk_abort_rate=3e-2, seed=5)]
    )
    def test_single_prr(self, fault):
        def run():
            return [
                _prtr(
                    _cyclic(10, 0.05), fault=fault,
                    floorplan=single_prr_floorplan(), recovery=policy,
                )
                for policy in (RetryPolicy(), FallbackPolicy())
            ]

        assert_shadow_identical(run, STAGES)

    @pytest.mark.parametrize("task_time", [0.004, 0.05])
    @pytest.mark.parametrize(
        "fault", [None, FaultConfig(chunk_abort_rate=3e-2, seed=5)]
    )
    def test_decision_time(self, task_time, fault):
        def run():
            return [
                _prtr(
                    trace_with_hit_ratio(hit_ratio, 16, task_time),
                    fault=fault, decision_time=0.01, recovery=RetryPolicy(),
                )
                for hit_ratio in (0.0, 0.5)
            ]

        assert_shadow_identical(run, STAGES)

    @pytest.mark.parametrize(
        "fault", [None, FaultConfig(chunk_abort_rate=3e-2, seed=5)]
    )
    def test_zero_control_time(self, fault):
        def run():
            return [
                _prtr(
                    trace_with_hit_ratio(hit_ratio, 16, 0.01),
                    fault=fault, control_time=0.0, recovery=FallbackPolicy(),
                )
                for hit_ratio in (0.0, 0.5)
            ]

        assert_shadow_identical(run, STAGES)

    def test_estimated(self):
        fault = FaultConfig(chunk_abort_rate=1e-2, seed=2)

        def run():
            return _prtr(
                _cyclic(12, 0.02), fault=fault, estimated=True,
                recovery=RetryPolicy(),
            )

        assert_shadow_identical(run, STAGES)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("control_time", [None, 0.0])
    def test_frtr_port_aborts(self, policy, control_time):
        fault = FaultConfig(port_abort_rate=0.2, seed=11)

        def run():
            return _frtr(
                _cyclic(12, 0.05), fault=fault, control_time=control_time,
                recovery=POLICIES[policy](),
            )

        ev_reference, ev_macro = assert_shadow_identical(run, STAGES)
        # fail-fast may end the run at the first call's abort
        assert ev_macro <= ev_reference

    def test_frtr_with_a_scrubber_sharing_the_injector(self):
        # No draw of a folded call moves in time, so another process
        # drawing from the same stream mid-call interleaves as on the
        # reference path.  An exact tie at a call's end could reorder
        # them (docs/PERFORMANCE.md, "Tie order for the FRTR call
        # resume"); this scrubber's period makes none.
        fault = FaultConfig(port_abort_rate=0.2, seu_rate=40.0, seed=11)

        def run():
            injector = FaultInjector(fault)
            node = make_node(fault_injector=injector)
            scrubber = Scrubber(node.sim, injector, 2, interval=0.37)
            scrubber.start(50)
            result = FrtrExecutor(node, recovery=RetryPolicy()).run(
                _cyclic(12, 0.05)
            )
            return result, scrubber.cycles

        result, cycles = assert_shadow_identical_result(run, STAGES)
        assert sum(c.upsets_found for c in cycles) > 0
        assert result.n_retries > 0

    @pytest.mark.parametrize("policy", ["fallback", "degrade"])
    def test_prtr_port_aborts(self, policy):
        # startup and fallback full configurations draw port aborts
        fault = FaultConfig(
            chunk_abort_rate=5e-2, port_abort_rate=0.3, seed=3
        )

        def run():
            return _prtr(
                trace_with_hit_ratio(0.3, 16, 0.05), fault=fault,
                recovery=POLICIES[policy](),
            )

        assert_shadow_identical(run, STAGES)


class TestStructuralCounters:
    """Exact DES event counts of the folded paths.

    Deterministic, so pinned exactly: a hot-path change that adds
    events fails here with zero noise.  FRTR resumes once per call;
    a PRTR hit stage once; a miss stage at the control end, at the
    configuration end and, if the chain ends later, at the chain end.
    """

    @staticmethod
    def _cell(executor_cls, rate: float) -> tuple[int, int]:
        """(events, retries) of one 40-call sweep-cell executor run."""
        config = FaultConfig(chunk_abort_rate=rate, seed=0)
        node = make_node(fault_injector=FaultInjector(config))
        result = executor_cls(
            node, recovery=FallbackPolicy(max_attempts=3, backoff=0.05, cap=0.2)
        ).run(trace_with_hit_ratio(0.5, 40, 0.1))
        return node.sim.events_processed, sum(
            r.retries for r in result.records
        )

    @pytest.mark.parametrize(
        "executor_cls,rate,events,retries",
        [
            (FrtrExecutor, 0.0, 41, 0),
            (FrtrExecutor, 1e-2, 41, 0),
            (PrtrExecutor, 0.0, 82, 0),
            (PrtrExecutor, 1e-2, 92, 5),
        ],
    )
    def test_sweep_cell(self, executor_cls, rate, events, retries):
        assert self._cell(executor_cls, rate) == (events, retries)

    def test_service_run(self):
        result = run_service(
            default_tenants(), ServiceConfig(horizon=5.0), seed=3
        )
        assert result.notes["events"] == 1189.0
        assert sum(t.completed for t in result.tenants) == 177

    def test_prtr_hit_stage_is_one_event(self):
        # every call after the first hits: spawn, the startup's full
        # configuration, then one resume per stage
        trace = CallTrace([HardwareTask("m0", 0.05)] * 10, name="hits")
        node = make_node()
        PrtrExecutor(node).run(trace)
        assert node.sim.events_processed == 2 + 10


def _nudge(f, x: float, target: float) -> float:
    """Step ``x`` an ulp at a time until ``f(x) == target`` exactly
    (``f`` non-decreasing)."""
    for _ in range(100_000):
        y = f(x)
        if y == target:
            return x
        x = math.nextafter(x, math.inf if y < target else -math.inf)
    raise AssertionError(f"no exact tie near {x!r}")


class TestTieOrder:
    """Exact ties between the task chain and the configuration end.

    Call 0 runs for ``first`` seconds, then decides for ``decision``;
    call 1 misses, so its configuration runs from the control end.
    """

    def _run_pair(self, first, decision, fault=None, recovery=None):
        trace = CallTrace(
            [HardwareTask("m0", first), HardwareTask("m1", 0.05)],
            name="tie",
        )

        def run():
            return _prtr(
                trace, fault=fault, decision_time=decision,
                recovery=recovery,
            )

        assert_shadow_identical(run, STAGES)
        return _run(run, macro=True)[0]

    def _spans(self, result) -> dict[str, float]:
        """End times: stage 0's control, task and decision; call 1's
        configuration."""
        ends = {}
        for s in result.timeline.spans:
            if s.task == "m0" and s.phase in (
                Phase.CONTROL, Phase.TASK, Phase.SETUP
            ):
                ends[s.phase] = s.end
            elif s.note == "partial":
                ends[Phase.CONFIG] = s.end
        return ends

    def _order(self, result) -> list[str]:
        """Phases of stage 0's chain and call 1's configuration."""
        return [
            s.phase for s in result.timeline.spans
            if (s.task == "m0" and s.phase in (Phase.TASK, Phase.SETUP))
            or s.note == "partial"
        ]

    def test_task_end_ties_config_end(self):
        ends = self._spans(self._run_pair(0.05, 0.0))
        t_ctrl = ends[Phase.CONTROL]
        first = _nudge(
            lambda x: t_ctrl + x, ends[Phase.CONFIG] - t_ctrl,
            ends[Phase.CONFIG],
        )
        result = self._run_pair(first, 0.0)
        ends = self._spans(result)
        assert ends[Phase.TASK] == ends[Phase.CONFIG]
        # the task's resume was scheduled first, at the stage start
        assert self._order(result) == [Phase.TASK, Phase.CONFIG]

    def _decision_tie(self, decision, fault=None, recovery=None):
        """Call 0's task time putting its decision end on call 1's
        configuration end."""
        ends = self._spans(self._run_pair(1e-4, decision, fault, recovery))
        t_ctrl, end = ends[Phase.CONTROL], ends[Phase.CONFIG]
        first = _nudge(
            lambda x: (t_ctrl + x) + decision, end - decision - t_ctrl, end
        )
        result = self._run_pair(first, decision, fault, recovery)
        ends = self._spans(result)
        assert ends[Phase.SETUP] == ends[Phase.CONFIG]
        return result

    def test_decision_end_ties_config_end(self):
        result = self._decision_tie(1e-3)
        # the configuration's resume was scheduled at the stage start,
        # before the task ended and scheduled the decision's
        assert self._order(result) == [Phase.TASK, Phase.CONFIG, Phase.SETUP]

    def test_retried_config_ties_decision_end(self):
        # The configuration's last resume is scheduled by its retry,
        # which starts after the task ended (the decision outlasts a
        # whole configuration), so the decision's event runs first.
        decision = 0.03
        for seed in range(500):
            fault = FaultConfig(chunk_abort_rate=3e-2, seed=seed)
            probe = self._run_pair(1e-4, decision, fault, RetryPolicy())
            # (a tuple: the fault escaped the retry budget)
            if isinstance(probe, tuple) or probe.records[1].retries != 1:
                continue
            ends = self._spans(probe)
            if ends[Phase.CONFIG] - ends[Phase.CONTROL] > decision + 1e-3:
                break
        else:
            raise AssertionError("no seed retries call 1's configuration")
        result = self._decision_tie(decision, fault, RetryPolicy())
        assert self._order(result) == [Phase.TASK, Phase.SETUP, Phase.CONFIG]

    def test_absorbed_task_decision_tie(self):
        # A task shorter than half an ulp of the clock ends on the
        # control end.  The configuration's first step (spawned second)
        # then runs before the task's resume, so the configuration's
        # event precedes the decision's.  The decision time also sets
        # the startup delay, so solve the tie on the whole fold.
        node = make_node()
        t_full = node.full_config_time(estimated=False)
        control = node.params.control_time
        plan = node.icap.plan(DUAL_BYTES)

        def t_ctrl(decision):
            return (decision + t_full) + control

        decision = plan.end_time(1.0) - 1.0
        for _ in range(100_000):
            if t_ctrl(decision) + decision == plan.end_time(t_ctrl(decision)):
                break
            decision = math.nextafter(decision, math.inf)
        else:
            raise AssertionError("no exact tie")
        result = self._run_pair(1e-30, decision)
        ends = self._spans(result)
        assert ends[Phase.TASK] == ends[Phase.CONTROL]
        assert ends[Phase.SETUP] == ends[Phase.CONFIG]
        assert self._order(result) == [Phase.TASK, Phase.CONFIG, Phase.SETUP]


class TestConfigSlot:
    """``_config_slot`` against the kernel's own order.

    A stage is replayed the spawned way on a bare simulator: at
    ``t_ctrl`` the task chain is spawned, then a configuration process
    that yields at each of ``stops`` (fractions of the way to the task
    end, or the named instants) and ends at ``end``.  The order in which
    the processes log must be the slot ``_config_slot`` predicts.
    """

    T_CTRL = 1.25

    def _order(self, task, decision, stops, end) -> tuple[list[str], int]:
        sim = Simulator()
        t_ctrl = self.T_CTRL
        t_task = t_ctrl + task
        t_chain = t_task + decision if decision else t_task
        instants = {"ctrl": t_ctrl, "task": t_task, "chain": t_chain}
        log: list[str] = []
        last = [t_ctrl, 0]

        def chain():
            yield Delay(task)
            log.append("task")
            if decision:
                yield Delay(decision)
                log.append("setup")

        def cfg():
            for stop in stops:
                last[:] = [sim.now, last[1] + 1]
                yield At(instants.get(stop, stop))
            last[:] = [sim.now, last[1] + 1]
            yield At(instants[end])
            log.append("config")

        def stage():
            yield At(t_ctrl)
            sim.spawn(chain())
            sim.spawn(cfg())

        sim.spawn(stage())
        sim.run()
        slot = _config_slot(
            t_ctrl, t_task, t_chain, instants[end], last[0], last[1], decision
        )
        return log, slot

    @pytest.mark.parametrize(
        "task,decision,stops,end",
        [
            (0.5, 0.0, [], "task"),            # tie with the task end
            (0.5, 0.0, [1.5], "task"),
            (0.5, 0.25, [], "task"),
            (0.5, 0.25, [], "chain"),          # yielded at the stage start
            (0.5, 0.25, [1.5], "chain"),       # yielded before the task end
            (0.5, 0.25, ["task"], "chain"),    # yielded at the task end
            (0.5, 0.25, [1.9], "chain"),       # yielded after the task end
            (1e-30, 0.25, [], "chain"),        # absorbed task, first step
            (1e-30, 0.25, ["ctrl"], "chain"),  # absorbed task, later step
        ],
    )
    def test_matches_kernel_order(self, task, decision, stops, end):
        log, slot = self._order(task, decision, stops, end)
        assert log.index("config") == slot
