"""Edge cases of the DES kernel and executor plumbing."""

from __future__ import annotations

import pytest

from repro.rtr.frtr import PendingRun
from repro.sim import (
    AllOf,
    Delay,
    EventSignal,
    SimulationError,
    Simulator,
    WaitEvent,
)


class TestReentrancy:
    def test_run_inside_run_raises(self):
        sim = Simulator()

        def proc():
            yield Delay(1.0)
            sim.run()  # illegal: the kernel is not reentrant

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="not reentrant"):
            sim.run()

    def test_run_after_drain_is_fine(self):
        sim = Simulator()

        def proc():
            yield Delay(1.0)

        sim.spawn(proc())
        sim.run()
        sim.spawn(proc())
        assert sim.run() == 2.0


class TestStep:
    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_processes_one_event(self):
        sim = Simulator()
        log = []

        def proc():
            log.append("a")
            yield Delay(1.0)
            log.append("b")

        sim.spawn(proc())
        assert sim.step() is True  # spawn event -> runs to first yield
        assert log == ["a"]
        assert sim.step() is True
        assert log == ["a", "b"]
        assert sim.step() is False


class TestPendingRun:
    def test_finalize_caches_result(self):
        calls = []

        def build():
            calls.append(1)
            return "result"

        pending = PendingRun(build)
        assert pending.finalize() == "result"
        assert pending.finalize() == "result"
        assert calls == [1]


class TestProcessReturnValues:
    def test_generator_return_value_propagates(self):
        sim = Simulator()

        def child():
            yield Delay(1.0)
            return {"answer": 42}

        proc = sim.spawn(child())
        sim.run()
        assert proc.result == {"answer": 42}

    def test_immediate_return(self):
        sim = Simulator()

        def child():
            return "done"
            yield  # pragma: no cover - makes it a generator

        proc = sim.spawn(child())
        sim.run()
        assert proc.result == "done"


class TestWaitOnFiredSignal:
    def test_wait_on_already_fired_signal_resumes_immediately(self):
        sim = Simulator()
        sig = EventSignal(sim, name="early")
        sig.succeed("payload")
        seen = []

        def proc():
            value = yield WaitEvent(sig)
            seen.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        # The wait is a no-op: resume at the wait time with the payload.
        assert seen == [(0.0, "payload")]

    def test_late_waiter_does_not_advance_clock(self):
        sim = Simulator()
        sig = EventSignal(sim)

        def firer():
            yield Delay(2.0)
            sig.succeed()

        def waiter():
            yield Delay(5.0)
            yield WaitEvent(sig)  # fired at t=2, we arrive at t=5
            assert sim.now == 5.0

        sim.spawn(firer())
        sim.spawn(waiter())
        assert sim.run() == 5.0

    def test_double_fire_raises(self):
        sim = Simulator()
        sig = EventSignal(sim, name="once")
        sig.succeed()
        with pytest.raises(SimulationError, match="fired twice"):
            sig.succeed()


class TestEmptyAllOf:
    def test_empty_allof_resumes_immediately(self):
        sim = Simulator()
        log = []

        def proc():
            yield AllOf([])
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [0.0]

    def test_allof_over_fired_signals_is_immediate(self):
        sim = Simulator()
        sigs = [EventSignal(sim) for _ in range(3)]
        for s in sigs:
            s.succeed()
        log = []

        def proc():
            yield Delay(1.0)
            yield AllOf(sigs)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [1.0]


class TestNegativeDelay:
    def test_negative_delay_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="negative delay"):
            Delay(-1.0)

    def test_negative_delay_inside_process(self):
        sim = Simulator()

        def proc():
            yield Delay(-0.5)

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="negative delay"):
            sim.run()


class TestNanDelay:
    def test_nan_delay_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="negative delay: nan"):
            Delay(float("nan"))

    def test_nan_delay_inside_process_leaves_the_clock(self):
        # accepted, it set ``now`` to NaN and the next event moved the
        # clock back to an earlier number
        sim = Simulator()

        def proc():
            yield Delay(1.0)
            yield Delay(float("nan"))

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="negative delay"):
            sim.run()
        assert sim.now == 1.0


class TestExceptionPropagation:
    def test_process_exception_escapes_run(self):
        sim = Simulator()

        def bad():
            yield Delay(1.0)
            raise ValueError("boom at t=1")

        sim.spawn(bad())
        with pytest.raises(ValueError, match="boom at t=1"):
            sim.run()

    def test_exception_in_child_seen_by_yield_from_parent(self):
        sim = Simulator()
        caught = []

        def child():
            yield Delay(1.0)
            raise RuntimeError("deep fault")

        def parent():
            try:
                yield from child()
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(parent())
        sim.run()
        assert caught == ["deep fault"]
