"""Discrete-event simulation (DES) engine.

The whole hardware model in :mod:`repro.hardware` and the reconfiguration
executors in :mod:`repro.rtr` are built on this small, deterministic DES
kernel.  It follows the classic event-list design:

* a :class:`Simulator` owns a monotonically advancing clock and a priority
  queue of :class:`Event` records;
* *processes* are plain Python generators that ``yield`` scheduling
  primitives (:class:`Delay`, :class:`At`, :class:`WaitEvent`,
  :class:`AllOf`) and are resumed by the kernel when the corresponding
  condition is satisfied.

The engine is intentionally synchronous and single-threaded: determinism is
a hard requirement because the analytical model of the paper is exact, and
we validate the simulator against it to float precision.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield Delay(5.0)
...     log.append(sim.now)
>>> _ = sim.spawn(proc(sim))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Delay",
    "At",
    "WaitEvent",
    "AllOf",
    "EventSignal",
    "Process",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for scheduling violations (negative delays, dead kernels...)."""


@dataclass(frozen=True)
class Delay:
    """Yield from a process to suspend it for ``duration`` simulated time."""

    duration: float

    def __post_init__(self) -> None:
        # ``not >=`` so that NaN fails too: a NaN delay would set the
        # clock to NaN, after which every later time compares false.
        if not self.duration >= 0:
            raise SimulationError(
                f"negative delay: {self.duration!r} (must be a number >= 0)"
            )


@dataclass(frozen=True)
class At:
    """Yield from a process to resume it at absolute simulated ``time``.

    ``Delay(end - sim.now)`` makes the kernel compute
    ``now + (end - now)``, which is not always ``end`` in floating
    point.  ``At(end)`` schedules at ``end`` itself, so an end time
    folded outside the kernel (the macro-stepped ICAP configure) lands
    on the clock bit for bit.  The resume takes its ``(time, seq)`` key
    when the ``At`` is yielded, exactly like a :class:`Delay`.  A NaN
    time raises at construction, a time before ``now`` when yielded.
    """

    time: float

    def __post_init__(self) -> None:
        if self.time != self.time:
            raise SimulationError("At(nan): resume time must be a number")


class EventSignal:
    """A one-shot level-triggered signal processes may wait on.

    Once :meth:`succeed` fires, all current and *future* waiters resume
    immediately (future waiters resume at their wait time, i.e. a wait on an
    already-fired signal is a no-op).  A payload value is delivered to each
    waiter as the value of the ``yield`` expression.
    """

    __slots__ = ("_sim", "_fired", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._fired = False
        self._value: Any = None
        self._waiters: list["Process"] = []
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"signal {self.name!r} has not fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the signal, resuming every waiter at the current sim time."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim._schedule(self._sim.now, proc, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            self._sim._schedule(self._sim.now, proc, self._value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else "pending"
        return f"<EventSignal {self.name!r} {state}>"


@dataclass(frozen=True)
class WaitEvent:
    """Yield from a process to suspend it until ``signal`` fires."""

    signal: EventSignal


@dataclass(frozen=True)
class AllOf:
    """Yield from a process to wait until *all* signals have fired."""

    signals: tuple[EventSignal, ...]

    def __init__(self, signals: Iterable[EventSignal]) -> None:
        object.__setattr__(self, "signals", tuple(signals))


class Process:
    """A running generator coroutine inside a :class:`Simulator`.

    The generator yields :class:`Delay` / :class:`At` / :class:`WaitEvent` /
    :class:`AllOf` instances (or another :class:`Process` to join it).
    When the generator returns, :attr:`done` fires with the generator's
    return value.
    """

    __slots__ = ("sim", "gen", "done", "name", "_pending_join")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.done = EventSignal(sim, name=f"done:{self.name}")

    @property
    def finished(self) -> bool:
        return self.done.fired

    @property
    def result(self) -> Any:
        return self.done.value

    def _step(self, send_value: Any) -> None:
        try:
            target = self.gen.send(send_value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        self._dispatch(target)

    def _dispatch(self, target: Any) -> None:
        sim = self.sim
        if isinstance(target, Delay):
            sim._schedule(sim.now + target.duration, self, None)
        elif isinstance(target, WaitEvent):
            target.signal._add_waiter(self)
        elif isinstance(target, Process):
            target.done._add_waiter(self)
        elif isinstance(target, AllOf):
            self._wait_all(target.signals)
        elif isinstance(target, EventSignal):
            target._add_waiter(self)
        elif isinstance(target, At):
            # _schedule rejects a time before now
            sim._schedule(target.time, self, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"
            )

    def _wait_all(self, signals: tuple[EventSignal, ...]) -> None:
        pending = [s for s in signals if not s.fired]
        if not pending:
            self.sim._schedule(self.sim.now, self, None)
            return
        remaining = {"n": len(pending)}
        # Register a lightweight shim implementing the waiter protocol on
        # each pending signal; the last one to fire resumes the parent.
        parent = self

        class _Shim:
            __slots__ = ()

            def _step(self_inner, _value: Any) -> None:
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    parent.sim._schedule(parent.sim.now, parent, None)

        shim = _Shim()
        for sig in pending:
            sig._waiters.append(shim)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"


class Event:
    """Internal event-queue record; ordered by ``(time, seq)``.

    Hot-path record: ``__slots__`` plus a hand-written ``__lt__`` keep the
    heap sifts free of the tuple churn a ``dataclass(order=True)``
    comparator would pay on every comparison, and instances are pooled by
    the owning :class:`Simulator` so a long run allocates O(heap depth)
    events, not O(events processed).
    """

    __slots__ = ("time", "seq", "proc", "value")

    def __init__(self, time: float, seq: int, proc: Any, value: Any) -> None:
        self.time = time
        self.seq = seq
        self.proc = proc
        self.value = value

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


#: cap on the simulator's event free-list — bounds pool memory while still
#: covering any realistic heap depth in this codebase
_POOL_LIMIT = 1024


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    Attributes
    ----------
    now:
        Current simulation time.  Starts at ``0.0`` and never decreases.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[Event] = []
        #: zero-delay side queue: events scheduled at exactly ``now`` are
        #: drained FIFO without paying two O(log n) heap sifts each.  Any
        #: heap entry at the current time was inserted *before* the clock
        #: reached it, so its seq is smaller than every side-queue entry's
        #: and plain "heap first on time ties" preserves (time, seq) order.
        self._zero: deque[tuple[int, Any, Any]] = deque()
        self._next_seq = 0
        self._pool: list[Event] = []
        self._running = False
        self._event_count = 0
        #: optional cancellation hook (:class:`repro.runtime.watchdog.
        #: Watchdog`-shaped: ``after_event(sim)`` raising to cancel);
        #: duck-typed so the kernel stays dependency-free.  The
        #: :class:`repro.obs.profile.EventProfiler` rides the same slot
        #: (and chains any real watchdog behind it).
        self.watchdog: Any = None
        #: the process the most recent event was dispatched to — what a
        #: watchdog-slot hook (profiler) sees as "the event just run"
        self.last_process: Any = None

    # -- scheduling ------------------------------------------------------

    def _schedule(self, time: float, proc: Any, value: Any) -> None:
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        if time == now:
            self._zero.append((seq, proc, value))
            return
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.time = time
            ev.seq = seq
            ev.proc = proc
            ev.value = value
        else:
            ev = Event(time, seq, proc, value)
        heapq.heappush(self._queue, ev)

    def _pop(self) -> Optional[tuple[float, Any, Any]]:
        """The next ``(time, proc, value)`` in (time, seq) order, or None."""
        zero = self._zero
        queue = self._queue
        if zero:
            # Heap entries tied with ``now`` always precede side-queue
            # entries (smaller seq by construction — see __init__).
            if queue and queue[0].time == self.now:
                ev = heapq.heappop(queue)
            else:
                _seq, proc, value = zero.popleft()
                return (self.now, proc, value)
        elif queue:
            ev = heapq.heappop(queue)
        else:
            return None
        out = (ev.time, ev.proc, ev.value)
        ev.proc = None
        ev.value = None
        pool = self._pool
        if len(pool) < _POOL_LIMIT:
            pool.append(ev)
        return out

    def _peek_time(self) -> Optional[float]:
        """The timestamp of the next pending event, or None if drained."""
        if self._zero:
            return self.now
        if self._queue:
            return self._queue[0].time
        return None

    def spawn(
        self, gen: Generator[Any, Any, Any], name: str = ""
    ) -> Process:
        """Register a generator as a process starting at the current time."""
        proc = Process(self, gen, name=name)
        self._schedule(self.now, proc, None)
        return proc

    def signal(self, name: str = "") -> EventSignal:
        """Create a fresh :class:`EventSignal` bound to this simulator."""
        return EventSignal(self, name=name)

    def schedule_at(
        self, time: float, fn: Callable[[], None], name: str = "timer"
    ) -> Process:
        """Run ``fn`` as a one-shot process at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(f"schedule_at past time {time} < {self.now}")

        def timer() -> Generator[Any, Any, None]:
            yield Delay(time - self.now)
            fn()

        return self.spawn(timer(), name=name)

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` if the queue is empty."""
        entry = self._pop()
        if entry is None:
            return False
        time, proc, value = entry
        if time < self.now:  # pragma: no cover - guarded at insert
            raise SimulationError("event queue time went backwards")
        self.now = time
        self._event_count += 1
        self.last_process = proc
        proc._step(value)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or ``until`` is reached).

        Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            if until is None and self.watchdog is None:
                # Hot path: no deadline to poll and no per-event hook, so
                # drain without the peek/branch per event.
                while self.step():
                    pass
            else:
                while True:
                    t = self._peek_time()
                    if t is None:
                        break
                    if until is not None and t > until:
                        self.now = until
                        break
                    self.step()
                    if self.watchdog is not None:
                        self.watchdog.after_event(self)
        finally:
            self._running = False
        return self.now

    @property
    def events_processed(self) -> int:
        return self._event_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        queued = len(self._queue) + len(self._zero)
        return f"<Simulator now={self.now} queued={queued}>"
