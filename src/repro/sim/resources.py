"""Shared-resource primitives for the DES kernel.

Two resource archetypes cover every piece of hardware we model:

* :class:`MutexResource` — an exclusive-ownership device (a configuration
  port, a memory bank, a PRR).  Requests queue FIFO; holders release
  explicitly.  Acquisition/holding intervals are recorded for trace
  validation (no two holders may ever overlap).

* :class:`BandwidthChannel` — a store-and-forward channel moving *bytes* at
  a fixed rate with an optional fixed per-transfer overhead (an I/O link, a
  configuration interface).  Transfers on the same channel serialize; the
  dual-channel RapidArray link of the Cray XD1 is modeled as two independent
  channels (one per direction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from .engine import Delay, EventSignal, SimulationError, Simulator
from .validate import check_number

__all__ = ["MutexResource", "BandwidthChannel", "Interval"]

#: 2**53: integer-valued floats up to here add exactly
_EXACT = float(2**53)


@dataclass(frozen=True)
class Interval:
    """A closed-open holding interval ``[start, end)`` on a resource."""

    start: float
    end: float
    owner: str

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end


class MutexResource:
    """Exclusive resource with FIFO queueing and interval accounting."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._holder: Optional[str] = None
        self._acquired_at: float = 0.0
        self._waiters: list[tuple[EventSignal, str]] = []
        self.intervals: list[Interval] = []

    @property
    def busy(self) -> bool:
        return self._holder is not None

    @property
    def holder(self) -> Optional[str]:
        return self._holder

    def acquire(self, owner: str) -> Generator[Any, Any, None]:
        """Process helper: ``yield from resource.acquire("me")``."""
        if self._holder is None:
            self._grant(owner)
            return
        sig = self.sim.signal(name=f"acq:{self.name}:{owner}")
        self._waiters.append((sig, owner))
        yield sig

    def release(self, owner: str) -> None:
        if self._holder != owner:
            raise SimulationError(
                f"{owner!r} released {self.name!r} held by {self._holder!r}"
            )
        self.intervals.append(
            Interval(self._acquired_at, self.sim.now, owner)
        )
        self._holder = None
        if self._waiters:
            sig, next_owner = self._waiters.pop(0)
            self._grant(next_owner)
            sig.succeed()

    def _grant(self, owner: str) -> None:
        self._holder = owner
        self._acquired_at = self.sim.now

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of ``[0, horizon]`` the resource was held."""
        horizon = self.sim.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        held = sum(iv.end - iv.start for iv in self.intervals)
        if self._holder is not None:
            held += self.sim.now - self._acquired_at
        return held / horizon

    def assert_no_overlap(self) -> None:
        """Raise if any two recorded holding intervals overlap."""
        ivs = sorted(self.intervals, key=lambda iv: iv.start)
        for a, b in zip(ivs, ivs[1:]):
            if a.overlaps(b):
                raise SimulationError(
                    f"overlapping holds on {self.name!r}: {a} vs {b}"
                )


class BandwidthChannel:
    """Serializing byte channel: ``time = overhead + nbytes / rate``.

    Parameters
    ----------
    rate:
        Sustained throughput in bytes per unit time.
    overhead:
        Fixed latency added to every transfer (API call cost, DMA setup...).
    injector:
        Optional fault oracle (:class:`repro.faults.FaultInjector`-shaped:
        ``transfer_corrupted(nbytes) -> bool`` plus the ``rng`` a
        macro-stepped burst pins).  Consulted once per :meth:`transfer_ok`
        call; corrupted transfers still pay their full wire time — the
        bytes moved, they just arrived wrong.

    A burst whose timing is folded in closed form (the macro-stepped
    ICAP configure) takes a :meth:`reserve` window instead of queueing
    on the channel: any transfer that starts inside the window raises
    :class:`SimulationError` rather than silently reordering, and the
    burst's transfers are booked afterwards through
    :meth:`record_burst`.  Its byte and transfer counts are booked
    there; its :class:`Interval` records are built only when something
    reads them (:attr:`intervals`, :meth:`utilization`,
    :meth:`assert_no_overlap`) or a per-transfer :meth:`transfer`
    appends after them, and come out exactly as per-transfer booking
    would have made them.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate: float,
        overhead: float = 0.0,
        injector: Any | None = None,
    ) -> None:
        check_number("channel rate", rate, positive=True)
        check_number("channel overhead", overhead)
        self.sim = sim
        self.name = name
        self.rate = rate
        self.overhead = overhead
        self.injector = injector
        self._mutex = MutexResource(sim, name=f"{name}.mutex")
        self.bytes_moved: float = 0.0
        self.transfer_count: int = 0
        self.corrupted_count: int = 0
        #: set by :meth:`declare_data_traffic`: payload transfers may
        #: contend with bitstream bursts on this channel
        self.data_traffic = False
        #: end of the active :meth:`reserve` window (None when unreserved)
        self.reserved_until: float | None = None
        #: :meth:`record_burst` bookings whose intervals are not built yet
        self._bursts: list[
            tuple[list[tuple[float, float]], str, list[tuple[int, bool]] | None]
        ] = []

    def transfer_time(self, nbytes: float) -> float:
        """Pure time model for a transfer of ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.overhead + nbytes / self.rate

    def transfer(
        self, nbytes: float, owner: str
    ) -> Generator[Any, Any, float]:
        """Process helper: move ``nbytes``; returns completion time.

        Ignores fault injection — use :meth:`transfer_ok` for payloads
        whose integrity matters (bitstreams).
        """
        until = self.reserved_until
        if until is not None and self.sim.now < until:
            raise SimulationError(
                f"transfer {owner!r} starts on {self.name!r} inside a "
                f"reserved window ending at {until!r} (now={self.sim.now!r})"
            )
        if self._bursts:
            self._expand_bursts()
        yield from self._mutex.acquire(owner)
        try:
            yield Delay(self.transfer_time(nbytes))
            self.bytes_moved += nbytes
            self.transfer_count += 1
        finally:
            self._mutex.release(owner)
        return self.sim.now

    def transfer_ok(
        self, nbytes: float, owner: str
    ) -> Generator[Any, Any, tuple[float, bool]]:
        """Like :meth:`transfer` but reports integrity.

        Returns ``(completion_time, ok)`` where ``ok`` is ``False`` when
        the channel's fault injector corrupted the payload in flight.
        Timing is identical to :meth:`transfer` in every case.
        """
        t = yield from self.transfer(nbytes, owner)
        ok = True
        if self.injector is not None and self.injector.transfer_corrupted(
            nbytes
        ):
            ok = False
            self.corrupted_count += 1
        return t, ok

    def declare_data_traffic(self) -> None:
        """Announce payload transfers on this channel.

        Bitstream bursts then stay on the per-transfer path, where they
        queue behind (and interleave with) the data instead of reserving
        the channel.
        """
        self.data_traffic = True

    def exclusive(self) -> bool:
        """True when nothing holds, awaits, reserves or shares the channel."""
        return (
            not self.data_traffic
            and not self._mutex.busy
            and not self._mutex._waiters
            and self.reserved_until is None
        )

    def reserve(self, until: float) -> None:
        """Claim the :meth:`exclusive` channel from now until ``until``.

        The holder books what it moved with :meth:`record` and ends the
        window with :meth:`release_reservation`.
        """
        self.reserved_until = until

    def record_burst(
        self,
        spans: list[tuple[float, float]],
        owner: str,
        sizes: tuple[int, ...],
        labels: list[tuple[int, bool]] | None = None,
    ) -> None:
        """Book transfers moved in closed form, one per ``[start, end)``.

        Without ``labels`` span ``k`` moved chunk ``k``: ``sizes[k]``
        bytes, owner ``f"{owner}:bs{k}"`` (a burst cut short by a fault
        has fewer spans than chunks).  With them, span ``k`` moved
        chunk ``labels[k] = (idx, retransmit)``, and a retransmit's
        owner ends in ``:rt``.  The byte and transfer counts change now;
        the intervals are built when first read.
        """
        if labels is not None:
            moved = [sizes[idx] for idx, _ in labels]
        elif len(spans) == len(sizes):
            moved = sizes
        else:
            moved = sizes[: len(spans)]
        total = sum(moved)
        b = self.bytes_moved
        if type(total) is int and b.is_integer() and b + total <= _EXACT:
            # every partial sum is an integer below 2**53, so the
            # per-transfer additions are exact and equal this one
            self.bytes_moved = b + total
        else:
            for nbytes in moved:
                b += nbytes
            self.bytes_moved = b
        self.transfer_count += len(spans)
        self._bursts.append((spans, owner, labels))

    def _expand_bursts(self) -> None:
        """Build the pending bursts' intervals, in booking order."""
        intervals = self._mutex.intervals
        for spans, owner, labels in self._bursts:
            if labels is None:
                intervals.extend(
                    Interval(start, end, f"{owner}:bs{idx}")
                    for idx, (start, end) in enumerate(spans)
                )
            else:
                intervals.extend(
                    Interval(
                        start, end,
                        f"{owner}:bs{idx}:rt" if rt else f"{owner}:bs{idx}",
                    )
                    for (start, end), (idx, rt) in zip(spans, labels)
                )
        self._bursts.clear()

    def release_reservation(self) -> None:
        """End the :meth:`reserve` window."""
        self.reserved_until = None

    @property
    def intervals(self) -> list[Interval]:
        """Every transfer's holding interval, in booking order."""
        if self._bursts:
            self._expand_bursts()
        return self._mutex.intervals

    def utilization(self, horizon: Optional[float] = None) -> float:
        if self._bursts:
            self._expand_bursts()
        return self._mutex.utilization(horizon)

    def assert_no_overlap(self) -> None:
        if self._bursts:
            self._expand_bursts()
        self._mutex.assert_no_overlap()
