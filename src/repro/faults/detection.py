"""Fault *detection*: per-chunk CRC checks and configuration scrubbing.

Two mechanisms cover the two fault domains:

* **CRC** — every :class:`~repro.hardware.bitstream.Bitstream` carries a
  deterministic CRC-32 per BRAM chunk (see ``Bitstream.chunk_crcs``).
  :class:`CrcChecker` models the *cost* and *coverage* of verifying it:
  checking is free by default (the Fig. 7 state machine can fold a CRC
  into the drain at wire speed), and coverage below 1.0 models checksum
  escapes — corrupted chunks that slip through and become silent data
  corruption.

* **Scrubbing** — configuration-memory SEUs are invisible to transfer
  CRCs; they strike frames *after* configuration.  :class:`Scrubber` is a
  DES process that periodically reads back every configured region,
  counts the upsets the injector accumulated since the last cycle, and
  repairs them with a partial reconfiguration per upset.  Its log yields
  MTTR/availability statistics for :mod:`repro.analysis.reliability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..sim.engine import Delay, Process, Simulator
from ..sim.validate import check_number
from .injector import FaultInjector

__all__ = ["CrcChecker", "Scrubber", "ScrubCycle"]


@dataclass(frozen=True)
class CrcChecker:
    """Cost/coverage model of a per-chunk CRC verification stage.

    Parameters
    ----------
    bandwidth:
        Bytes/second the checker can hash; ``0`` means the check is free
        (pipelined into the chunk drain) — the default, which keeps
        fault-free runs bit-identical to the pre-fault baseline.
    coverage:
        Probability a corrupted chunk is actually flagged.  Below 1.0 the
        checker can miss, turning an injected corruption into silent data
        corruption (counted by the caller, not retried).
    """

    bandwidth: float = 0.0
    coverage: float = 1.0

    def __post_init__(self) -> None:
        check_number("CRC bandwidth", self.bandwidth)
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0,1]: {self.coverage}")

    def check_time(self, nbytes: float) -> float:
        """Seconds to verify ``nbytes`` (0 when the check is pipelined)."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        if self.bandwidth <= 0:
            return 0.0
        return nbytes / self.bandwidth

    def detects(self, injector: FaultInjector | None) -> bool:
        """Does the checker flag a (known-corrupted) chunk?

        Full coverage never consumes a draw; partial coverage draws from
        the injector's stream (falling back to certain detection when no
        stream is available, to stay deterministic).
        """
        if self.coverage >= 1.0 or injector is None:
            return True
        return bool(injector.rng.random() < self.coverage)


@dataclass(frozen=True)
class ScrubCycle:
    """One completed readback/scrub pass."""

    start: float
    end: float
    upsets_found: int
    repair_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Scrubber:
    """Periodic configuration readback + repair over a set of regions.

    The scrubber wakes every ``interval`` seconds, reads back all
    ``n_regions`` configured regions (``readback_time`` each), asks the
    injector how many SEUs accumulated since the previous pass, and
    repairs each upset with one partial reconfiguration
    (``repair_time``).  Upsets are therefore *detected* with a latency
    uniform over the scrub interval (mean ``interval / 2``) and
    *repaired* immediately after detection — the classic blind-scrub
    organization.
    """

    def __init__(
        self,
        sim: Simulator,
        injector: FaultInjector,
        n_regions: int,
        *,
        interval: float,
        readback_time: float = 0.0,
        repair_time: float = 0.0,
        name: str = "scrubber",
    ) -> None:
        if n_regions <= 0:
            raise ValueError("need at least one region to scrub")
        if interval <= 0:
            raise ValueError(f"scrub interval must be positive: {interval}")
        if readback_time < 0 or repair_time < 0:
            raise ValueError("readback/repair times must be >= 0")
        self.sim = sim
        self.injector = injector
        self.n_regions = n_regions
        self.interval = interval
        self.readback_time = readback_time
        self.repair_time = repair_time
        self.name = name
        self.cycles: list[ScrubCycle] = []
        self.upsets_repaired = 0
        self._stopped = False

    def stop(self) -> None:
        """Stop after the current cycle (lets the event queue drain)."""
        self._stopped = True

    def start(self, n_cycles: int | None = None) -> Process:
        """Spawn the scrub loop; bounded by ``n_cycles`` or :meth:`stop`."""
        return self.sim.spawn(self._run(n_cycles), name=self.name)

    def _run(self, n_cycles: int | None) -> Generator[Any, Any, int]:
        done = 0
        while not self._stopped and (n_cycles is None or done < n_cycles):
            yield Delay(self.interval)
            start = self.sim.now
            # Readback of every configured region (the detection pass).
            readback = self.readback_time * self.n_regions
            if readback:
                yield Delay(readback)
            upsets = self.injector.seu_count(self.interval, self.n_regions)
            repair = upsets * self.repair_time
            if repair:
                yield Delay(repair)
            self.upsets_repaired += upsets
            self.cycles.append(
                ScrubCycle(start, self.sim.now, upsets, repair)
            )
            done += 1
        return self.upsets_repaired

    # -- reliability accounting ------------------------------------------

    @property
    def busy_time(self) -> float:
        """Total seconds spent reading back and repairing."""
        return sum(c.duration for c in self.cycles)

    def availability(self, horizon: float | None = None) -> float:
        """Fraction of time the fabric was *not* held by scrub/repair."""
        horizon = self.sim.now if horizon is None else horizon
        if horizon <= 0:
            return 1.0
        return max(0.0, 1.0 - self.busy_time / horizon)

    def mean_time_to_repair(self) -> float:
        """Mean detection latency + repair service time per upset.

        Detection latency for a blind scrubber is uniform over the scrub
        interval (mean ``interval / 2``); the repair itself adds the
        readback of the dirty pass plus one partial reconfiguration.
        """
        if self.upsets_repaired == 0:
            return 0.0
        service = (
            sum(c.repair_time for c in self.cycles) / self.upsets_repaired
        )
        return self.interval / 2.0 + self.readback_time + service
