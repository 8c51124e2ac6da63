"""Fault exception hierarchy.

Every injected failure surfaces as a :class:`ReconfigurationFault`
subclass raised *inside* the DES process that suffered it.  Because the
engine delegates through plain ``yield from`` chains, a fault raised deep
in the hardware model (a chunk write abort inside the ICAP controller)
propagates to the executor frame that wrapped the configuration attempt,
where a :mod:`repro.faults.recovery` policy decides what happens next.
With no recovery policy installed the fault escapes
:meth:`repro.sim.Simulator.run` — fail-fast is the default.
"""

from __future__ import annotations

__all__ = [
    "ReconfigurationFault",
    "TransferCorruption",
    "WriteAbort",
    "BladeDegraded",
    "DomainOutage",
]


class ReconfigurationFault(RuntimeError):
    """Base class for every injected (re)configuration failure."""


class TransferCorruption(ReconfigurationFault):
    """A bitstream transfer failed its CRC check (link or server fetch)."""


class WriteAbort(ReconfigurationFault):
    """A configuration write aborted mid-chunk (ICAP or vendor port)."""


class DomainOutage(ReconfigurationFault):
    """A failure domain is down and cannot service the request.

    Raised by the chaos runtime when a configuration is attempted while
    the domain's circuit breaker is open, so callers fail fast instead of
    queueing work against hardware that is known to be dead.
    """

    def __init__(self, domain: str, reason: str = "") -> None:
        self.domain = domain
        self.reason = reason
        super().__init__(
            f"failure domain {domain!r} unavailable"
            + (f": {reason}" if reason else "")
        )


class BladeDegraded(ReconfigurationFault):
    """A blade exhausted its recovery budget and left the cluster.

    Carries enough context for the cluster runner to redistribute the
    blade's unfinished calls across the surviving blades.
    """

    def __init__(self, lane: str, call_index: int, reason: str = "") -> None:
        self.lane = lane
        self.call_index = call_index
        self.reason = reason
        super().__init__(
            f"blade {lane!r} degraded at call {call_index}"
            + (f": {reason}" if reason else "")
        )
