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
]


class ReconfigurationFault(RuntimeError):
    """Base class for every injected (re)configuration failure."""


class TransferCorruption(ReconfigurationFault):
    """A bitstream transfer failed its CRC check (link or server fetch)."""


class WriteAbort(ReconfigurationFault):
    """A configuration write aborted mid-chunk (ICAP or vendor port)."""
