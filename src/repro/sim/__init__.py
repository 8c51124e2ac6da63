"""Discrete-event simulation substrate.

The minimal deterministic DES kernel (:mod:`repro.sim.engine`), shared
resource primitives (:mod:`repro.sim.resources`) and timeline tracing
(:mod:`repro.sim.trace`) on which the hardware and executor models are
built.
"""

from .engine import (
    AllOf,
    At,
    Delay,
    EventSignal,
    Process,
    SimulationError,
    Simulator,
    WaitEvent,
)
from .resources import BandwidthChannel, Interval, MutexResource
from .trace import Phase, Span, Timeline

__all__ = [
    "AllOf",
    "At",
    "BandwidthChannel",
    "Delay",
    "EventSignal",
    "Interval",
    "MutexResource",
    "Phase",
    "Process",
    "SimulationError",
    "Simulator",
    "Span",
    "Timeline",
    "WaitEvent",
]
