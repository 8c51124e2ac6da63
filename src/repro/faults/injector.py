"""Deterministic, seeded fault processes.

The injector is the single source of randomness for the whole fault
subsystem.  It owns one :class:`numpy.random.Generator` (resolved through
:func:`repro.model.stochastic.resolve_rng`, so ``seed=None`` means seed 0,
never OS entropy) and is consulted by the hardware models at well-defined
points:

* :meth:`FaultInjector.transfer_corrupted` — once per
  :class:`~repro.sim.resources.BandwidthChannel` transfer carrying a
  bitstream (per-byte Bernoulli error rate, aggregated in closed form);
* :meth:`FaultInjector.chunk_aborted` — once per BRAM chunk the ICAP
  controller drains (state-machine write abort);
* :meth:`FaultInjector.port_aborted` — once per full-device write through
  a vendor :class:`~repro.hardware.config_port.ConfigPort`;
* :meth:`FaultInjector.seu_count` — Poisson upset counts for a scrub
  interval over the configured regions.

Determinism contract: the DES engine is single-threaded and its event
order is fully deterministic, so the *call order* into the injector is
deterministic too; same seed + same workload → bit-identical fault
realizations.  Rates that are exactly zero never consume a draw, so a
zero-rate injector leaves the stream untouched and any run with it is
bit-identical to a run with no injector at all.

The call order is that of the per-chunk reference model even where a
macro step replaces it: the macro-event ICAP configure takes all of
one configuration's draws at the ICAP grant, in the order the chunk
processes would take them, instead of spread over the simulated time
they span.  The stream is then the same provided no other process
draws from it before that configuration ends; a :class:`DrawGuard`
turns any such draw into a :class:`~repro.sim.engine.SimulationError`
rather than a silently different realization.  When chunk aborts are
the only draws, :func:`first_below` takes them as one block and leaves
the generator exactly where the scalar draws would have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..model.stochastic import resolve_rng
from ..sim.engine import SimulationError
from ..sim.validate import check_number

__all__ = [
    "DrawGuard",
    "FaultConfig",
    "FaultStats",
    "FaultInjector",
    "block_drawable",
    "first_below",
    "injector_fault_free",
]


@dataclass(frozen=True)
class FaultConfig:
    """Rates of the modeled fault processes (all default to 0 = fault-free).

    Attributes
    ----------
    transfer_ber:
        Per-byte corruption probability on bitstream-carrying transfers
        (host link into the BRAM buffer, cluster bitstream-server fetches).
        A transfer of ``n`` bytes is corrupted with ``1 - (1 - ber)^n``.
    chunk_abort_rate:
        Probability that the ICAP state machine aborts while draining one
        BRAM chunk — the custom-controller risk the paper's Fig. 7 path
        takes on by bypassing the vendor API.
    port_abort_rate:
        Probability that a full-device write through a vendor config port
        aborts.  Defaults to 0 separately from the ICAP rate because the
        vendor path is validated end-to-end (DONE-pin polling).
    seu_rate:
        Configuration-memory single-event upsets per second *per
        configured region* (consumed by the readback scrubber).
    seed:
        Seed for the injector's private random stream.
    """

    transfer_ber: float = 0.0
    chunk_abort_rate: float = 0.0
    port_abort_rate: float = 0.0
    seu_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in ("transfer_ber", "chunk_abort_rate", "port_abort_rate"):
            v = getattr(self, f)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f} must be a probability in [0,1]: {v}")
        check_number("seu_rate", self.seu_rate)

    @property
    def fault_free(self) -> bool:
        return (
            self.transfer_ber == 0.0
            and self.chunk_abort_rate == 0.0
            and self.port_abort_rate == 0.0
            and self.seu_rate == 0.0
        )

    def transfer_corruption_probability(self, nbytes: float) -> float:
        """``1 - (1 - ber)^n``, evaluated stably for tiny ``ber``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if self.transfer_ber <= 0.0 or nbytes == 0:
            return 0.0
        if self.transfer_ber >= 1.0:
            return 1.0
        return -math.expm1(nbytes * math.log1p(-self.transfer_ber))

    def reseeded(self, seed: int) -> "FaultConfig":
        """The same rates under a different seed (per-blade streams)."""
        return replace(self, seed=seed)


@dataclass
class FaultStats:
    """Counters of *injected* faults (detection/recovery count elsewhere)."""

    transfers_corrupted: int = 0
    chunk_aborts: int = 0
    port_aborts: int = 0
    seus_injected: int = 0

    @property
    def total(self) -> int:
        return (
            self.transfers_corrupted
            + self.chunk_aborts
            + self.port_aborts
            + self.seus_injected
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "transfers_corrupted": self.transfers_corrupted,
            "chunk_aborts": self.chunk_aborts,
            "port_aborts": self.port_aborts,
            "seus_injected": self.seus_injected,
            "total": self.total,
        }


class FaultInjector:
    """Seeded fault oracle shared by one node's hardware models."""

    def __init__(
        self,
        config: FaultConfig,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config
        self.rng = resolve_rng(config.seed if rng is None else rng)
        self.stats = FaultStats()

    # -- per-fault-domain draws ------------------------------------------

    def transfer_corrupted(self, nbytes: float) -> bool:
        """Did this bitstream transfer arrive corrupted?"""
        p = self.config.transfer_corruption_probability(nbytes)
        if p <= 0.0:
            return False
        hit = bool(self.rng.random() < p)
        if hit:
            self.stats.transfers_corrupted += 1
        return hit

    def chunk_aborted(self) -> bool:
        """Does the ICAP state machine abort draining this chunk?"""
        p = self.config.chunk_abort_rate
        if p <= 0.0:
            return False
        hit = bool(self.rng.random() < p)
        if hit:
            self.stats.chunk_aborts += 1
        return hit

    def span_aborted(self, n_chunks: int) -> bool:
        """Abort draw for an ``n_chunks``-chunk write collapsed into one
        draw — used by the wire-only ("estimated") configuration path,
        which does not simulate individual chunks."""
        p_chunk = self.config.chunk_abort_rate
        if p_chunk <= 0.0 or n_chunks <= 0:
            return False
        if p_chunk >= 1.0:
            p = 1.0
        else:
            p = -math.expm1(n_chunks * math.log1p(-p_chunk))
        hit = bool(self.rng.random() < p)
        if hit:
            self.stats.chunk_aborts += 1
        return hit

    def port_aborted(self) -> bool:
        """Does this vendor-port full configuration abort?"""
        p = self.config.port_abort_rate
        if p <= 0.0:
            return False
        hit = bool(self.rng.random() < p)
        if hit:
            self.stats.port_aborts += 1
        return hit

    def abort_fraction(self) -> float:
        """How far through the write the abort struck (uniform in (0,1))."""
        return float(self.rng.uniform(0.0, 1.0))

    def seu_count(self, duration: float, n_regions: int = 1) -> int:
        """Poisson configuration-memory upsets over ``duration`` seconds."""
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        lam = self.config.seu_rate * duration * max(0, n_regions)
        if lam <= 0.0:
            return 0
        count = int(self.rng.poisson(lam))
        self.stats.seus_injected += count
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultInjector {self.config!r} injected={self.stats.total}>"


def injector_fault_free(injector: Any) -> bool:
    """True for no injector, or one whose every rate is exactly zero.

    Such an injector never draws and never fires, so a run with it is
    bit-identical to a run without it.  Anything without a
    :class:`FaultConfig` counts as faulty.
    """
    if injector is None:
        return True
    config = getattr(injector, "config", None)
    return bool(getattr(config, "fault_free", False))


class DrawGuard:
    """Pins injectors' random streams over a window of simulated time.

    Built right after a macro step has taken the window's draws up
    front; :meth:`check` at the end of the window raises if any stream
    moved since, i.e. another process drew inside the window and would
    have interleaved with those draws on the reference path.
    """

    __slots__ = ("_marks",)

    def __init__(self, *injectors: FaultInjector | None) -> None:
        self._marks: list[tuple[FaultInjector, dict[str, Any]]] = []
        for injector in injectors:
            if injector is not None and all(
                injector is not pinned for pinned, _ in self._marks
            ):
                self._marks.append(
                    (injector, injector.rng.bit_generator.state)
                )

    def check(self, window: str) -> None:
        """Raise :class:`SimulationError` if a pinned stream moved."""
        for injector, state in self._marks:
            if injector.rng.bit_generator.state != state:
                raise SimulationError(
                    f"{injector!r} was drawn from inside the window of "
                    f"{window}, whose draws were taken in advance"
                )


def block_drawable(injector: Any) -> bool:
    """Can ``injector``'s draws be taken as a block by :func:`first_below`?

    True for a :class:`FaultInjector` drawing from a PCG64 generator.
    """
    return (
        isinstance(injector, FaultInjector)
        and isinstance(injector.rng, np.random.Generator)
        and type(injector.rng.bit_generator) is np.random.PCG64
    )


def first_below(rng: np.random.Generator, p: float, n: int) -> int | None:
    """The offset of the first of ``n`` doubles below ``p``, or None.

    Takes exactly the draws of ``n`` scalar ``rng.random() < p`` tests
    that stop at the first hit, as one block: a tape.  It snapshots the
    state, draws ``rng.random(n).tolist()``, and when it stops early
    restores the snapshot and advances it by the draws consumed.  That
    relies on properties of the PCG64 stream which
    ``tests/faults/test_tape.py`` pins: a block equals as many scalar
    draws, and ``bit_generator.advance(k)`` moves the state as ``k``
    draws do.  ``advance`` also clears a buffered 32-bit half-draw
    (``has_uint32``), which ``random()`` never touches, so it is put
    back.
    """
    bit_generator = rng.bit_generator
    snapshot = bit_generator.state
    for k, u in enumerate(rng.random(n).tolist()):
        if u < p:
            if k + 1 < n:
                bit_generator.state = snapshot
                bit_generator.advance(k + 1)
                if snapshot["has_uint32"]:
                    state = bit_generator.state
                    state["has_uint32"] = snapshot["has_uint32"]
                    state["uinteger"] = snapshot["uinteger"]
                    bit_generator.state = state
            return k
    return None
