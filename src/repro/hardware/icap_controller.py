"""The BRAM-buffered ICAP partial-reconfiguration controller (paper Fig. 7).

The Cray XD1 vendor API refuses partial bitstreams, so the paper routes
them through the FPGA's Internal Configuration Access Port (ICAP) behind a
custom control circuit:

* the host streams the partial bitstream over the (dual-channel,
  1.6 GB/s) link into a small BRAM buffer on the fabric;
* a state machine drains the buffer into the ICAP (8 bit @ 66 MHz);
* buffering lets the link transfer of chunk *i+1* overlap the ICAP write
  of chunk *i* (double buffering).

The controller is *slower than the dedicated external port*: each buffered
chunk pays a handshake/state-machine overhead on top of the raw ICAP wire
time.  Calibrating the per-chunk handshake against the published single-PRR
measurement (43.48 ms for 887,784 bytes) predicts the dual-PRR measurement
(19.77 ms for 404,168 bytes) to within 0.05% — strong evidence this is the
mechanism behind the paper's numbers.  See
:func:`repro.analysis.calibration.fit_icap_handshake`.

The chunk pipeline has one float fold, :meth:`ConfigurePlan.end_time`.
A configuration granted an exclusive link takes it as a single macro
step — one :class:`~repro.sim.engine.At` resume instead of ~4 DES
events per chunk — and the hybrid replay (:mod:`repro.model.hybrid`)
calls the same fold.  With armed injectors the step takes every fault
draw of the per-chunk path inside the fold, in the same order, at the
ICAP grant; it books the transfers, counters and metrics at the resume
and raises the same fault there.  A
:class:`~repro.faults.injector.DrawGuard` proves that no other process
drew from those streams in between.  A busy or awaited link, or one
carrying declared data traffic, runs the per-chunk processes: the
reference model the macro step matches bit for bit
(docs/PERFORMANCE.md, "Macro-event configure").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

from ..faults.detection import CrcChecker
from ..faults.errors import (
    ReconfigurationFault,
    TransferCorruption,
    WriteAbort,
)
from ..faults.injector import (
    DrawGuard,
    FaultInjector,
    block_drawable,
    first_below,
    injector_fault_free,
)
from ..obs import metrics as obsm
from ..sim.engine import AllOf, At, Delay, Simulator
from ..sim.resources import BandwidthChannel, MutexResource
from ..sim.validate import check_number
from .bitstream import Bitstream
from .catalog import MB, MS

__all__ = [
    "ConfigurePlan",
    "IcapController",
    "IcapTimings",
    "DEFAULT_ICAP_TIMINGS",
]


@dataclass(frozen=True)
class IcapTimings:
    """Timing parameters of the ICAP controller datapath."""

    #: raw ICAP wire throughput (bytes/s)
    icap_bandwidth: float
    #: BRAM staging buffer size (bytes per chunk)
    chunk_bytes: int
    #: state-machine handshake overhead per chunk (seconds)
    chunk_handshake: float

    def __post_init__(self) -> None:
        check_number("icap_bandwidth", self.icap_bandwidth, positive=True)
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        check_number("chunk_handshake", self.chunk_handshake)

    def n_chunks(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.chunk_bytes))

    def drain_time(self, nbytes: int) -> float:
        """BRAM->ICAP time for a whole bitstream (handshake + wire)."""
        return (
            self.n_chunks(nbytes) * self.chunk_handshake
            + nbytes / self.icap_bandwidth
        )

    def effective_bandwidth(self, nbytes: int) -> float:
        """End-to-end controller throughput for an ``nbytes`` image."""
        return nbytes / self.drain_time(nbytes)


def _calibrated_handshake() -> float:
    """Per-chunk handshake solved from the published single-PRR row.

    43.48 ms total = first-chunk link fill (negligible) +
    n_chunks * handshake + bytes / 66 MB/s.
    """
    nbytes = 887_784
    measured = 43.48 * MS
    chunk = 16 * 1024
    n = max(1, math.ceil(nbytes / chunk))
    wire = nbytes / (66 * MB)
    first_fill = chunk / (1600 * MB)
    return (measured - wire - first_fill) / n


DEFAULT_ICAP_TIMINGS = IcapTimings(
    icap_bandwidth=66 * MB,
    chunk_bytes=16 * 1024,
    chunk_handshake=_calibrated_handshake(),
)


@dataclass(frozen=True)
class ConfigurePlan:
    """The addends of one bitstream size's double-buffered pipeline.

    Every float here is the exact duration the per-chunk DES processes
    yield, so :meth:`end_time` reproduces their clock bitwise.
    """

    #: bytes per chunk, in streaming order
    sizes: tuple[int, ...]
    #: link time of chunk 0 into the first BRAM bank
    fill: float
    #: per-chunk state-machine drain (handshake + ICAP wire time)
    drains: tuple[float, ...]
    #: link time of chunk ``i + 1``, prefetched while chunk ``i`` drains
    prefetches: tuple[float, ...]

    def end_time(
        self,
        t0: float,
        spans: list[tuple[float, float]] | None = None,
        faults: _ChunkFaults | None = None,
    ) -> float:
        """End of a configuration whose link fill starts at ``t0``.

        The left fold the DES performs: fill chunk 0, then per chunk
        resume at ``max(drain end, next-chunk prefetch end)`` — drain
        and prefetch both start at the same barrier time — and finish
        with the last drain.  ``spans`` (if given) receives each link
        transfer's ``(start, end)``.  ``faults`` (if given) takes the
        per-chunk path's fault draws as each chunk lands in BRAM
        (:meth:`_ChunkFaults.ready`): retransmits move the clock, and a
        write abort or exhausted retransmits end the fold by raising.
        """
        return self._fold(t0, self.prefetches, spans, faults) + self.drains[-1]

    def ready_time(
        self, t0: float, idx: int, spans: list[tuple[float, float]]
    ) -> float:
        """When chunk ``idx`` starts draining: :meth:`end_time`'s fold
        stopped there (fault-free), with its link transfers in ``spans``.
        """
        return self._fold(t0, self.prefetches[:idx], spans, None)

    def _fold(
        self,
        t0: float,
        prefetches: tuple[float, ...],
        spans: list[tuple[float, float]] | None,
        faults: _ChunkFaults | None,
    ) -> float:
        """The pipeline fold through chunk ``len(prefetches)``'s arrival."""
        t = t0 + self.fill
        if spans is not None:
            spans.append((t0, t))
        if faults is not None:
            t = faults.ready(0, t)
        idx = 0
        for pre, drain in zip(prefetches, self.drains):
            t_prefetch = t + pre
            if spans is not None:
                spans.append((t, t_prefetch))
            t_drain = t + drain
            t = t_drain if t_drain >= t_prefetch else t_prefetch
            if faults is not None:
                idx += 1
                t = faults.ready(idx, t)
        return t


class _Halt(Exception):
    """Ends a fold at a fault; the :class:`_ChunkFaults` holds which."""


def _never_corrupts(link_injector: Any) -> bool:
    """True if ``link_injector`` never corrupts (nor draws for) a transfer."""
    return link_injector is None or (
        isinstance(link_injector, FaultInjector)
        and link_injector.config.transfer_ber == 0.0
    )


class _ChunkFaults:
    """The per-chunk path's fault draws, taken inside the plan's fold.

    Draws in the reference order — ``transfer_corrupted`` per arriving
    chunk, then its CRC verdicts and retransmits; ``chunk_aborted``
    (and ``abort_fraction`` on a hit) per drain — and tallies what the
    per-chunk path would book, without booking it.  A fault ends the
    fold with :class:`_Halt`, leaving :attr:`fault` and the instant
    :attr:`end` at which the per-chunk path raises it.

    When chunk aborts are the only per-chunk draws, :meth:`run` skips
    the per-chunk hook: it scans one block of draws for the first abort
    (:func:`~repro.faults.injector.first_below`) and folds the
    fault-free pipeline up to that chunk.
    """

    def __init__(
        self,
        icap: IcapController,
        plan: ConfigurePlan,
        bitstream: Bitstream,
        spans: list[tuple[float, float]],
    ) -> None:
        self.icap = icap
        self.plan = plan
        self.bitstream = bitstream
        #: the fold's link spans; retransmits are appended in order
        self.spans = spans
        #: ``(chunk index, is retransmit)`` of each entry of ``spans``;
        #: None when span ``k`` is chunk ``k``'s only transfer
        self.labels: list[tuple[int, bool]] | None = []
        self.corrupted = 0
        self.retransmits = 0
        self.silent = 0
        #: the fault to raise at the resume, as ``(class, message)``
        self.fault: tuple[type[ReconfigurationFault], str] | None = None
        #: when the fold halted: the instant the fault surfaces
        self.end = 0.0

    def run(self, t0: float) -> float:
        """Fold a configuration starting at ``t0``; returns its end.

        The end is the pipeline end, or :attr:`end` if a fault halted
        it.  Every draw is taken here, in the per-chunk path's order, and
        each injector's stream is left where that path would leave it.
        """
        icap = self.icap
        plan = self.plan
        injector = icap.injector
        link_injector = icap.in_link.injector
        if _never_corrupts(link_injector) and (
            injector is None or block_drawable(injector)
        ):
            # The chunk aborts are the only per-chunk draws.
            self.labels = None
            p = 0.0 if injector is None else injector.config.chunk_abort_rate
            if p <= 0.0:
                return plan.end_time(t0, self.spans)
            idx = first_below(injector.rng, p, len(plan.drains))
            if idx is None:
                return plan.end_time(t0, self.spans)
            injector.stats.chunk_aborts += 1
            t = plan.ready_time(t0, idx, self.spans)
            return self._abort(idx, t, injector.abort_fraction())
        try:
            return plan.end_time(t0, self.spans, self)
        except _Halt:
            return self.end

    def _abort(self, idx: int, t: float, frac: float) -> float:
        """Chunk ``idx``'s drain, started at ``t``, aborts at ``frac``."""
        self.end = t + frac * self.plan.drains[idx]
        self.fault = (
            WriteAbort,
            f"ICAP write abort on chunk {idx} of {self.bitstream.name!r}",
        )
        return self.end

    def ready(self, idx: int, t: float) -> float:
        """Chunk ``idx`` lands in BRAM at ``t``; returns when it drains.

        The arrival's CRC verdicts and retransmits come first, then the
        abort draw of the drain starting right after them.
        """
        self.labels.append((idx, False))
        icap = self.icap
        link_injector = icap.in_link.injector
        if link_injector is not None and link_injector.transfer_corrupted(
            self.plan.sizes[idx]
        ):
            t = self._retransmit(idx, t)
        injector = icap.injector
        if injector is not None and injector.chunk_aborted():
            self._abort(idx, t, injector.abort_fraction())
            raise _Halt
        return t

    def _retransmit(self, idx: int, t: float) -> float:
        """Corrupted chunk ``idx`` arrived at ``t``: CRC, retransmits."""
        self.corrupted += 1
        icap = self.icap
        link_injector = icap.in_link.injector
        crc = icap.crc
        injector = icap.injector or link_injector
        if not crc.detects(injector):
            self.silent += 1
            return t
        plan = self.plan
        nbytes = plan.sizes[idx]
        transfer = plan.fill if idx == 0 else plan.prefetches[idx - 1]
        for _attempt in range(icap.max_chunk_retries):
            self.retransmits += 1
            check = crc.check_time(nbytes)
            if check:
                t = t + check
            start = t
            t = t + transfer
            self.spans.append((start, t))
            self.labels.append((idx, True))
            if not link_injector.transfer_corrupted(nbytes):
                return t
            self.corrupted += 1
            if not crc.detects(injector):
                self.silent += 1
                return t
        self.end = t
        self.fault = (
            TransferCorruption,
            f"chunk {idx} of {self.bitstream.name!r} failed CRC after "
            f"{icap.max_chunk_retries} retransmits",
        )
        raise _Halt

    def book(self, owner: str) -> None:
        """Book the tallied transfers, counters and metrics."""
        icap = self.icap
        link = icap.in_link
        link.record_burst(self.spans, owner, self.plan.sizes, self.labels)
        link.corrupted_count += self.corrupted
        icap.chunk_retransmits += self.retransmits
        icap.silent_corruptions += self.silent
        if self.retransmits:
            obsm.counter("repro_icap_chunk_retransmits_total").inc(
                self.retransmits
            )
        if self.fault is not None and self.fault[0] is WriteAbort:
            icap.write_aborts += 1
            obsm.counter("repro_icap_write_aborts_total").inc()


class IcapController:
    """DES model of the Fig. 7 control circuit.

    The controller owns the ICAP mutex (one reconfiguration at a time) and
    shares the host->FPGA *input* channel with data transfers — the
    architectural constraint Section 4.1 highlights: partial
    reconfiguration can only start once input data transfer is done, and
    overlaps computation or output transfer instead.
    """

    def __init__(
        self,
        sim: Simulator,
        in_link: BandwidthChannel,
        timings: IcapTimings = DEFAULT_ICAP_TIMINGS,
        *,
        injector: FaultInjector | None = None,
        crc: CrcChecker | None = None,
        max_chunk_retries: int = 3,
    ) -> None:
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        self.sim = sim
        self.in_link = in_link
        self.timings = timings
        #: fault oracle for chunk-drain write aborts; link-transfer
        #: corruption is drawn by ``in_link``'s own injector hook
        self.injector = injector
        #: per-chunk CRC verification model (free + full-coverage default)
        self.crc = crc or CrcChecker()
        #: retransmits tolerated per corrupted chunk before the whole
        #: configuration attempt fails with :class:`TransferCorruption`
        self.max_chunk_retries = max_chunk_retries
        self.icap_mutex = MutexResource(sim, name="icap")
        self.configurations = 0
        self.bytes_configured = 0
        self.chunk_retransmits = 0
        self.write_aborts = 0
        self.silent_corruptions = 0
        #: :meth:`plan` cache, keyed by bitstream size
        self._plans: dict[int, ConfigurePlan] = {}

    # -- pure time model (no queueing) ------------------------------------

    def configure_time(self, bitstream: Bitstream) -> float:
        """Unloaded end-to-end time: first chunk fill + pipelined drain."""
        t = self.timings
        first = min(t.chunk_bytes, bitstream.nbytes)
        return self.in_link.transfer_time(first) + t.drain_time(bitstream.nbytes)

    def plan(self, nbytes: int) -> ConfigurePlan:
        """The (cached) pipeline addends for an ``nbytes`` bitstream."""
        plan = self._plans.get(nbytes)
        if plan is None:
            t = self.timings
            link = self.in_link
            sizes = self._chunk_sizes(nbytes)
            plan = ConfigurePlan(
                sizes=tuple(sizes),
                fill=link.transfer_time(sizes[0]),
                drains=tuple(
                    t.chunk_handshake + size / t.icap_bandwidth
                    for size in sizes
                ),
                prefetches=tuple(
                    link.transfer_time(size) for size in sizes[1:]
                ),
            )
            self._plans[nbytes] = plan
        return plan

    # -- DES process -------------------------------------------------------

    def configure(
        self, bitstream: Bitstream, owner: str
    ) -> Generator[Any, Any, float]:
        """Stream a partial bitstream through the controller.

        Double-buffered: while the state machine drains chunk ``i`` into
        the ICAP, the link prefetches chunk ``i+1`` into the second BRAM
        bank.  Both the link channel and the ICAP mutex serialize against
        other users, so contention with data transfers emerges naturally.

        Fault semantics (inert without an injector): each chunk arriving
        over the link is CRC-checked and retransmitted up to
        ``max_chunk_retries`` times (:class:`TransferCorruption` when the
        budget runs out); the state machine may abort mid-drain
        (:class:`WriteAbort`).  Either fault aborts the whole attempt with
        the ICAP mutex cleanly released, leaving recovery to the caller.

        When :meth:`_uncontended` holds at the ICAP grant the pipeline
        is one macro step (:meth:`_configure_macro`), faults included;
        otherwise the per-chunk processes run (:meth:`_configure_chunked`).
        """
        if not bitstream.is_partial:
            raise ValueError(
                "the ICAP controller path is for partial bitstreams; "
                "full configuration goes through the vendor SelectMap API"
            )
        yield from self.icap_mutex.acquire(owner)
        held_at = self.sim.now
        try:
            if self._uncontended():
                yield from self._configure_macro(bitstream, owner)
            else:
                yield from self._configure_chunked(bitstream, owner)
            self.configurations += 1
            self.bytes_configured += bitstream.nbytes
            obsm.counter("repro_icap_configurations_total").inc()
            obsm.counter("repro_icap_bytes_total").inc(bitstream.nbytes)
        finally:
            # Busy time covers failed attempts too: the mutex was held
            # either way, which is what occupancy reports care about.
            obsm.counter("repro_icap_busy_seconds_total").inc(
                self.sim.now - held_at
            )
            self.icap_mutex.release(owner)
        return self.sim.now

    def _uncontended(self) -> bool:
        """May the configuration starting now take one macro step?

        True when the link is :meth:`~repro.sim.resources.BandwidthChannel
        .exclusive` — then no other process can observe or perturb the
        chunk pipeline before it ends.
        """
        return self.in_link.exclusive()

    def _configure_macro(
        self, bitstream: Bitstream, owner: str
    ) -> Generator[Any, Any, None]:
        """The chunk pipeline as one event on a reserved link.

        Folds the end time with :meth:`ConfigurePlan.end_time`, reserves
        the link until then, resumes once at that absolute time and
        books the chunk transfers the per-chunk path would have made.
        Armed injectors draw inside the fold (:class:`_ChunkFaults`);
        their streams are pinned by a :class:`DrawGuard` until the
        resume, which books the tallies and raises the fault, if any.
        """
        plan = self.plan(bitstream.nbytes)
        spans: list[tuple[float, float]] = []
        link = self.in_link
        if injector_fault_free(self.injector) and injector_fault_free(
            link.injector
        ):
            end = plan.end_time(self.sim.now, spans)
            link.reserve(end)
            yield At(end)
            link.release_reservation()
            link.record_burst(spans, owner, plan.sizes)
            return
        faults = _ChunkFaults(self, plan, bitstream, spans)
        end = faults.run(self.sim.now)
        guard = DrawGuard(self.injector, link.injector)
        link.reserve(end)
        yield At(end)
        link.release_reservation()
        guard.check(f"configure {owner!r} of {bitstream.name!r}")
        faults.book(owner)
        if faults.fault is not None:
            kind, message = faults.fault
            raise kind(message)

    def _configure_chunked(
        self, bitstream: Bitstream, owner: str
    ) -> Generator[Any, Any, None]:
        """The per-chunk reference model, with the fault hooks."""
        plan = self.plan(bitstream.nbytes)
        sizes = plan.sizes
        # Fill the first BRAM bank.
        yield from self._fill_chunk(bitstream, 0, sizes[0], owner)
        for i, drain in enumerate(plan.drains):
            if self.injector is not None and self.injector.chunk_aborted():
                # The state machine died partway through the write;
                # pay the wasted fraction of the drain, then fail.
                self.write_aborts += 1
                obsm.counter("repro_icap_write_aborts_total").inc()
                yield Delay(self.injector.abort_fraction() * drain)
                raise WriteAbort(
                    f"ICAP write abort on chunk {i} of {bitstream.name!r}"
                )
            if i + 1 < len(sizes):
                arrived: dict[str, bool] = {}

                def prefetch(
                    idx: int = i + 1, nb: int = sizes[i + 1]
                ) -> Generator[Any, Any, None]:
                    _, ok = yield from self.in_link.transfer_ok(
                        nb, f"{owner}:bs{idx}"
                    )
                    arrived["ok"] = ok

                nxt = self.sim.spawn(prefetch(), name=f"icap-prefetch-{i+1}")
                yield Delay(drain)
                yield AllOf([nxt.done])
                if not arrived.get("ok", True):
                    yield from self._retransmit(
                        bitstream, i + 1, sizes[i + 1], owner
                    )
            else:
                yield Delay(drain)

    def _fill_chunk(
        self, bitstream: Bitstream, idx: int, nbytes: int, owner: str
    ) -> Generator[Any, Any, None]:
        """Stream chunk ``idx`` into a BRAM bank, retransmitting on CRC fail."""
        _, ok = yield from self.in_link.transfer_ok(nbytes, f"{owner}:bs{idx}")
        if not ok:
            yield from self._retransmit(bitstream, idx, nbytes, owner)

    def _retransmit(
        self, bitstream: Bitstream, idx: int, nbytes: int, owner: str
    ) -> Generator[Any, Any, None]:
        """Handle a corrupted chunk: CRC verdict, then bounded retransmits.

        The steady-state CRC is pipelined into the drain (free); the
        checker's ``check_time`` models the *re-verification* of each
        retransmitted chunk.  A checker with coverage < 1 may miss, in
        which case the corruption goes through silently (counted).
        """
        injector = self.injector or getattr(self.in_link, "injector", None)
        if not self.crc.detects(injector):
            self.silent_corruptions += 1
            return
        for _attempt in range(self.max_chunk_retries):
            self.chunk_retransmits += 1
            obsm.counter("repro_icap_chunk_retransmits_total").inc()
            check = self.crc.check_time(nbytes)
            if check:
                yield Delay(check)
            _, ok = yield from self.in_link.transfer_ok(
                nbytes, f"{owner}:bs{idx}:rt"
            )
            if ok:
                return
            if not self.crc.detects(injector):
                self.silent_corruptions += 1
                return
        raise TransferCorruption(
            f"chunk {idx} of {bitstream.name!r} failed CRC after "
            f"{self.max_chunk_retries} retransmits"
        )

    def _chunk_sizes(self, nbytes: int) -> list[int]:
        chunk = self.timings.chunk_bytes
        full, rem = divmod(nbytes, chunk)
        sizes = [chunk] * full
        if rem:
            sizes.append(rem)
        if not sizes:
            sizes = [nbytes]
        return sizes
