"""Recovery-loop plumbing shared by the FRTR and PRTR executors.

:func:`resilient` drives one logical configuration (fetch + write) through
a :class:`~repro.faults.recovery.RecoveryPolicy`: it re-runs the attempt
generator on every injected :class:`~repro.faults.errors
.ReconfigurationFault`, pays the policy's deterministic backoff between
attempts, and reports what happened as a :class:`ConfigOutcome` so the
executor can account retries/fallbacks per call record.

With ``recovery=None`` the first fault propagates unchanged — fail-fast —
which also means the fault-free path adds *zero* events or draws and runs
bit-identical to the pre-fault executors.  The folded PRTR stage and
FRTR call drive their configurations through it too, inline in the
executor's process, so a clean first try costs them no extra event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from ..faults.errors import ReconfigurationFault
from ..faults.recovery import RecoveryPolicy
from ..sim.engine import Delay, Simulator

__all__ = ["ConfigOutcome", "config_attempts", "resilient"]


@dataclass
class ConfigOutcome:
    """How one logical (re)configuration resolved."""

    #: attempts actually driven (1 for a clean first-try success)
    attempts: int = 1
    #: failed attempts before resolution (``attempts - 1`` on success)
    retries: int = 0
    #: retries that re-fetched the bitstream from the server
    refetches: int = 0
    #: the policy gave up on the partial path; the caller must now run a
    #: full (FRTR) reconfiguration
    fallback: bool = False
    #: the policy declared the blade degraded; the caller must abandon
    #: the remaining trace
    degrade: bool = False
    #: simulated seconds burned on failed attempts and backoff
    recovery_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not (self.fallback or self.degrade)


def config_attempts(
    sim: Simulator,
    attempt: Callable[[], Generator[Any, Any, Any]],
    *,
    max_attempts: int,
    backoff: float = 0.0,
    breaker: Any = None,
) -> Generator[Any, Any, tuple[bool, Any]]:
    """Bounded retry driver for one service-mode configuration.

    Drives ``attempt()`` (a generator returning the cache-hit flag) up
    to ``max_attempts`` times, treating each
    :class:`~repro.faults.errors.ReconfigurationFault` as one consumed
    attempt.  Returns ``(True, result)`` on success, ``(False, None)``
    once the budget is exhausted.

    Two optional chaos-mode hooks, both inert by default so the plain
    service path stays event-identical to the historical inline loop:

    * ``breaker`` — a :class:`~repro.chaos.breakers.CircuitBreaker`-like
      object.  An attempt the breaker refuses (``allow`` False) fails
      fast *without* touching the hardware but still consumes an
      attempt, so a held-open breaker cannot spin the caller forever at
      one sim instant; outcomes are reported back via
      ``record_failure`` / ``record_success``.
    * ``backoff`` — deterministic delay paid between attempts (never
      after the last), keeping retry storms off the ICAP mutex.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1: {max_attempts}")
    attempts = 0
    while True:
        if breaker is not None and not breaker.allow(sim.now):
            attempts += 1
            if attempts >= max_attempts:
                return False, None
            if backoff > 0:
                yield Delay(backoff)
            continue
        try:
            result = yield from attempt()
        except ReconfigurationFault:
            if breaker is not None:
                breaker.record_failure(sim.now)
            attempts += 1
            if attempts >= max_attempts:
                return False, None
            if backoff > 0:
                yield Delay(backoff)
            continue
        if breaker is not None:
            breaker.record_success(sim.now)
        return True, result


def resilient(
    sim: Simulator,
    attempt: Callable[[bool], Generator[Any, Any, Any]],
    recovery: RecoveryPolicy | None,
    *,
    allow_fallback: bool = False,
) -> Generator[Any, Any, ConfigOutcome]:
    """Drive ``attempt`` until it succeeds or the policy escalates.

    ``attempt(fetch)`` is a generator performing one configuration try;
    ``fetch`` tells it whether to (re)pull the bitstream over the server
    channel first (the first attempt always fetches; plain retries reuse
    the locally buffered copy).  ``allow_fallback=False`` (the full-config
    path, which has nothing coarser to fall back to) downgrades a
    ``fallback_full`` action to a refetching retry.
    """
    t_start = sim.now
    failures = 0
    refetches = 0
    fetch = True
    while True:
        attempt_start = sim.now
        try:
            yield from attempt(fetch)
        except ReconfigurationFault as fault:
            failures += 1
            if recovery is None:
                raise
            action = recovery.on_failure(failures, fault)
            if action.delay:
                yield Delay(action.delay)
            kind = action.kind
            if kind == "fallback_full" and not allow_fallback:
                kind = "refetch"
            if kind == "retry":
                fetch = False
                continue
            if kind == "refetch":
                refetches += 1
                fetch = True
                continue
            out = ConfigOutcome(
                attempts=failures,
                retries=failures,
                refetches=refetches,
                recovery_time=sim.now - t_start,
            )
            if kind == "fallback_full":
                out.fallback = True
                return out
            if kind == "degrade":
                out.degrade = True
                return out
            raise fault  # "giveup"
        else:
            return ConfigOutcome(
                attempts=failures + 1,
                retries=failures,
                refetches=refetches,
                recovery_time=attempt_start - t_start,
            )
