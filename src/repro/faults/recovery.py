"""Fault *recovery*: pluggable policies the executors consult on failure.

A policy is pure decision logic — it never touches the simulator.  When a
configuration attempt fails, the executor calls
:meth:`RecoveryPolicy.on_failure` with the attempt number and the fault,
and receives a :class:`RecoveryAction` telling it what to do next:

``retry``
    Re-drive the configuration from the locally buffered bitstream after
    an optional backoff delay.
``refetch``
    Pull the bitstream from the bitstream server again first (the local
    copy is suspect), then retry.
``fallback_full``
    Give up on the partial path: reconfigure the whole device through the
    vendor API (which wipes *every* PRR) and continue — graceful
    degradation from PRTR to FRTR for this call.
``degrade``
    Declare the blade broken.  The executor abandons its remaining calls
    and the cluster runner redistributes them over the healthy blades.
``giveup``
    Re-raise the fault (fail fast; escapes ``Simulator.run``).

Backoff is deterministic (capped exponential, no jitter) so recovery
timing is as reproducible as the injection that triggered it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import metrics as obsm
from ..sim.validate import check_number
from .errors import ReconfigurationFault, TransferCorruption

__all__ = [
    "RecoveryAction",
    "RecoveryPolicy",
    "RetryPolicy",
    "RefetchPolicy",
    "FallbackPolicy",
    "DegradePolicy",
]

_KINDS = ("retry", "refetch", "fallback_full", "degrade", "giveup")


@dataclass(frozen=True)
class RecoveryAction:
    """What the executor should do about a failed configuration attempt."""

    kind: str
    #: backoff delay to wait before acting (simulated seconds)
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown recovery action {self.kind!r}")
        if self.delay < 0:
            raise ValueError(f"negative backoff delay: {self.delay}")


class RecoveryPolicy:
    """Base policy: capped exponential backoff around a retry budget.

    Parameters
    ----------
    max_attempts:
        Failed attempts tolerated before escalating to ``exhausted``.
    backoff:
        Backoff before retry ``k`` is ``min(cap, backoff * factor**(k-1))``
        — attempt 1's failure waits ``backoff``, the next ``backoff *
        factor``, and so on.  ``backoff=0`` disables waiting entirely.
    exhausted:
        Action kind once the budget is spent: ``"giveup"`` (default),
        ``"fallback_full"`` or ``"degrade"``.
    refetch:
        When true, retries re-fetch the bitstream from the server instead
        of re-driving the local copy.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        backoff: float = 0.0,
        factor: float = 2.0,
        cap: float = float("inf"),
        exhausted: str = "giveup",
        refetch: bool = False,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        check_number("backoff", backoff)
        check_number("backoff cap", cap, finite=False)
        if not factor >= 1.0:
            raise ValueError("backoff factor must be >= 1")
        if exhausted not in ("giveup", "fallback_full", "degrade"):
            raise ValueError(f"unknown exhausted action {exhausted!r}")
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.factor = factor
        self.cap = cap
        self.exhausted = exhausted
        self.refetch = refetch

    def backoff_delay(self, attempt: int) -> float:
        """Deterministic capped exponential backoff for attempt ``attempt``."""
        if self.backoff <= 0:
            return 0.0
        return min(self.cap, self.backoff * self.factor ** (attempt - 1))

    def on_failure(
        self, attempt: int, fault: ReconfigurationFault
    ) -> RecoveryAction:
        """Decide the next step after failed attempt number ``attempt``."""
        if attempt >= self.max_attempts:
            action = RecoveryAction(self.exhausted)
        else:
            kind = "refetch" if self._wants_refetch(fault) else "retry"
            action = RecoveryAction(kind, delay=self.backoff_delay(attempt))
        obsm.counter("repro_recovery_actions_total").inc(
            action=action.kind
        )
        return action

    def _wants_refetch(self, fault: ReconfigurationFault) -> bool:
        return self.refetch or isinstance(fault, TransferCorruption)


class RetryPolicy(RecoveryPolicy):
    """Retry in place with capped exponential backoff, then give up."""

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        backoff: float = 1e-3,
        factor: float = 2.0,
        cap: float = 0.1,
    ) -> None:
        super().__init__(
            max_attempts, backoff=backoff, factor=factor, cap=cap,
            exhausted="giveup",
        )


class RefetchPolicy(RecoveryPolicy):
    """Every retry re-pulls the bitstream from the server first."""

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        backoff: float = 1e-3,
        factor: float = 2.0,
        cap: float = 0.1,
    ) -> None:
        super().__init__(
            max_attempts, backoff=backoff, factor=factor, cap=cap,
            exhausted="giveup", refetch=True,
        )


class FallbackPolicy(RecoveryPolicy):
    """After ``max_attempts`` failed partial attempts, do a full (FRTR)
    reconfiguration — the graceful-degradation path."""

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        backoff: float = 1e-3,
        factor: float = 2.0,
        cap: float = 0.1,
    ) -> None:
        super().__init__(
            max_attempts, backoff=backoff, factor=factor, cap=cap,
            exhausted="fallback_full",
        )


class DegradePolicy(RecoveryPolicy):
    """After ``max_attempts`` failures, mark the blade degraded so the
    cluster redistributes its remaining trace."""

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        backoff: float = 1e-3,
        factor: float = 2.0,
        cap: float = 0.1,
    ) -> None:
        super().__init__(
            max_attempts, backoff=backoff, factor=factor, cap=cap,
            exhausted="degrade",
        )
