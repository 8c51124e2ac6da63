"""Per-failure-domain circuit breakers.

A breaker shields the single configuration path from a domain that keeps
failing configuration attempts: after ``threshold`` *consecutive*
failures the breaker opens and requests against the domain fail fast
(the scheduler backs off instead of hammering a dead ICAP).  After a
cooldown — jittered by the chaos runtime's seeded RNG so probes from
different domains do not synchronize — the next caller is admitted as a
half-open probe; its success closes the breaker, its failure reopens it.

The FSM is pure and event-free: it owns no simulator processes and only
changes state inside :meth:`CircuitBreaker.allow`,
:meth:`CircuitBreaker.record_failure`,
:meth:`CircuitBreaker.record_success` and the forced transitions used by
scripted outages (:meth:`CircuitBreaker.force_open` /
:meth:`CircuitBreaker.force_release`).  That keeps it trivially
deterministic and trivially resumable.

While half-open the breaker admits every caller until one fails — the
simulated node has a single serialized ICAP path, so "one probe at a
time" falls out of the mutex structure upstream rather than being
re-enforced here.
"""

from __future__ import annotations

from ..obs import metrics as obsm

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one failure domain."""

    def __init__(
        self,
        domain: str,
        *,
        threshold: int = 3,
        cooldown: float = 0.5,
        probe_jitter: float = 0.25,
        rng=None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0: {cooldown}")
        if probe_jitter < 0:
            raise ValueError(f"probe_jitter must be >= 0: {probe_jitter}")
        self.domain = domain
        self.threshold = threshold
        self.cooldown = cooldown
        self.probe_jitter = probe_jitter
        self._rng = rng
        self.state = "closed"
        self.consecutive_failures = 0
        self.retry_at = 0.0
        #: ``(time, from_state, to_state)`` tuples, append-only
        self.transitions: list[tuple[float, str, str]] = []
        #: True while a scripted outage holds the breaker open — the
        #: cooldown clock must not half-open it before the domain is back
        self.held = False

    def _transition(self, now: float, to: str) -> None:
        """Record and emit one state change (no-op if already there)."""
        if self.state == to:
            return
        self.transitions.append((now, self.state, to))
        self.state = to
        obsm.counter("repro_chaos_breaker_transitions_total").inc(
            domain=self.domain, to=to
        )

    def _probe_delay(self) -> float:
        """Cooldown plus seeded jitter for the next half-open probe."""
        jitter = 0.0
        if self._rng is not None and self.probe_jitter > 0:
            jitter = self.probe_jitter * self._rng.random()
        return self.cooldown * (1.0 + jitter)

    def allow(self, now: float) -> bool:
        """Whether a configuration attempt may proceed at ``now``.

        An open breaker whose cooldown has elapsed (and that is not held
        open by a live scripted outage) flips to half-open; the call that
        flipped it is the probe and is admitted.
        """
        if self.state == "open":
            if not self.held and now >= self.retry_at:
                self._transition(now, "half_open")
                return True
            return False
        return True

    def record_failure(self, now: float) -> None:
        """Account one failed configuration attempt against the domain."""
        if self.state == "half_open":
            self.retry_at = now + self._probe_delay()
            self._transition(now, "open")
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if (
            self.state == "closed"
            and self.consecutive_failures >= self.threshold
        ):
            self.retry_at = now + self._probe_delay()
            self._transition(now, "open")
            self.consecutive_failures = 0

    def record_success(self, now: float) -> None:
        """Account one successful attempt; closes a half-open breaker."""
        self.consecutive_failures = 0
        if self.state == "half_open":
            self._transition(now, "closed")

    def force_open(self, now: float) -> None:
        """Scripted outage start: open and hold until explicit release."""
        self.held = True
        self.consecutive_failures = 0
        self._transition(now, "open")

    def force_release(self, now: float) -> None:
        """Scripted outage end: start the cooldown clock toward a probe."""
        if not self.held:
            return
        self.held = False
        if self.state == "open":
            self.retry_at = now + self._probe_delay()

    def as_dict(self) -> dict:
        """JSON-safe summary for the chaos payload."""
        return {
            "domain": self.domain,
            "state": self.state,
            "transitions": [
                {"time": t, "from": a, "to": b}
                for t, a, b in self.transitions
            ],
        }
