"""Event-order regression for the specialized DES hot path.

The engine replaced tuple-ordered heap entries with pooled
``__slots__`` events plus a zero-delay side queue
(docs/PERFORMANCE.md section 2). The ordering contract did not change:
events fire in strict ``(time, seq)`` order, where ``seq`` is
assignment order at schedule time. This suite replays seeded random
schedules — mixed zero and nonzero delays, scheduling from inside
running processes — against a naive sorted-list reference kernel and
asserts the exact firing order, so the heap specialization can never
silently reorder ties.  The absolute-time yield ``At(t)`` shares the
contract: mixed with ``Delay`` it must fire in the same order the
reference kernel gives ``now + delay``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import At, Delay, SimulationError, Simulator


class ReferenceKernel:
    """The old semantics: one sorted list of ``(time, seq)`` entries."""

    def __init__(self):
        self.now = 0.0
        self._entries: list[tuple[float, int, str]] = []
        self._seq = 0
        self.fired: list[tuple[float, str]] = []

    def schedule(self, delay: float, label: str) -> None:
        self._entries.append((self.now + delay, self._seq, label))
        self._seq += 1

    def run(self) -> None:
        while self._entries:
            self._entries.sort()
            time, _seq, label = self._entries.pop(0)
            self.now = time
            self.fired.append((time, label))


def _random_plan(seed: int, n_roots: int = 12):
    """A seeded tree of follow-up schedules: label -> (delay, children)."""
    rng = np.random.default_rng(seed)
    plan = {}
    counter = [0]

    def make(depth: int):
        children = []
        if depth < 3:
            for _ in range(int(rng.integers(0, 3))):
                counter[0] += 1
                label = f"n{counter[0]}"
                # zero delays with high probability to stress the side
                # queue; duplicate nonzero delays to stress heap ties
                delay = float(rng.choice([0.0, 0.0, 0.5, 0.5, 1.25]))
                plan[label] = (delay, make(depth + 1))
                children.append(label)
        return children

    roots = []
    for _ in range(n_roots):
        counter[0] += 1
        label = f"n{counter[0]}"
        delay = float(rng.choice([0.0, 0.25, 0.25, 2.0]))
        plan[label] = (delay, make(0))
        roots.append(label)
    return roots, plan


def _run_engine(roots, plan, use_at=lambda label: False):
    sim = Simulator()
    fired: list[tuple[float, str]] = []

    def proc(label):
        delay, children = plan[label]
        if use_at(label):
            yield At(sim.now + delay)
        else:
            yield Delay(delay)
        fired.append((sim.now, label))
        for child in children:
            sim.spawn(proc(child))

    for label in roots:
        sim.spawn(proc(label))
    sim.run()
    return fired


def _run_reference(roots, plan):
    ref = ReferenceKernel()
    for label in roots:
        delay, _ = plan[label]
        ref.schedule(delay, label)
    fired: list[tuple[float, str]] = []
    while ref._entries:
        ref._entries.sort()
        time, _seq, label = ref._entries.pop(0)
        ref.now = time
        fired.append((time, label))
        for child in plan[label][1]:
            ref.schedule(plan[child][0], child)
    return fired


@pytest.mark.parametrize("seed", range(12))
def test_same_seed_same_event_order(seed):
    roots, plan = _random_plan(seed)
    engine = _run_engine(roots, plan)
    reference = _run_reference(roots, plan)
    assert engine == reference


@pytest.mark.parametrize("seed", range(12))
def test_at_mixed_with_delay_same_event_order(seed):
    roots, plan = _random_plan(seed)
    # every other node resumes through At(now + delay) instead of Delay
    engine = _run_engine(roots, plan, use_at=lambda label: int(label[1:]) % 2)
    reference = _run_reference(roots, plan)
    assert engine == reference


@pytest.mark.parametrize("at_first", [True, False])
def test_at_ties_with_delay_in_seq_order(at_first):
    sim = Simulator()
    fired = []

    def by_at():
        yield At(1.5)
        fired.append("at")

    def by_delay():
        yield Delay(1.5)
        fired.append("delay")

    first, second = (by_at, by_delay) if at_first else (by_delay, by_at)
    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert fired == (["at", "delay"] if at_first else ["delay", "at"])


def test_at_resumes_on_the_exact_float():
    # Delay(end - now) re-adds now and can miss end by an ulp; At cannot.
    now, end = 0.09103770695709379, 28.59526683511123
    assert now + (end - now) != end
    seen = []
    for wait in (lambda: At(end), lambda: Delay(end - now)):
        sim = Simulator()

        def proc(wait=wait):
            yield Delay(now)
            yield wait()
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
    assert seen == [end, now + (end - now)]


def test_at_in_the_past_raises():
    sim = Simulator()

    def proc():
        yield Delay(2.0)
        yield At(1.0)

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="past"):
        sim.run()


def test_at_nan_raises():
    sim = Simulator()

    def proc():
        yield At(float("nan"))

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="nan"):
        sim.run()
    assert sim.now == 0.0


def test_zero_delay_fifo_among_themselves():
    sim = Simulator()
    fired = []

    def waker(label):
        fired.append((sim.now, label))
        yield Delay(0.0)
        fired.append((sim.now, f"{label}-post"))

    def root():
        yield Delay(1.0)
        for label in ("a", "b", "c"):
            sim.spawn(waker(label))

    sim.spawn(root())
    sim.run()
    assert fired == [
        (1.0, "a"), (1.0, "b"), (1.0, "c"),
        (1.0, "a-post"), (1.0, "b-post"), (1.0, "c-post"),
    ]


def test_heap_tie_beats_later_zero_delay():
    # An event scheduled *earlier* for time T (via the heap) must fire
    # before a zero-delay event scheduled *at* time T (side queue):
    # smaller seq wins on time ties.
    sim = Simulator()
    fired = []

    def early():
        yield Delay(1.0)
        fired.append("early-heap")

    def trigger():
        yield Delay(1.0)
        fired.append("trigger")
        sim.spawn(late_zero())

    def late_zero():
        yield Delay(0.0)
        fired.append("late-zero")

    sim.spawn(trigger())
    sim.spawn(early())
    sim.run()
    assert fired == ["trigger", "early-heap", "late-zero"]


def test_pool_reuse_does_not_leak_state():
    # Run enough churn to cycle the event pool several times, then
    # check the clock and counters still advance exactly.
    sim = Simulator()
    hits = []

    def ticker(i):
        yield Delay(0.125 * (i % 7))
        hits.append(sim.now)

    for i in range(5000):
        sim.spawn(ticker(i))
    sim.run()
    assert len(hits) == 5000
    assert sim.events_processed >= 5000
    assert hits == sorted(hits)
