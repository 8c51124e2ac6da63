"""Unit tests for :mod:`repro.sim.resources`."""

from __future__ import annotations

import pytest

from repro.sim import (
    BandwidthChannel,
    Delay,
    Interval,
    MutexResource,
    SimulationError,
    Simulator,
)


class TestInterval:
    def test_overlap_detection(self):
        a = Interval(0.0, 2.0, "a")
        b = Interval(1.0, 3.0, "b")
        c = Interval(2.0, 4.0, "c")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)  # touching endpoints do not overlap
        assert b.overlaps(c)


class TestMutexResource:
    def test_exclusive_holding(self):
        sim = Simulator()
        res = MutexResource(sim, "r")
        order = []

        def worker(tag, hold):
            yield from res.acquire(tag)
            order.append((f"{tag}+", sim.now))
            yield Delay(hold)
            res.release(tag)
            order.append((f"{tag}-", sim.now))

        sim.spawn(worker("a", 2.0))
        sim.spawn(worker("b", 1.0))
        sim.run()
        assert order == [("a+", 0.0), ("a-", 2.0), ("b+", 2.0), ("b-", 3.0)]
        res.assert_no_overlap()

    def test_fifo_queueing(self):
        sim = Simulator()
        res = MutexResource(sim, "r")
        grants = []

        def worker(tag):
            yield from res.acquire(tag)
            grants.append(tag)
            yield Delay(1.0)
            res.release(tag)

        for tag in "abcde":
            sim.spawn(worker(tag))
        sim.run()
        assert grants == list("abcde")

    def test_release_by_non_holder_raises(self):
        sim = Simulator()
        res = MutexResource(sim, "r")

        def worker():
            yield from res.acquire("me")
            res.release("someone-else")

        sim.spawn(worker())
        with pytest.raises(SimulationError, match="released"):
            sim.run()

    def test_utilization(self):
        sim = Simulator()
        res = MutexResource(sim, "r")

        def worker():
            yield from res.acquire("w")
            yield Delay(3.0)
            res.release("w")
            yield Delay(1.0)  # idle tail

        sim.spawn(worker())
        sim.run()
        assert res.utilization() == pytest.approx(3.0 / 4.0)

    def test_utilization_empty(self):
        sim = Simulator()
        res = MutexResource(sim, "r")
        assert res.utilization() == 0.0

    def test_intervals_recorded(self):
        sim = Simulator()
        res = MutexResource(sim, "r")

        def worker(tag, start):
            yield Delay(start)
            yield from res.acquire(tag)
            yield Delay(1.0)
            res.release(tag)

        sim.spawn(worker("a", 0.0))
        sim.spawn(worker("b", 5.0))
        sim.run()
        assert len(res.intervals) == 2
        assert res.intervals[0] == Interval(0.0, 1.0, "a")
        assert res.intervals[1] == Interval(5.0, 6.0, "b")


class TestBandwidthChannel:
    def test_transfer_time_model(self):
        sim = Simulator()
        ch = BandwidthChannel(sim, "link", rate=100.0, overhead=0.5)
        assert ch.transfer_time(1000.0) == pytest.approx(0.5 + 10.0)
        assert ch.transfer_time(0.0) == pytest.approx(0.5)

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BandwidthChannel(sim, "x", rate=0.0)
        with pytest.raises(ValueError):
            BandwidthChannel(sim, "x", rate=1.0, overhead=-1.0)
        ch = BandwidthChannel(sim, "x", rate=1.0)
        with pytest.raises(ValueError):
            ch.transfer_time(-5.0)

    def test_transfers_serialize(self):
        sim = Simulator()
        ch = BandwidthChannel(sim, "link", rate=10.0)
        done = []

        def sender(tag, nbytes):
            yield from ch.transfer(nbytes, tag)
            done.append((tag, sim.now))

        sim.spawn(sender("a", 100.0))  # 10 s
        sim.spawn(sender("b", 50.0))   # 5 s, queued behind a
        sim.run()
        assert done == [("a", 10.0), ("b", 15.0)]
        ch.assert_no_overlap()

    def test_counters(self):
        sim = Simulator()
        ch = BandwidthChannel(sim, "link", rate=10.0)

        def sender():
            yield from ch.transfer(30.0, "s")
            yield from ch.transfer(20.0, "s")

        sim.spawn(sender())
        sim.run()
        assert ch.bytes_moved == 50.0
        assert ch.transfer_count == 2

    def test_concurrent_channels_independent(self):
        sim = Simulator()
        ch_in = BandwidthChannel(sim, "in", rate=10.0)
        ch_out = BandwidthChannel(sim, "out", rate=10.0)
        done = []

        def sender(ch, tag):
            yield from ch.transfer(100.0, tag)
            done.append((tag, sim.now))

        sim.spawn(sender(ch_in, "in"))
        sim.spawn(sender(ch_out, "out"))
        sim.run()
        # Both finish at t=10: full overlap across channels.
        assert done == [("in", 10.0), ("out", 10.0)]


class TestRecordBurst:
    """Closed-form bursts: counts now, intervals built when read."""

    def _channel(self):
        sim = Simulator()
        return sim, BandwidthChannel(sim, "link", rate=100.0)

    def test_intervals_built_on_read_in_booking_order(self):
        sim, ch = self._channel()
        ch.record_burst([(0.0, 1.0), (1.0, 2.0)], "cfg", (100, 50))
        ch.record_burst(
            [(2.0, 3.0), (3.0, 4.0)], "cfg2", (100, 100),
            labels=[(0, False), (0, True)],
        )
        assert ch.transfer_count == 4
        assert ch.bytes_moved == 350.0
        assert ch.intervals == [
            Interval(0.0, 1.0, "cfg:bs0"),
            Interval(1.0, 2.0, "cfg:bs1"),
            Interval(2.0, 3.0, "cfg2:bs0"),
            Interval(3.0, 4.0, "cfg2:bs0:rt"),
        ]

    def test_cut_short_burst_counts_its_spans_only(self):
        _, ch = self._channel()
        ch.record_burst([(0.0, 1.0)], "cfg", (100, 50, 25))
        assert (ch.transfer_count, ch.bytes_moved) == (1, 100.0)

    def test_transfer_appends_after_pending_bursts(self):
        sim, ch = self._channel()
        ch.record_burst([(0.0, 1.0)], "cfg", (100,))

        def proc():
            yield Delay(1.0)
            yield from ch.transfer(100, "data")

        sim.spawn(proc())
        sim.run()
        assert [iv.owner for iv in ch.intervals] == ["cfg:bs0", "data"]
        assert ch.utilization() == pytest.approx(1.0)
        ch.assert_no_overlap()

    def test_overlap_check_sees_pending_bursts(self):
        _, ch = self._channel()
        ch.record_burst([(0.0, 2.0), (1.0, 3.0)], "cfg", (1, 1))
        with pytest.raises(SimulationError, match="overlapping"):
            ch.assert_no_overlap()

    def test_non_integer_bytes_add_per_transfer(self):
        # a fractional running total is not added to in one step: the
        # per-transfer additions round differently
        _, ch = self._channel()
        ch.bytes_moved = 0.1
        sizes = (16384,) * 25
        ch.record_burst([(0.0, 1.0)] * 25, "cfg", sizes)
        expected = 0.1
        for size in sizes:
            expected += size
        assert ch.bytes_moved == expected
