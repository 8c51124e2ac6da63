"""Macro-event ICAP configure: the same bytes as the per-chunk path.

A partial configuration granted an exclusive link resumes once, at the
end time folded by
:meth:`~repro.hardware.icap_controller.ConfigurePlan.end_time`, instead
of replaying ~4 DES events per 16 KiB chunk — with armed injectors too,
whose draws the fold takes in the per-chunk order.  Each shadow case
below runs twice — with ``IcapController._uncontended`` forced False
(the per-chunk reference model) and as shipped — and must agree on
results, timelines, link intervals, ICAP counters, injector statistics
and random-stream state, and the obs snapshot.  Only DES event counts
may differ.  The negative tests pin where the per-chunk path still
runs, that a transfer or a fault draw inside a macro window raises,
and the documented order of an exact-time tie.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.reliability import (
    effective_speedup_under_faults,
    trace_with_hit_ratio,
)
from repro.chaos import build_scenario
from repro.chaos.harness import chaos_payload
from repro.experiments import fig9
from repro.faults import (
    CrcChecker,
    DegradePolicy,
    FallbackPolicy,
    RetryPolicy,
    Scrubber,
)
from repro.faults.errors import (
    ReconfigurationFault,
    TransferCorruption,
    WriteAbort,
)
from repro.faults.injector import FaultConfig, FaultInjector
from repro.hardware import (
    PUBLISHED_TABLE2,
    icap_controller,
    uniform_prr_floorplan,
)
from repro.hardware.bitstream import Bitstream
from repro.hardware.icap_controller import IcapController
from repro.obs import metrics as obsm
from repro.rtr.multitask import AppSpec, MultitaskPrtrExecutor
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import compare, make_node
from repro.service import ServiceConfig, default_tenants, run_service
from repro.sim import At, BandwidthChannel, SimulationError, Simulator
from repro.workloads.task import CallTrace, HardwareTask

DUAL_BYTES = PUBLISHED_TABLE2["dual_prr"].bitstream_bytes


def _injector_state(injector) -> tuple | None:
    if injector is None:
        return None
    return (injector.stats.as_dict(), injector.rng.bit_generator.state)


def _hardware_state(icap: IcapController) -> tuple:
    link = icap.in_link
    return (
        _injector_state(icap.injector),
        _injector_state(link.injector),
        icap.configurations,
        icap.bytes_configured,
        icap.chunk_retransmits,
        icap.write_aborts,
        icap.silent_corruptions,
        list(icap.icap_mutex.intervals),
        list(link.intervals),
        link.bytes_moved,
        link.transfer_count,
        link.corrupted_count,
        icap.sim.now,
    )


#: the per-chunk reference model: every configure takes the chunked path
CHUNKED = ((IcapController, "_uncontended"),)


def _run(fn, *, macro: bool, reference=CHUNKED):
    """``fn()`` as shipped (``macro``) or with every ``(class, predicate)``
    of ``reference`` forced False: (result, hardware, obs, events)."""
    created: list[IcapController] = []
    init = IcapController.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IcapController, "__init__", recording_init)
        if not macro:
            for cls, predicate in reference:
                mp.setattr(cls, predicate, lambda self: False)
        with obsm.observed():
            try:
                result = fn()
            except ReconfigurationFault as exc:  # fail-fast: no policy
                result = (type(exc), str(exc))
            snapshot = obsm.snapshot()
    # the one instrument that counts DES events
    snapshot.pop("repro_run_events", None)
    events = sum(icap.sim.events_processed for icap in created)
    hardware = [_hardware_state(icap) for icap in created]
    return result, hardware, snapshot, events


def _strip_events(result):
    """Drop ``notes["events"]`` wherever a result carries it."""
    if isinstance(result, list):
        return [_strip_events(r) for r in result]
    notes = getattr(result, "notes", None)
    if isinstance(notes, dict) and "events" in notes:
        kept = {k: v for k, v in notes.items() if k != "events"}
        return replace(result, notes=kept)
    return result


def assert_shadow_identical(fn, reference=CHUNKED) -> tuple[int, int]:
    """Run ``fn`` on the reference path and as shipped; returns their
    event counts (reference, shipped)."""
    chunked, hw_chunked, obs_chunked, ev_chunked = _run(
        fn, macro=False, reference=reference
    )
    macro, hw_macro, obs_macro, ev_macro = _run(fn, macro=True)
    assert _strip_events(macro) == _strip_events(chunked)
    assert hw_macro == hw_chunked
    assert obs_macro == obs_chunked
    return ev_chunked, ev_macro


class TestShadowIdentity:
    @pytest.mark.parametrize("seed", [1000, 1001])
    def test_serve(self, seed):
        config = ServiceConfig(horizon=20.0)
        ev_chunked, ev_macro = assert_shadow_identical(
            lambda: run_service(default_tenants(), config, seed=seed)
        )
        assert ev_macro < ev_chunked / 3

    def test_closed_tenant_multitask(self):
        lib = {f"m{i}": HardwareTask(f"m{i}", 0.03) for i in range(6)}

        def apps():
            return [
                AppSpec(name, CallTrace([lib[m] for m in mods * 8], name=name))
                for name, mods in (
                    ("A", ["m0", "m1", "m2"]),
                    ("B", ["m3", "m4"]),
                    ("C", ["m5", "m0"]),
                )
            ]

        ev_chunked, ev_macro = assert_shadow_identical(
            lambda: MultitaskPrtrExecutor(
                make_node(floorplan=uniform_prr_floorplan(3, 6)),
                bitstream_bytes=DUAL_BYTES,
            ).run(apps())
        )
        assert ev_macro < ev_chunked

    def test_chaos_compound(self):
        spec = build_scenario(
            "compound", seed=0, horizon=20.0, prrs=4, blades=2
        )
        config = ServiceConfig(horizon=20.0, prrs=4, chaos=spec)

        def chaos():
            # run_chaos, unrolled so the timelines are compared too
            tenants = default_tenants()
            baseline = run_service(tenants, replace(config, chaos=None))
            armed = run_service(tenants, config)
            return [baseline, armed, chaos_payload(armed, baseline)]

        ev_chunked, ev_macro = assert_shadow_identical(chaos)
        assert ev_macro < ev_chunked

    def test_fig9_compare_point(self):
        p = fig9.panel("measured")
        trace = fig9._cyclic_trace(task_time=0.5 * p.t_frtr, n_calls=24)
        ev_chunked, ev_macro = assert_shadow_identical(
            lambda: compare(
                trace,
                estimated=p.estimated,
                control_time=p.t_control,
                force_miss=True,
                bitstream_bytes=DUAL_BYTES,
            )
        )
        assert ev_macro < ev_chunked

    def test_rate_zero_fault_cell(self):
        ev_chunked, ev_macro = assert_shadow_identical(
            lambda: effective_speedup_under_faults(
                0.0, 0.5, n_calls=24, hybrid="off"
            )
        )
        assert ev_macro < ev_chunked


POLICIES = {
    "fallback": lambda: FallbackPolicy(max_attempts=3, backoff=0.05, cap=0.2),
    "retry": RetryPolicy,
    "degrade": DegradePolicy,
    "none": lambda: None,  # fail-fast: the fault escapes the run
}


class TestFaultedShadowIdentity:
    """Armed injectors: draws, retransmits, aborts, escalations."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize(
        "coverage,check_bandwidth",
        [(1.0, 0.0), (1.0, 50e6), (0.7, 0.0), (0.7, 50e6)],
    )
    @pytest.mark.parametrize("chunk_abort_rate", [0.0, 1e-3, 3e-2])
    @pytest.mark.parametrize("transfer_ber", [0.0, 2e-6, 2e-5])
    def test_prtr_fault_grid(
        self, transfer_ber, chunk_abort_rate, coverage, check_bandwidth,
        policy,
    ):
        config = FaultConfig(
            transfer_ber=transfer_ber,
            chunk_abort_rate=chunk_abort_rate,
            seed=7,
        )
        crc = CrcChecker(bandwidth=check_bandwidth, coverage=coverage)

        def run():
            results = []
            for hit_ratio in (0.0, 0.5, 0.9):
                node = make_node(
                    fault_injector=FaultInjector(config), crc=crc
                )
                executor = PrtrExecutor(
                    node,
                    bitstream_bytes=DUAL_BYTES,
                    recovery=POLICIES[policy](),
                )
                results.append(
                    executor.run(trace_with_hit_ratio(hit_ratio, 12, 0.1))
                )
            return results

        ev_chunked, ev_macro = assert_shadow_identical(run)
        assert ev_macro < ev_chunked

    @pytest.mark.parametrize(
        "fault",
        [
            FaultConfig(chunk_abort_rate=2e-3, seed=3),
            FaultConfig(transfer_ber=1e-5, chunk_abort_rate=5e-4, seed=4),
        ],
    )
    def test_serve(self, fault):
        config = ServiceConfig(horizon=20.0, fault=fault)
        ev_chunked, ev_macro = assert_shadow_identical(
            lambda: run_service(default_tenants(), config, seed=1000)
        )
        assert ev_macro < ev_chunked / 3

    def test_sweep_des_cell(self):
        ev_chunked, ev_macro = assert_shadow_identical(
            lambda: effective_speedup_under_faults(
                1e-2, 0.5, n_calls=24, hybrid="off"
            )
        )
        assert ev_macro < ev_chunked / 3

    @pytest.mark.parametrize("check_bandwidth", [0.0, 50e6])
    def test_exhausted_retransmits(self, check_bandwidth):
        # Every transfer is corrupted: the fill's retransmits run out and
        # the fault surfaces when the last retransmit has crossed the link.
        def scenario():
            sim = Simulator()
            injector = FaultInjector(FaultConfig(transfer_ber=1.0))
            link = BandwidthChannel(
                sim, "link.in", rate=1600e6, injector=injector
            )
            icap = IcapController(
                sim, in_link=link, injector=injector,
                crc=CrcChecker(bandwidth=check_bandwidth),
                max_chunk_retries=2,
            )
            bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")
            raised = []

            def proc():
                yield At(0.0123)
                try:
                    yield from icap.configure(bs, owner="cfg")
                except TransferCorruption as exc:
                    raised.append((sim.now, str(exc)))

            sim.spawn(proc())
            sim.run()
            return raised

        (when, message), = assert_shadow_identical_result(scenario)
        assert "failed CRC after 2 retransmits" in message
        # the fill plus two retransmits, each re-verified first
        chunk = 16 * 1024
        check = chunk / check_bandwidth if check_bandwidth else 0.0
        assert when == pytest.approx(
            0.0123 + 3 * chunk / 1600e6 + 2 * check, rel=1e-12
        )

    def test_write_abort_mid_pipeline(self):
        def scenario():
            sim = Simulator()
            injector = FaultInjector(FaultConfig(chunk_abort_rate=0.2))
            link = BandwidthChannel(
                sim, "link.in", rate=1600e6, injector=injector
            )
            icap = IcapController(sim, in_link=link, injector=injector)
            bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")
            raised = []

            def proc():
                for _ in range(4):
                    try:
                        yield from icap.configure(bs, owner="cfg")
                    except WriteAbort as exc:
                        raised.append((sim.now, str(exc)))

            sim.spawn(proc())
            sim.run()
            return raised

        raised = assert_shadow_identical_result(scenario)
        assert raised and all("ICAP write abort" in m for _, m in raised)

    def test_injectors_sharing_a_generator(self):
        # two injectors, one stream: the fold interleaves their draws
        # as the per-chunk path does
        def scenario():
            sim = Simulator()
            rng = np.random.default_rng(4)
            link = BandwidthChannel(
                sim, "link.in", rate=1600e6,
                injector=FaultInjector(FaultConfig(transfer_ber=2e-5), rng),
            )
            icap = IcapController(
                sim, in_link=link,
                injector=FaultInjector(FaultConfig(chunk_abort_rate=2e-2), rng),
                crc=CrcChecker(coverage=0.7),
            )
            bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")
            raised = []

            def proc():
                for _ in range(8):
                    try:
                        yield from icap.configure(bs, owner="cfg")
                    except ReconfigurationFault as exc:
                        raised.append((sim.now, str(exc)))

            sim.spawn(proc())
            sim.run()
            return raised

        assert assert_shadow_identical_result(scenario)


def assert_shadow_identical_result(fn, reference=CHUNKED):
    """:func:`assert_shadow_identical`, returning the shipped result."""
    assert_shadow_identical(fn, reference)
    return _run(fn, macro=True)[0]


@pytest.mark.parametrize("nbytes", [100, 16 * 1024, DUAL_BYTES])
@pytest.mark.parametrize(
    "link_rate",
    [1600e6, 5e6],  # drain-bound, and link-bound (prefetch wins the max)
)
def test_bare_configure_matches_chunked(nbytes, link_rate):
    def scenario():
        sim = Simulator()
        link = BandwidthChannel(sim, "link.in", rate=link_rate, overhead=1e-6)
        icap = IcapController(sim, in_link=link)
        bs = Bitstream("p", nbytes, region="prr0", kind="module")
        ends = []

        def proc():
            yield At(0.0123)
            ends.append((yield from icap.configure(bs, owner="cfg")))
            ends.append((yield from icap.configure(bs, owner="cfg2")))

        sim.spawn(proc())
        sim.run()
        return ends

    assert_shadow_identical(scenario)


def _one_configure(nbytes: int, *, injector=None):
    """A bare controller configuring once; returns (end, controller)."""
    sim = Simulator()
    link = BandwidthChannel(sim, "link.in", rate=1600e6, injector=injector)
    icap = IcapController(sim, in_link=link, injector=injector)
    bs = Bitstream("p", nbytes, region="prr0", kind="module")
    ends = []

    def proc():
        ends.append((yield from icap.configure(bs, owner="cfg")))

    sim.spawn(proc())
    sim.run()
    return ends[0], icap


class TestChunkedPathStillRuns:
    def test_macro_is_one_event(self):
        end, icap = _one_configure(DUAL_BYTES)
        assert icap.sim.events_processed == 2  # spawn + one resume
        assert end == icap.plan(DUAL_BYTES).end_time(0.0)
        assert icap.in_link.transfer_count == icap.timings.n_chunks(DUAL_BYTES)
        assert icap.in_link.reserved_until is None

    def test_macro_end_is_the_fold_not_a_delay(self):
        # Early in a run ``t0 + (end - t0)`` can round away from ``end``:
        # the macro step must land on the folded float itself.
        plan = _one_configure(DUAL_BYTES)[1].plan(DUAL_BYTES)
        t0 = next(
            k * 1e-4 for k in range(1, 1000)
            if k * 1e-4 + (plan.end_time(k * 1e-4) - k * 1e-4)
            != plan.end_time(k * 1e-4)
        )
        sim = Simulator()
        icap = IcapController(
            sim, in_link=BandwidthChannel(sim, "link.in", rate=1600e6)
        )
        bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")
        ends = []

        def proc():
            yield At(t0)
            ends.append((yield from icap.configure(bs, owner="cfg")))

        sim.spawn(proc())
        sim.run()
        assert ends == [plan.end_time(t0)]

    def test_faulted_one_event_per_attempt(self):
        injector = FaultInjector(FaultConfig(chunk_abort_rate=1e-12))
        end, icap = _one_configure(DUAL_BYTES, injector=injector)
        assert icap.sim.events_processed == 2  # spawn + one resume
        # no abort fired, so the clock lands on the shared fold
        assert icap.write_aborts == 0
        assert end == icap.plan(DUAL_BYTES).end_time(0.0)

        # aborted attempts also resume once each
        sim = Simulator()
        injector = FaultInjector(FaultConfig(chunk_abort_rate=0.05, seed=1))
        link = BandwidthChannel(sim, "link.in", rate=1600e6, injector=injector)
        icap = IcapController(sim, in_link=link, injector=injector)
        bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")
        attempts = 8

        def proc():
            for _ in range(attempts):
                try:
                    yield from icap.configure(bs, owner="cfg")
                except WriteAbort:
                    pass

        sim.spawn(proc())
        sim.run()
        assert 0 < icap.write_aborts < attempts
        assert icap.configurations == attempts - icap.write_aborts
        assert sim.events_processed == 1 + attempts

    def test_detailed_io_emits_chunk_events(self):
        lib = {
            n: HardwareTask(
                n, time=0.2, data_in_bytes=0.1 * 1400e6,
                data_out_bytes=0.0, compute_time=0.1,
            )
            for n in ("m0", "m1", "m2")
        }
        trace = CallTrace([lib[f"m{i % 3}"] for i in range(6)], name="io")

        def run():
            node = make_node()
            return PrtrExecutor(
                node, detailed_io=True, force_miss=True,
                bitstream_bytes=DUAL_BYTES,
            ).run(trace)

        ev_chunked, ev_macro = assert_shadow_identical(run)
        assert ev_macro == ev_chunked  # the macro path never ran


class TestReservation:
    def test_inbound_transfer_inside_window_raises(self):
        sim = Simulator()
        link = BandwidthChannel(sim, "link.in", rate=1600e6)
        icap = IcapController(sim, in_link=link)
        bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")

        def cfg():
            yield from icap.configure(bs, owner="cfg")

        def data():
            yield At(1e-3)  # well inside the ~20 ms configuration
            yield from link.transfer(1024, owner="data-in")

        sim.spawn(cfg())
        sim.spawn(data())
        with pytest.raises(SimulationError, match="reserved window"):
            sim.run()

    def test_transfer_at_window_end_is_allowed(self):
        sim = Simulator()
        link = BandwidthChannel(sim, "link.in", rate=1600e6)
        icap = IcapController(sim, in_link=link)
        bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")
        end = icap.plan(DUAL_BYTES).end_time(0.0)

        def cfg():
            yield from icap.configure(bs, owner="cfg")

        def data():
            yield At(end)
            yield from link.transfer(1024, owner="data-in")

        sim.spawn(cfg())
        sim.spawn(data())
        sim.run()
        assert link.intervals[-1].owner == "data-in"
        assert link.intervals[-1].start == end
        link.assert_no_overlap()


class TestDrawGuard:
    """Another process drawing from a stream the macro step drew ahead."""

    def _window(self, config: FaultConfig, intruder):
        """Configure once with ``intruder(sim, injector, end)`` alongside."""
        sim = Simulator()
        injector = FaultInjector(config)
        link = BandwidthChannel(sim, "link.in", rate=1600e6, injector=injector)
        icap = IcapController(sim, in_link=link, injector=injector)
        bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")
        end = icap.plan(DUAL_BYTES).end_time(0.0)

        def cfg():
            yield from icap.configure(bs, owner="cfg")

        sim.spawn(cfg())
        intruder(sim, injector, end)
        sim.run()
        return icap, end

    def test_port_abort_draw_inside_window_raises(self):
        def intruder(sim, injector, end):
            def port():
                yield At(1e-3)  # well inside the ~20 ms configuration
                injector.port_aborted()

            sim.spawn(port())

        config = FaultConfig(chunk_abort_rate=1e-12, port_abort_rate=0.1)
        with pytest.raises(SimulationError, match="drawn from inside"):
            self._window(config, intruder)

    def test_scrubber_sharing_the_injector_raises(self):
        def intruder(sim, injector, end):
            Scrubber(sim, injector, n_regions=2, interval=1e-3).start(1)

        config = FaultConfig(chunk_abort_rate=1e-12, seu_rate=10.0)
        with pytest.raises(SimulationError, match="drawn from inside"):
            self._window(config, intruder)

    def test_draw_at_window_end_is_allowed(self):
        drawn = []

        def intruder(sim, injector, end):
            def port():
                yield At(end)
                drawn.append((sim.now, injector.port_aborted()))

            sim.spawn(port())

        config = FaultConfig(chunk_abort_rate=1e-12, port_abort_rate=0.1)
        icap, end = self._window(config, intruder)
        assert drawn and drawn[0][0] == end
        assert icap.configurations == 1

    @pytest.mark.parametrize("config", [None, FaultConfig()])
    def test_fault_free_path_takes_no_snapshot(self, config, monkeypatch):
        def no_guard(*injectors):
            raise AssertionError("fault-free configure built a DrawGuard")

        monkeypatch.setattr(icap_controller, "DrawGuard", no_guard)
        injector = None if config is None else FaultInjector(config)
        end, icap = _one_configure(DUAL_BYTES, injector=injector)
        assert icap.sim.events_processed == 2
        assert end == icap.plan(DUAL_BYTES).end_time(0.0)


class TestTieOrder:
    """A configure end tied exactly with an event scheduled mid-configure.

    The macro resume takes its ``(time, seq)`` key at the ICAP grant, so
    it runs before any event scheduled later for the same instant.  The
    per-chunk path takes its final key when the last drain starts, so
    events scheduled before that run first.  docs/PERFORMANCE.md
    documents both orders.
    """

    def _order(self, *, macro: bool) -> list[str]:
        def scenario():
            sim = Simulator()
            link = BandwidthChannel(sim, "link.in", rate=1600e6)
            icap = IcapController(sim, in_link=link)
            bs = Bitstream("p", DUAL_BYTES, region="prr0", kind="module")
            end = icap.plan(DUAL_BYTES).end_time(0.0)
            fired: list[str] = []

            def cfg():
                yield from icap.configure(bs, owner="cfg")
                fired.append("configure")

            def timer():
                yield At(1e-3)  # mid-configure, before the last drain
                yield At(end)
                assert sim.now == end
                fired.append("timer")

            sim.spawn(cfg())
            sim.spawn(timer())
            sim.run()
            return fired

        fired, _, _, _ = _run(scenario, macro=macro)
        return fired

    def test_macro_resume_wins_the_tie(self):
        assert self._order(macro=True) == ["configure", "timer"]

    def test_chunked_path_order(self):
        assert self._order(macro=False) == ["timer", "configure"]
