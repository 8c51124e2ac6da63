"""Macro-event ICAP configure: the same bytes as the per-chunk path.

An uncontended partial configuration resumes once, at the end time
folded by :meth:`~repro.hardware.icap_controller.ConfigurePlan.end_time`,
instead of replaying ~4 DES events per 16 KiB chunk.  Each shadow case
below runs twice — with ``IcapController._uncontended`` forced False
(the per-chunk reference model) and as shipped — and must agree on
results, timelines, link intervals, ICAP counters and the obs snapshot.
Only DES event counts may differ.  The negative tests pin where the
per-chunk path still runs, that a transfer inside a reserved window
raises, and the documented order of an exact-time tie.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.reliability import effective_speedup_under_faults
from repro.chaos import build_scenario
from repro.chaos.harness import chaos_payload
from repro.experiments import fig9
from repro.faults.injector import FaultConfig, FaultInjector
from repro.hardware import PUBLISHED_TABLE2, uniform_prr_floorplan
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


def _hardware_state(icap: IcapController) -> tuple:
    link = icap.in_link
    return (
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


def _run(fn, *, macro: bool):
    """``fn()`` under one configure mode: (result, hardware, obs, events)."""
    created: list[IcapController] = []
    init = IcapController.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IcapController, "__init__", recording_init)
        if not macro:
            mp.setattr(IcapController, "_uncontended", lambda self: False)
        with obsm.observed():
            result = fn()
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


def assert_shadow_identical(fn) -> tuple[int, int]:
    """Run ``fn`` chunked and macro; returns (chunked, macro) events."""
    chunked, hw_chunked, obs_chunked, ev_chunked = _run(fn, macro=False)
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

    def test_faulted_injector_emits_chunk_events(self):
        injector = FaultInjector(FaultConfig(chunk_abort_rate=1e-12))
        end, icap = _one_configure(DUAL_BYTES, injector=injector)
        n_chunks = icap.timings.n_chunks(DUAL_BYTES)
        assert icap.sim.events_processed >= 3 * n_chunks
        # no abort fired, so the clock still lands on the shared fold
        assert icap.write_aborts == 0
        assert end == icap.plan(DUAL_BYTES).end_time(0.0)

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
