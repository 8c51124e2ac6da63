"""Layer-attributed span tracing for the benchmark's traced run.

The tracer wraps the public entry point of each ``src/repro`` package,
plus the DES kernel's per-event dispatch into process bodies (split by
the package that defines each process), and records spans in memory.
Nothing inside ``repro`` is edited: every wrapper is installed on the
imported modules by :meth:`Tracer.install` and removed by
:meth:`Tracer.uninstall`.

A span records name, layer, start, end, parent and a group id; all spans
of one grid point or one serve run share a group id.  Hot leaf spans
(per-event dispatch, ICAP configure resumptions, cache lookups, fault
draws, admission decisions, watchdog ticks) are folded into one record
per (parent, name) carrying a ``count`` and the summed duration, which
keeps a traced ``serve`` batch in a few megabytes.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable

#: the layers, in report order (``src/repro`` package names)
LAYERS = (
    "sim", "hardware", "caching", "rtr", "model", "faults", "service",
    "runtime", "power", "workloads", "analysis",
)

#: the packages that define DES processes in the benchmark's workloads
PROCESS_LAYERS = ("hardware", "rtr", "service")

_REPRO_MARK = os.sep + "repro" + os.sep

# (module, attribute path, span name, layer, kind)
#   kind "span": one record per call
#   kind "agg":  folded into one record per (parent, name)
#   kind "gen":  a generator function; each resumption is an "agg" span
#   kind "group": like "span", and opens a new group id (one grid point
#                 or one serve run)
_TARGETS = (
    ("repro.sim.engine", "Simulator.run", "sim.run", "sim", "span"),
    ("repro.hardware.icap_controller", "IcapController.configure",
     "hardware.icap_configure", "hardware", "gen"),
    ("repro.hardware.node", "XD1Node.__post_init__",
     "hardware.node_build", "hardware", "span"),
    ("repro.caching.base", "ConfigCache.contains", "caching.lookup",
     "caching", "agg"),
    ("repro.caching.base", "ConfigCache.lookup", "caching.lookup",
     "caching", "agg"),
    ("repro.caching.base", "ConfigCache.access", "caching.lookup",
     "caching", "agg"),
    ("repro.caching.base", "ConfigCache.fill", "caching.fill",
     "caching", "agg"),
    ("repro.caching.base", "ConfigCache.evict", "caching.evict",
     "caching", "agg"),
    ("repro.rtr.frtr", "FrtrExecutor.run", "rtr.run", "rtr", "span"),
    ("repro.rtr.prtr", "PrtrExecutor.run", "rtr.run", "rtr", "span"),
    ("repro.model.hybrid", "replay_frtr", "model.replay", "model", "span"),
    ("repro.model.hybrid", "replay_prtr", "model.replay", "model", "span"),
    ("repro.model.hybrid", "replay_energy_components", "model.replay_energy",
     "model", "span"),
    ("repro.faults.injector", "FaultInjector.chunk_aborted",
     "faults.draw", "faults", "agg"),
    ("repro.faults.injector", "FaultInjector.transfer_corrupted",
     "faults.draw", "faults", "agg"),
    ("repro.faults.injector", "FaultInjector.span_aborted",
     "faults.draw", "faults", "agg"),
    ("repro.faults.injector", "FaultInjector.port_aborted",
     "faults.draw", "faults", "agg"),
    ("repro.faults.injector", "FaultInjector.abort_fraction",
     "faults.draw", "faults", "agg"),
    ("repro.service.scheduler", "run_service", "service.run", "service",
     "group"),
    ("repro.service.admission", "AdmissionController.decide",
     "service.decide", "service", "agg"),
    ("repro.runtime.crashsafe", "crash_safe_fault_sweep",
     "runtime.fault_sweep", "runtime", "span"),
    ("repro.runtime.crashsafe", "run_checkpointed",
     "runtime.checkpointed", "runtime", "span"),
    ("repro.runtime.journal", "RunJournal.record",
     "runtime.journal_record", "runtime", "span"),
    ("repro.runtime.journal", "RunJournal.load", "runtime.journal_load",
     "runtime", "span"),
    ("repro.runtime.watchdog", "Watchdog.after_event", "runtime.watchdog",
     "runtime", "agg"),
    ("repro.power.pareto", "crash_safe_power_sweep", "power.sweep",
     "power", "span"),
    ("repro.power.pareto", "measure_power_point", "analysis.point",
     "power", "group"),
    ("repro.power.ledger", "EnergyLedger.from_components",
     "power.ledger", "power", "span"),
    ("repro.power.ledger", "EnergyLedger.from_notes", "power.ledger",
     "power", "span"),
    ("repro.analysis.reliability", "trace_with_hit_ratio",
     "workloads.trace_build", "workloads", "span"),
    ("repro.analysis.reliability", "effective_speedup_under_faults",
     "analysis.point", "analysis", "group"),
)

#: every ``audit_*`` function of ``repro.runtime.invariants`` is a
#: ``runtime.audit`` span (the executors auto-audit each run)
_AUDIT_MODULE = "repro.runtime.invariants"


def layer_of_file(filename: str) -> str:
    """The ``src/repro`` package a source file belongs to (else ``sim``)."""
    idx = filename.rfind(_REPRO_MARK)
    if idx < 0:
        return "sim"
    rest = filename[idx + len(_REPRO_MARK):].split(os.sep)
    return rest[0] if len(rest) > 1 and rest[0] in LAYERS else "sim"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop every span and counter (start of a traced batch)."""
        #: [id, parent, group, name, layer, start, end, count, total]
        self.records: list[list[Any]] = []
        self._agg: dict[tuple[int, str], list[Any]] = {}
        self._stack: list[int] = [0]
        self._next_id = 1
        self.group = 0
        self.simulators = 0
        self.sim_events = 0
        self.sim_time = 0.0
        self.icap_configures = 0
        self.icap_chunks = 0
        self.icaps: list[Any] = []
        #: simulated calls submitted to DES executors (trace lengths)
        self.rtr_calls = 0

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id = sid + 1
        return sid

    def _enter(self, name: str, layer: str, kind: str) -> list[Any]:
        parent = self._stack[-1]
        if kind == "agg":
            key = (parent, name)
            rec = self._agg.get(key)
            if rec is None:
                rec = [self._new_id(), parent, self.group, name, layer,
                       None, None, 0, 0.0]
                self._agg[key] = rec
                self.records.append(rec)
        else:
            if kind == "group":
                self.group = self._next_id
            rec = [self._new_id(), parent, self.group, name, layer,
                   None, None, 0, 0.0]
            self.records.append(rec)
        self._stack.append(rec[0])
        return rec

    def _exit(self, rec: list[Any], start: float, end: float) -> None:
        self._stack.pop()
        if rec[5] is None:
            rec[5] = start
        rec[6] = end
        rec[7] += 1
        rec[8] += end - start

    # -- wrappers --------------------------------------------------------

    def _wrap_call(
        self, fn: Callable[..., Any], name: str, layer: str, kind: str
    ) -> Callable[..., Any]:
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = tracer._enter(name, layer, kind)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(rec, start, clock())

        return traced

    def _wrap_configure(
        self, fn: Callable[..., Any], name: str, layer: str
    ) -> Callable[..., Any]:
        """Time every resumption of ``IcapController.configure``'s generator.

        Timing the call alone would only time the generator's creation.
        """
        tracer = self
        clock = self.clock

        def traced(self_: Any, bitstream: Any, *args: Any, **kwargs: Any):
            tracer.icap_configures += 1
            tracer.icap_chunks += self_.timings.n_chunks(bitstream.nbytes)
            gen = fn(self_, bitstream, *args, **kwargs)
            value: Any = None
            thrown: BaseException | None = None
            while True:
                rec = tracer._enter(name, layer, "agg")
                start = clock()
                try:
                    if thrown is None:
                        target = gen.send(value)
                    else:
                        exc, thrown = thrown, None
                        target = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._exit(rec, start, clock())
                try:
                    value = yield target
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # re-raised inside ``gen``
                    thrown = exc

        functools.update_wrapper(traced, fn)
        return traced

    def _wrap_step(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Charge each DES event to the package defining its process."""
        tracer = self
        clock = self.clock
        layers: dict[Any, tuple[str, str]] = {}

        def traced(proc: Any, value: Any) -> None:
            code = proc.gen.gi_code
            tag = layers.get(code)
            if tag is None:
                layer = layer_of_file(code.co_filename)
                tag = layers[code] = (f"{layer}.process", layer)
            rec = tracer._enter(tag[0], tag[1], "agg")
            start = clock()
            try:
                fn(proc, value)
            finally:
                tracer._exit(rec, start, clock())

        return traced

    def _wrap_executor_run(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = self._wrap_call(fn, "rtr.run", "rtr", "span")
        tracer = self

        @functools.wraps(fn)
        def traced(executor: Any, trace: Any, *args: Any, **kwargs: Any):
            tracer.rtr_calls += len(trace)
            return inner(executor, trace, *args, **kwargs)

        return traced

    def _wrap_sim_init(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(sim: Any, *args: Any, **kwargs: Any) -> None:
            tracer.simulators += 1
            fn(sim, *args, **kwargs)

        return traced

    def _wrap_sim_run(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = self._wrap_call(fn, "sim.run", "sim", "span")
        tracer = self

        @functools.wraps(fn)
        def traced(sim: Any, *args: Any, **kwargs: Any) -> float:
            before = sim.events_processed
            t0 = sim.now
            try:
                return inner(sim, *args, **kwargs)
            finally:
                tracer.sim_events += sim.events_processed - before
                tracer.sim_time += sim.now - t0

        return traced

    def _wrap_icap_init(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(icap: Any, *args: Any, **kwargs: Any) -> None:
            fn(icap, *args, **kwargs)
            tracer.icaps.append(icap)

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module: str, attr: str, wrapper: Any) -> None:
        """Rebind a module-level function in every ``repro`` module."""
        orig = getattr(importlib.import_module(module), attr)
        for name, mod in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per instance)."""
        if self._patches:
            return
        for module, path, name, layer, kind in _TARGETS:
            mod = importlib.import_module(module)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if path == "Simulator.run":
                    new = self._wrap_sim_run(fn)
                elif name == "rtr.run":
                    new = self._wrap_executor_run(fn)
                elif kind == "gen":
                    new = self._wrap_configure(fn, name, layer)
                else:
                    new = self._wrap_call(fn, name, layer, kind)
                self._patch(cls, attr, classmethod(new) if is_cm else new)
            else:
                fn = getattr(mod, path)
                self._patch_function(
                    module, path, self._wrap_call(fn, name, layer, kind)
                )
        engine = importlib.import_module("repro.sim.engine")
        self._patch(engine.Process, "_step",
                    self._wrap_step(engine.Process._step))
        self._patch(engine.Simulator, "__init__",
                    self._wrap_sim_init(engine.Simulator.__init__))
        icap = importlib.import_module("repro.hardware.icap_controller")
        self._patch(icap.IcapController, "__init__",
                    self._wrap_icap_init(icap.IcapController.__init__))
        audits = importlib.import_module(_AUDIT_MODULE)
        for attr in sorted(vars(audits)):
            fn = getattr(audits, attr)
            if attr.startswith("audit_") and callable(fn):
                self._patch_function(
                    _AUDIT_MODULE, attr,
                    self._wrap_call(fn, "runtime.audit", "runtime", "span"),
                )

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def icap_busy_s(self) -> float:
        """Simulated seconds the ICAP mutex was held, all controllers."""
        busy = 0.0
        for icap in self.icaps:
            busy += sum(iv.end - iv.start for iv in icap.icap_mutex.intervals)
        return busy

    def summary(self) -> dict[str, Any]:
        """Per-name totals/counts and per-layer self times.

        Process bodies run inside ``Simulator.run``, the sim layer's
        public entry point, so their self time counts as ``sim`` in
        ``layer_self_s``; ``process_self_s`` splits it by the package
        that defines each process.
        """
        child: dict[int, float] = {}
        for rec in self.records:
            child[rec[1]] = child.get(rec[1], 0.0) + rec[8]
        by_name: dict[str, list[float]] = {}
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        process_by_layer = dict.fromkeys(LAYERS, 0.0)
        self_by_name: dict[str, float] = {}
        for rec in self.records:
            entry = by_name.setdefault(rec[3], [0, 0.0])
            entry[0] += rec[7]
            entry[1] += rec[8]
            own = rec[8] - child.get(rec[0], 0.0)
            self_by_name[rec[3]] = self_by_name.get(rec[3], 0.0) + own
            if rec[3].endswith(".process"):
                process_by_layer[rec[4]] += own
                self_by_layer["sim"] += own
            else:
                self_by_layer[rec[4]] += own
        return {
            "count": {k: int(v[0]) for k, v in by_name.items()},
            "total_s": {k: v[1] for k, v in by_name.items()},
            "self_s": self_by_name,
            "layer_self_s": self_by_layer,
            "process_self_s": process_by_layer,
            "root_s": child.get(0, 0.0),
            "point_s": sorted(
                rec[8] for rec in self.records if rec[3] == "analysis.point"
            ),
        }

    def snapshot(self) -> dict[str, Any]:
        """Everything one traced batch measured (survives :meth:`reset`)."""
        summary = self.summary()
        return {
            "summary": summary,
            "records": self.records,
            "icap_busy_s": self.icap_busy_s(),
            "sim_time_s": self.sim_time,
            "groups": {
                rec[2] for rec in self.records if rec[3] == "model.replay"
            },
            # exact structural counts: identical on every batch of a seed
            "counts": {
                "spans": summary["count"],
                "sim_events": self.sim_events,
                "simulators": self.simulators,
                "icap_configures": self.icap_configures,
                "icap_chunks": self.icap_chunks,
                "rtr_calls": self.rtr_calls,
            },
        }


def dump(path: str, records: list[list[Any]], meta: dict[str, Any]) -> None:
    """Write every span as JSON (called once, when the run ends)."""
    spans = [
        {
            "id": r[0], "parent": r[1], "group": r[2], "name": r[3],
            "layer": r[4], "start": r[5], "end": r[6], "count": r[7],
            "total_s": r[8],
        }
        for r in records
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "spans": spans}, fh)


def _pctl(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    return values[max(1, -(-len(values) * q // 100)) - 1]


def layer_metrics(
    snap: dict[str, Any],
    checked: Any,
    *,
    wall: float,
    overhead: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced batch.

    ``wall`` is the batch's traced host seconds; ``overhead`` the ratio
    of traced to untraced (scaled) batch time.  ``checked`` carries the batch's simulated statistics (hit ratio,
    retries, preemptions, p99 latency, journal size); everything timed
    comes from the spans.
    """
    s = snap["summary"]
    c = snap["counts"]
    stats = checked.stats
    count = s["count"].get
    total = s["total_s"].get
    own = s["self_s"].get
    layer_self = s["layer_self_s"]
    serve = "completed" in stats
    points = [p * 1e3 for p in s["point_s"]]
    requests = stats.get("completed", 0)
    configures = c["icap_configures"]
    check = snap.get("check", {"total_s": {}})
    out = {
        "sim.events": c["sim_events"],
        "sim.events_per_call": (
            c["sim_events"] / c["rtr_calls"] if c["rtr_calls"] else 0.0
        ),
        "sim.events_per_request": (
            c["sim_events"] / requests if serve and requests else 0.0
        ),
        "sim.simulators": c["simulators"],
        "sim.run_self_s": layer_self["sim"],
        "hardware.icap_configures": configures,
        "hardware.icap_chunks": c["icap_chunks"],
        "hardware.icap_configure_self_s": own("hardware.icap_configure", 0.0),
        "hardware.node_builds": count("hardware.node_build", 0),
        "hardware.node_build_s": total("hardware.node_build", 0.0),
        "hardware.icap_busy_frac": (
            snap["icap_busy_s"] / snap["sim_time_s"]
            if snap["sim_time_s"] else 0.0
        ),
        "caching.lookups": count("caching.lookup", 0),
        "caching.hit_ratio": stats["hit_ratio"],
        "caching.self_s": layer_self["caching"],
        "rtr.calls": c["rtr_calls"],
        "rtr.run_s": total("rtr.run", 0.0),
        "rtr.self_s": layer_self["rtr"],
        "model.replays": count("model.replay", 0),
        "model.replay_s": total("model.replay", 0.0),
        "model.exact_ratio": (
            len(snap["groups"]) / len(points) if points else 0.0
        ),
        "model.gap_pct": stats.get("model_gap_pct", 0.0),
        "faults.retries": stats.get("retries", 0),
        "faults.fallbacks": stats.get("fallbacks", 0),
        "faults.retry_ratio": (
            stats.get("retries", 0) / configures if configures else 0.0
        ),
        "service.decisions": count("service.decide", 0),
        "service.decide_s": total("service.decide", 0.0),
        "service.admit_ratio": stats.get("admit_ratio", 0.0),
        "service.run_self_s": layer_self["service"],
        "service.preemptions": stats.get("preemptions", 0),
        "service.p99_latency_s": stats.get("p99_latency_s", 0.0),
        "runtime.journal_records": count("runtime.journal_record", 0),
        "runtime.journal_record_s": total("runtime.journal_record", 0.0),
        "runtime.journal_fsyncs": stats.get("journal_fsyncs", 0),
        "runtime.journal_bytes": stats.get("journal_bytes", 0),
        "runtime.journal_load_s": check["total_s"].get(
            "runtime.journal_load", 0.0
        ),
        "runtime.audits": count("runtime.audit", 0),
        "runtime.audit_s": own("runtime.audit", 0.0),
        "runtime.watchdog_calls": count("runtime.watchdog", 0),
        "runtime.watchdog_s": total("runtime.watchdog", 0.0),
        "power.ledgers": count("power.ledger", 0),
        "power.ledger_s": total("power.ledger", 0.0),
        "workloads.trace_build_s": total("workloads.trace_build", 0.0),
        "analysis.point_p50_ms": _pctl(points, 50),
        "analysis.point_p90_ms": _pctl(points, 90),
        "trace.wall_s": wall,
        "trace.overhead_pct": (overhead - 1.0) * 100.0,
        "trace.unattributed_pct": (wall - s["root_s"]) / wall * 100.0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = layer_self[layer] / wall * 100.0
    for layer in PROCESS_LAYERS:
        out[f"{layer}.process_pct"] = (
            s["process_self_s"][layer] / wall * 100.0
        )
    return out
