"""Command-line interface: regenerate any paper artifact from a shell.

    python -m repro table1
    python -m repro table2
    python -m repro fig5 --x-prtr 0.17 --csv fig5.csv
    python -m repro fig9 --panel measured --calls 120
    python -m repro profiles
    python -m repro ablation-prefetch --calls 2000
    python -m repro ablation-granularity
    python -m repro faults --rates 0,0.01,0.1,0.3
    python -m repro sweep --run-dir runs/night --deadline 3600
    python -m repro sweep --run-dir runs/night --resume
    python -m repro power --run-dir runs/pareto --contract-deadline 6
    python -m repro trace --out trace.json
    python -m repro metrics --profile
    python -m repro validate
    python -m repro lint --json
    python -m repro all

Every subcommand prints the same text tables/plots the benchmark harness
shows, and optionally writes the figure's data series as CSV.

Exit codes: 0 success, 1 a claim or invariant check failed, 2 usage
error (bad arguments, missing or already-existing run directory — one
line on stderr, no traceback), 3 a watchdog deadline interrupted the
run (resume it with ``--resume``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .analysis import render_table, write_csv
from .runtime.invariants import InvariantError, set_strict

__all__ = ["main", "build_parser"]


def _parse_floats(text: str, what: str) -> list[float]:
    """Parse ``"0,0.5,0.9"`` with a one-line-friendly error message."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--{what} expects comma-separated numbers, got {text!r}"
        ) from None


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import table1

    print(table1.render())
    mismatches = table1.verify_against_published()
    if mismatches:
        print(f"\nMISMATCHES vs published: {mismatches}")
        return 1
    print("\nAll cells match the published Table 1 exactly.")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .analysis import cross_validate
    from .experiments import table2

    print(table2.render())
    failures = table2.verify_against_published()
    for check in cross_validate():
        print(
            f"\nOut-of-sample check: {check.layout} predicted "
            f"{check.predicted_s * 1e3:.2f} ms vs published "
            f"{check.published_s * 1e3:.2f} ms "
            f"({check.rel_error:.2%} error)"
        )
    if failures:
        print(f"\nCELLS OUT OF TOLERANCE: {failures}")
        return 1
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from .experiments import fig5
    from .model.hybrid import HybridMode, parse_hybrid_mode

    mode = parse_hybrid_mode(args.hybrid)
    # Eq. (7) is already closed form, so the hybrid fast path here is
    # evaluation sharing: compute the panel grid once and reuse it for
    # the plot and the CSV instead of recomputing per artifact.  The
    # rendered bytes are identical either way.
    result = (
        fig5.run((args.x_prtr,), fig5.DEFAULT_HIT_RATIOS)
        if mode != HybridMode.OFF
        else None
    )
    print(fig5.render(x_prtr=args.x_prtr, result=result))
    claims = fig5.shape_claims(x_prtr=args.x_prtr)
    print()
    for name, ok in claims.items():
        print(f"  claim {name}: {'PASS' if ok else 'FAIL'}")
    if args.csv:
        write_csv(args.csv, fig5.to_csv(x_prtr=args.x_prtr, result=result))
        print(f"\nwrote {args.csv}")
    return 0 if all(claims.values()) else 1


def _cmd_fig9(args: argparse.Namespace) -> int:
    from .experiments import fig9

    panels = (
        ["estimated", "measured"] if args.panel == "both" else [args.panel]
    )
    ok = True
    for which in panels:
        print(fig9.render(
            which, n_calls=args.calls, workers=args.workers,
            hybrid=args.hybrid,
        ))
        print()
        if args.csv:
            path = args.csv.replace(".csv", f"_{which}.csv")
            write_csv(
                path,
                fig9.to_csv(
                    which, n_calls=args.calls, workers=args.workers,
                    hybrid=args.hybrid,
                ),
            )
            print(f"wrote {path}\n")
    claims = fig9.shape_claims()
    for name, passed in claims.items():
        print(f"  claim {name}: {'PASS' if passed else 'FAIL'}")
        ok &= passed
    return 0 if ok else 1


def _cmd_profiles(args: argparse.Namespace) -> int:
    from .experiments import fig234_profiles

    print(fig234_profiles.render_all(width=args.width))
    return 0


def _cmd_ablation_prefetch(args: argparse.Namespace) -> int:
    from .experiments.ablations import prefetch_ablation

    cells = prefetch_ablation(slots=args.slots, n_calls=args.calls)
    rows = [
        {
            "trace": c.trace,
            "policy": c.policy,
            "prefetcher": c.prefetcher,
            "H": c.hit_ratio,
            "accuracy": c.prefetch_accuracy,
            "S_inf": c.predicted_speedup,
        }
        for c in cells
    ]
    print(render_table(rows, title="Prefetch ablation"))
    return 0


def _cmd_ablation_granularity(args: argparse.Namespace) -> int:
    from .experiments.ablations import granularity_ablation

    points = granularity_ablation()
    rows = []
    for p in points:
        row: dict[str, object] = {
            "PRRs": p.n_prrs,
            "cols": p.columns_each,
            "bytes": p.bitstream_bytes,
            "T_PRTR_ms": p.t_prtr * 1e3,
            "X_PRTR": p.x_prtr,
        }
        for i, s in enumerate(p.speedups):
            row[f"S[{i}]"] = s
        rows.append(row)
    print(render_table(rows, title="PRR granularity ablation"))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .analysis import ascii_plot, series_to_csv
    from .analysis.reliability import (
        DEFAULT_FAULT_RATES,
        DEFAULT_HIT_RATIOS,
        find_crossover,
        sweep_fault_hit_grid,
    )

    rates = (
        _parse_floats(args.rates, "rates")
        if args.rates
        else list(DEFAULT_FAULT_RATES)
    )
    hit_ratios = (
        _parse_floats(args.hit_ratios, "hit-ratios")
        if args.hit_ratios
        else list(DEFAULT_HIT_RATIOS)
    )
    points = sweep_fault_hit_grid(
        rates, hit_ratios,
        n_calls=args.calls, task_time=args.task_time, seed=args.seed,
        workers=args.workers, hybrid=args.hybrid,
    )
    print(render_table(
        [p.as_row() for p in points],
        title="Effective speedup under ICAP chunk-abort faults",
    ))
    series = {
        f"H={h:g}": (
            [p.fault_rate for p in points if p.target_hit_ratio == h],
            [p.speedup for p in points if p.target_hit_ratio == h],
        )
        for h in hit_ratios
    }
    print()
    print(ascii_plot(
        series,
        title="effective speedup vs chunk-abort rate",
        xlabel="chunk abort rate", ylabel="S_eff", logx=True,
    ))
    print()
    claims = {}
    h_lo, h_hi = min(hit_ratios), max(hit_ratios)
    zero_rate = [p for p in points if p.fault_rate == 0.0]
    claims["fault_free_prtr_wins"] = all(p.speedup > 1.0 for p in zero_rate)
    cross_lo = find_crossover(points, h_lo)
    claims["crossover_at_low_hit_ratio"] = cross_lo is not None
    cross_hi = find_crossover(points, h_hi)
    claims["high_hit_ratio_more_robust"] = cross_hi is None or (
        cross_lo is not None and cross_hi >= cross_lo
    )
    for h in hit_ratios:
        c = find_crossover(points, h)
        print(f"  H={h:g}: PRTR->FRTR crossover at rate "
              f"{'(none in sweep)' if c is None else format(c, 'g')}")
    print()
    for name, ok in claims.items():
        print(f"  claim {name}: {'PASS' if ok else 'FAIL'}")
    if args.csv:
        write_csv(args.csv, series_to_csv(series, x_name="chunk_abort_rate"))
        print(f"\nwrote {args.csv}")
    return 0 if all(claims.values()) else 1


def _journaled(
    args: argparse.Namespace,
    verb: str,
    unit: str,
    run: Callable[..., object],
    render: Callable[[object], None],
    *,
    header: Sequence[tuple[str, str]] = (),
    epilogue: Callable[[object], None] | None = None,
) -> int:
    """Run one journaled verb and report its outcome the shared way.

    ``run(progress=...)`` performs the walk; ``render`` prints the
    verb's own tables, then the run-dir/journal/audit footer follows
    (``header`` rows first), then ``epilogue`` (CSV output).  A walk
    cut short by ``--deadline`` exits 3 with a resume hint on stderr.
    """
    outcome = run(
        progress=None if args.quiet else (lambda m: print(f"... {m}"))
    )
    render(outcome)
    label = f"journaled {unit}"
    rows = [
        *header,
        ("run dir", args.run_dir),
        (label, f"{outcome.journal.n_points}"
                f" (replayed {outcome.resumed_points},"
                f" computed {outcome.computed_points})"),
    ]
    # column widths of the established footers: 17 for the sweeps,
    # the label's own 22 for the replicated service verbs
    width = max(17, len(label))
    print()
    for name, value in rows:
        print(f"  {name:<{width}}: {value}")
    print(f"  {outcome.audit.summary_line()}")
    if epilogue is not None:
        epilogue(outcome)
    if outcome.interrupted is not None:
        done = "work is" if unit == "points" else f"{unit} are"
        print(
            f"repro: {verb} interrupted ({outcome.interrupted}); "
            f"completed {done} journaled — rerun with --resume",
            file=sys.stderr,
        )
        return 3
    return 0 if outcome.audit.ok else 1


def _csv_by_hit_ratio(
    args: argparse.Namespace,
    hit_ratios: Sequence[float],
    x_name: str,
    xy: Callable[[object], tuple[float, float]],
) -> Callable[[object], None]:
    """The ``--csv`` epilogue: one series per hit ratio over the points."""
    from .analysis import series_to_csv

    def write(outcome) -> None:
        if not args.csv:
            return
        series = {}
        for h in hit_ratios:
            pts = [xy(p) for p in outcome.points if p.target_hit_ratio == h]
            series[f"H={h:g}"] = ([x for x, _ in pts], [y for _, y in pts])
        write_csv(args.csv, series_to_csv(series, x_name=x_name))
        print(f"\nwrote {args.csv}")

    return write


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.reliability import (
        DEFAULT_FAULT_RATES,
        DEFAULT_HIT_RATIOS,
    )
    from .runtime import crash_safe_fault_sweep

    rates = (
        _parse_floats(args.rates, "rates")
        if args.rates
        else list(DEFAULT_FAULT_RATES)
    )
    hit_ratios = (
        _parse_floats(args.hit_ratios, "hit-ratios")
        if args.hit_ratios
        else list(DEFAULT_HIT_RATIOS)
    )
    return _journaled(
        args, "sweep", "points",
        lambda progress: crash_safe_fault_sweep(
            args.run_dir, rates, hit_ratios,
            n_calls=args.calls, task_time=args.task_time, seed=args.seed,
            resume=args.resume, deadline_s=args.deadline,
            workers=args.workers, hybrid=args.hybrid, progress=progress,
        ),
        lambda outcome: print(render_table(
            [p.as_row() for p in outcome.points],
            title="Crash-safe fault sweep (journaled)",
        )),
        epilogue=_csv_by_hit_ratio(
            args, hit_ratios, "chunk_abort_rate",
            lambda p: (p.fault_rate, p.speedup),
        ),
    )


def _cmd_power(args: argparse.Namespace) -> int:
    from .power.contracts import (
        max_throughput_under_cap,
        min_energy_under_deadline,
    )
    from .power.pareto import (
        DEFAULT_POWER_HIT_RATIOS,
        DEFAULT_PRR_COUNTS,
        crash_safe_power_sweep,
        power_pareto_front,
    )

    prr_counts = (
        [int(p) for p in _parse_floats(args.prrs, "prrs")]
        if args.prrs
        else list(DEFAULT_PRR_COUNTS)
    )
    hit_ratios = (
        _parse_floats(args.hit_ratios, "hit-ratios")
        if args.hit_ratios
        else list(DEFAULT_POWER_HIT_RATIOS)
    )

    def render(outcome) -> None:
        print(render_table(
            [p.as_row() for p in outcome.points],
            title="Time-vs-energy sweep (journaled)",
        ))
        print()
        print(render_table(
            [p.as_row() for p in power_pareto_front(outcome.points)],
            title="Pareto frontier (PRTR time vs energy)",
        ))
        contracts = []
        if args.contract_deadline is not None:
            contracts.append(min_energy_under_deadline(
                outcome.points, args.contract_deadline
            ))
        if args.power_cap is not None:
            contracts.append(max_throughput_under_cap(
                outcome.points, args.power_cap
            ))
        if contracts:
            print()
            for c in contracts:
                print(f"  {c.summary_line()}")

    return _journaled(
        args, "power sweep", "points",
        lambda progress: crash_safe_power_sweep(
            args.run_dir, prr_counts, hit_ratios,
            n_calls=args.calls, task_time=args.task_time, seed=args.seed,
            resume=args.resume, deadline_s=args.deadline,
            workers=args.workers, hybrid=args.hybrid, progress=progress,
        ),
        render,
        epilogue=_csv_by_hit_ratio(
            args, hit_ratios, "n_prrs",
            lambda p: (float(p.n_prrs), p.prtr_energy_j),
        ),
    )


def _parse_degrade(text: str) -> tuple[tuple[float, int], ...]:
    """Parse ``"5:1,20:0"`` into ``((5.0, 1), (20.0, 0))``."""
    if not text:
        return ()
    out = []
    for part in text.split(","):
        try:
            t, slot = part.split(":")
            out.append((float(t), int(slot)))
        except ValueError:
            raise ValueError(
                f"--degrade-at expects comma-separated time:slot pairs "
                f"(e.g. 5:1,20:0), got {text!r}"
            ) from None
    return tuple(out)


def _require_counts(args: argparse.Namespace) -> None:
    """Reject ``--replications``/``--workers`` below 1, with or without
    ``--run-dir`` (without it both are unused, never silently clamped)."""
    for flag in ("replications", "workers"):
        value = getattr(args, flag)
        if value < 1:
            raise ValueError(f"{flag} must be >= 1: {value}")


def _print_payload(payload: dict) -> None:
    """Text form of one service realization: report, then resilience."""
    from .service.slo import render_report

    print(render_report(payload["report"]))
    if "resilience" in payload:
        print(_render_resilience(payload["resilience"]))


def _render_replications(
    args: argparse.Namespace, json_view: Callable[[object], object]
) -> Callable[[object], None]:
    """Render journaled realizations: ``json_view`` JSON, or one banner
    and text report per replication."""
    import json

    def render(outcome) -> None:
        if args.json:
            print(json.dumps(json_view(outcome), sort_keys=True, indent=2))
            return
        for rep, payload in enumerate(outcome.results):
            print(f"-- replication {rep} " + "-" * 50)
            _print_payload(payload)

    return render


def _payload_exit(verb: str, payload: dict) -> int:
    """Exit code of one unjournaled realization (3 when interrupted)."""
    reason = payload["report"]["interrupted"]
    if reason:
        print(f"repro: {verb} interrupted ({reason})", file=sys.stderr)
        return 3
    return 0 if payload["audit"]["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import (
        ServiceConfig,
        crash_safe_serve,
        default_tenants,
        load_tenants,
        run_service,
        serve_payload,
    )
    from .service.slo import report_json

    _require_counts(args)
    tenants = (
        load_tenants(args.tenants) if args.tenants else default_tenants()
    )
    config = ServiceConfig(
        horizon=args.ticks,
        admission=not args.no_admission,
        preemption=not args.no_preempt,
        degrade_at=_parse_degrade(args.degrade_at),
        prrs=args.prrs,
        power_cap_w=args.power_cap,
    )
    if args.run_dir:
        return _journaled(
            args, "serve", "replications",
            lambda progress: crash_safe_serve(
                args.run_dir, tenants, config,
                seed=args.seed, replications=args.replications,
                resume=args.resume, deadline_s=args.deadline,
                workers=args.workers, progress=progress,
            ),
            _render_replications(args, lambda outcome: outcome.reports),
        )
    payload = serve_payload(run_service(tenants, config, seed=args.seed))
    if args.json:
        print(report_json(payload["report"]))
    else:
        _print_payload(payload)
    return _payload_exit("serve", payload)


def _render_resilience(resilience: dict) -> str:
    """Human summary lines for one chaos realization's resilience."""
    import math

    lines = [
        f"resilience: goodput retention "
        f"{100.0 * resilience['goodput_retention']:.2f}% "
        f"({resilience['completed']}/{resilience['baseline_completed']} "
        f"vs fault-free), {resilience['outages']} outage(s), "
        f"{resilience['migrations']} migration(s), "
        f"{resilience['breaker_transitions']} breaker transition(s), "
        f"{resilience['brownout_epochs']} brownout epoch(s)",
    ]
    if resilience["mttr"]:
        mttr = ", ".join(
            f"{domain}={value:.4f}s"
            for domain, value in resilience["mttr"].items()
        )
        lines.append(f"mttr: {mttr}")
    under = resilience["latency_under_failure"]
    base = resilience["latency_baseline"]

    def _cell(v: float | None) -> str:
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return "-"
        return f"{v:.4f}"

    lines.append(
        f"latency p50/p99/p999: {_cell(under['p50'])}/"
        f"{_cell(under['p99'])}/{_cell(under['p999'])} under failure, "
        f"{_cell(base['p50'])}/{_cell(base['p99'])}/{_cell(base['p999'])} "
        f"fault-free"
    )
    avail = ", ".join(
        f"{name}={100.0 * value:.2f}%"
        for name, value in resilience["availability"].items()
    )
    lines.append(f"availability: {avail}")
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .chaos import build_scenario, scenario_names
    from .chaos.harness import crash_safe_chaos, run_chaos
    from .chaos.scenarios import SCENARIOS
    from .service import (
        ServiceConfig,
        default_tenants,
        load_tenants,
        run_service,
        serve_payload,
    )

    _require_counts(args)
    if args.list_scenarios:
        width = max(len(name) for name in scenario_names())
        for name in scenario_names():
            print(f"{name:<{width}}  {SCENARIOS[name][0]}")
        return 0
    spec = build_scenario(
        args.scenario,
        seed=args.seed,
        horizon=args.ticks,
        prrs=args.prrs,
        blades=args.blades,
    )
    tenants = (
        load_tenants(args.tenants) if args.tenants else default_tenants()
    )
    config = ServiceConfig(
        horizon=args.ticks, prrs=args.prrs, chaos=spec
    )
    if args.run_dir:
        return _journaled(
            args, "chaos", "replications",
            lambda progress: crash_safe_chaos(
                args.run_dir, tenants, config,
                scenario=args.scenario, seed=args.seed,
                replications=args.replications, resume=args.resume,
                deadline_s=args.deadline, workers=args.workers,
                progress=progress,
            ),
            _render_replications(args, lambda outcome: outcome.results),
            header=[("scenario", args.scenario)],
        )
    # The "none" scenario without a run dir is exactly one plain service
    # realization — same code path as `repro serve`.
    payload = (
        serve_payload(run_service(tenants, config, seed=args.seed))
        if spec is None
        else run_chaos(tenants, config, seed=args.seed)
    )
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _print_payload(payload)
    return _payload_exit("chaos", payload)


def _observability_workload(n_calls: int):
    """The quickstart workload both observability verbs instrument."""
    from .workloads import CallTrace, HardwareTask

    names = ("median", "sobel", "smoothing")
    lib = {name: HardwareTask(name, 0.05) for name in names}
    return CallTrace(
        [lib[names[i % len(names)]] for i in range(n_calls)],
        name="quickstart",
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import metrics as obsm
    from .obs.tracing import (
        comparison_to_chrome,
        trace_document,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from .rtr.runner import compare

    with obsm.observed():
        comparison = compare(_observability_workload(args.calls))
    events = comparison_to_chrome(comparison)
    problems = validate_chrome_trace(trace_document(events))
    if problems:
        for problem in problems:
            print(f"repro: trace schema: {problem}", file=sys.stderr)
        return 1
    write_chrome_trace(args.out, events)
    n_spans = sum(1 for ev in events if ev["ph"] == "X")
    print(
        f"wrote {args.out}: {n_spans} spans across 2 runs "
        f"(FRTR {comparison.frtr.total_time:.4g} s, "
        f"PRTR {comparison.prtr.total_time:.4g} s, "
        f"speedup {comparison.speedup:.2f}x)"
    )
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    if args.json:
        print(json.dumps(obsm.get_registry().snapshot(), indent=2))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .obs import metrics as obsm
    from .obs.profile import profiled
    from .obs.report import render_utilization
    from .rtr.runner import ComparisonResult, make_node
    from .rtr.frtr import FrtrExecutor
    from .rtr.prtr import PrtrExecutor
    from .runtime.invariants import audit_metrics

    trace = _observability_workload(args.calls)
    with obsm.observed():
        frtr = FrtrExecutor(make_node()).run(trace)
        prtr_node = make_node()
        if args.profile:
            with profiled(prtr_node.sim) as profiler:
                prtr = PrtrExecutor(prtr_node).run(trace)
        else:
            prtr = PrtrExecutor(prtr_node).run(trace)
        comparison = ComparisonResult(frtr=frtr, prtr=prtr)
        snapshot = obsm.snapshot()
        audit = audit_metrics(snapshot)
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0 if audit.ok else 1
    print(obsm.render())
    print()
    print(render_utilization(prtr))
    print()
    print(f"measured speedup      : {comparison.speedup:.2f}x")
    if args.profile:
        print()
        print("DES hot-path profile (PRTR run, wall clock):")
        print(profiler.render(args.top))
    print(f"\n{audit.summary_line()}")
    return 0 if audit.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import validate_frtr, validate_prtr
    from .experiments import fig9
    from .hardware import PUBLISHED_TABLE2
    from .rtr import FrtrExecutor, PrtrExecutor, make_node
    from .workloads import CallTrace, HardwareTask

    worst_pipe = worst_model = worst_frtr = 0.0
    for which in ("estimated", "measured"):
        p = fig9.panel(which)
        for x_task in np.logspace(-2, 0.5, 5):
            t_task = float(x_task) * p.t_frtr
            lib = {
                n: HardwareTask(n, t_task)
                for n in ("median", "sobel", "smoothing")
            }
            trace = CallTrace(
                [lib[n] for n in ("median", "sobel", "smoothing") * 20],
                name="val",
            )
            frtr = FrtrExecutor(
                make_node(), estimated=p.estimated,
                control_time=p.t_control,
            ).run(trace)
            rep = validate_frtr(
                frtr, t_frtr=frtr.notes["t_config_full"],
                t_control=p.t_control, t_task=t_task,
            )
            worst_frtr = max(worst_frtr, rep.model_rel_error)
            prtr = PrtrExecutor(
                make_node(), estimated=p.estimated,
                control_time=p.t_control, force_miss=True,
                bitstream_bytes=PUBLISHED_TABLE2["dual_prr"].bitstream_bytes,
            ).run(trace)
            rep = validate_prtr(
                prtr, t_frtr=prtr.notes["t_config_full"],
                t_prtr=prtr.notes["t_config_partial"],
                t_control=p.t_control,
            )
            worst_pipe = max(worst_pipe, rep.pipeline_rel_error or 0.0)
            worst_model = max(worst_model, rep.model_rel_error)
    print(f"max FRTR vs Eq.(1) rel error   : {worst_frtr:.3e}")
    print(f"max PRTR vs pipeline rel error : {worst_pipe:.3e}")
    print(f"max PRTR vs Eq.(3) rel error   : {worst_model:.3e}")
    ok = worst_frtr < 1e-9 and worst_pipe < 1e-9 and worst_model < 0.05
    print("VALIDATION", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import sys as _sys
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    tools = repo_root / "tools"
    if not (tools / "reprolint" / "engine.py").exists():
        raise OSError(
            "repro lint needs a repository checkout "
            f"(no tools/reprolint under {repo_root})"
        )
    if str(tools) not in _sys.path:
        _sys.path.insert(0, str(tools))
    import reprolint

    argv = ["--repo-root", str(repo_root)]
    if args.json:
        argv.append("--json")
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.list_rules:
        argv.append("--list-rules")
    if args.sarif:
        argv += ["--sarif", args.sarif]
    if args.no_cache:
        argv.append("--no-cache")
    return reprolint.main(argv)


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    text, ok = generate_report(
        n_calls=args.calls, progress=lambda m: print(f"... {m}")
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines); "
          f"checks {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_all(args: argparse.Namespace) -> int:
    rc = 0
    for name, fn in _COMMANDS.items():
        # "sweep" and "power" need a --run-dir; "report" and "trace"
        # write files; "lint" needs a source checkout; "serve" and
        # "chaos" run long service horizons; none belongs in the
        # zero-argument smoke pass.
        if name in (
            "all", "report", "sweep", "power", "serve", "chaos",
            "trace", "lint",
        ):
            continue
        print("=" * 72)
        print(f"== {name}")
        print("=" * 72)
        ns = build_parser().parse_args([name])
        rc |= fn(ns)
        print()
    return rc


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig5": _cmd_fig5,
    "fig9": _cmd_fig9,
    "profiles": _cmd_profiles,
    "ablation-prefetch": _cmd_ablation_prefetch,
    "ablation-granularity": _cmd_ablation_granularity,
    "faults": _cmd_faults,
    "sweep": _cmd_sweep,
    "power": _cmd_power,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
    "report": _cmd_report,
    "all": _cmd_all,
}


def _flag_groups() -> dict[str, argparse.ArgumentParser]:
    """The flag groups shared by the grid-shaped verbs, declared once.

    Each group is an argparse parent parser: ``hybrid`` (analytic fast
    path), ``workers`` (fork workers), ``grid`` (the sweep axes and
    sizes), ``service`` (tenants, horizon and replications) and
    ``journal`` (run dir, resume, deadline, strict audits, progress).
    ``journal_required`` is the same journal group with ``--run-dir``
    mandatory, for the verbs that only exist journaled.
    """
    from .model.hybrid import HybridMode

    def group(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=parents)

    hybrid = group()
    hybrid.add_argument(
        "--hybrid", choices=list(HybridMode.ALL), default=HybridMode.OFF,
        help="analytic fast path: 'on' answers exactness-proven points "
             "by closed-form replay (bit-identical, no event loop), "
             "'verify' additionally shadow-runs a seeded sample on the "
             "DES and fails on any mismatch (docs/PERFORMANCE.md)",
    )
    workers = group()
    workers.add_argument(
        "--workers", type=int, default=1,
        help="fork workers for the grid points or replications "
             "(bit-identical results); journaled runs keep one segment "
             "journal per worker, and kill/--resume works mid-shard",
    )
    seeded = group()
    seeded.add_argument("--seed", type=int, default=0)
    grid = group(seeded)
    grid.add_argument(
        "--hit-ratios", type=str, default="",
        help="comma-separated target hit ratios (default: 0,0.5,0.9)",
    )
    grid.add_argument("--calls", type=int, default=30)
    grid.add_argument("--task-time", type=float, default=0.1)
    grid.add_argument("--csv", type=str, default="")
    service = group(seeded)
    service.add_argument(
        "--ticks", type=float, default=30.0, metavar="SECONDS",
        help="simulated arrival horizon, measured from service boot "
             "(chaos scenario events scale to it)",
    )
    service.add_argument(
        "--tenants", type=str, default="",
        help="tenant spec JSON (default: built-in gold/silver/bronze)",
    )
    service.add_argument(
        "--replications", type=int, default=1,
        help="independent realizations (replication i seeds from "
             "seed + i); needs --run-dir for more than one",
    )
    service.add_argument(
        "--json", action="store_true",
        help="print canonical JSON instead of tables (serve: the SLO "
             "report; chaos: the realization payload)",
    )

    def journal(required: bool) -> argparse.ArgumentParser:
        flags = group()
        flags.add_argument(
            "--run-dir", type=str, required=required, default="",
            help="directory holding the run journal (journal.jsonl); "
                 "kill + --resume is byte-identical to an unbroken run",
        )
        flags.add_argument(
            "--resume", action="store_true",
            help="replay completed work from an existing journal",
        )
        flags.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="wall-clock budget; on expiry completed work stays "
                 "journaled and the run exits with code 3",
        )
        flags.add_argument(
            "--strict-invariants", action="store_true",
            help="raise on any invariant violation instead of recording "
                 "it",
        )
        flags.add_argument("--quiet", action="store_true",
                           help="suppress progress lines")
        return flags

    return {
        "hybrid": hybrid,
        "workers": workers,
        "grid": grid,
        "service": service,
        "journal": journal(required=False),
        "journal_required": journal(required=True),
    }


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: resource usage")
    sub.add_parser("table2", help="Table 2: configuration times")

    flags = _flag_groups()

    p5 = sub.add_parser(
        "fig5", help="Figure 5: asymptotic bounds",
        parents=[flags["hybrid"]],
    )
    p5.add_argument("--x-prtr", type=float, default=0.17)
    p5.add_argument("--csv", type=str, default="")

    p9 = sub.add_parser(
        "fig9", help="Figure 9: the XD1 experiment",
        parents=[flags["workers"], flags["hybrid"]],
    )
    p9.add_argument(
        "--panel", choices=["estimated", "measured", "both"],
        default="both",
    )
    p9.add_argument("--calls", type=int, default=90)
    p9.add_argument("--csv", type=str, default="")

    pp = sub.add_parser("profiles", help="Figures 2-4: execution profiles")
    pp.add_argument("--width", type=int, default=72)

    pa = sub.add_parser(
        "ablation-prefetch", help="prefetch policy ablation"
    )
    pa.add_argument("--slots", type=int, default=2)
    pa.add_argument("--calls", type=int, default=2000)

    sub.add_parser(
        "ablation-granularity", help="PRR granularity ablation"
    )
    grid = [flags["grid"], flags["workers"], flags["hybrid"]]
    pf = sub.add_parser(
        "faults", help="effective speedup under injected faults",
        parents=grid,
    )
    pf.add_argument(
        "--rates", type=str, default="",
        help="comma-separated chunk-abort rates (default: built-in sweep)",
    )

    ps = sub.add_parser(
        "sweep",
        help="crash-safe fault sweep: journaled, resumable, audited",
        parents=[flags["journal_required"], *grid],
    )
    ps.add_argument("--rates", type=str, default="",
                    help="comma-separated chunk-abort rates")

    pw = sub.add_parser(
        "power",
        help="time-vs-energy Pareto sweep over PRR counts and hit "
             "ratios: journaled, resumable, energy-conservation audited",
        parents=[flags["journal_required"], *grid],
    )
    pw.add_argument(
        "--contract-deadline", type=float, default=None,
        metavar="SIM_SECONDS",
        help="minimize-energy contract: cheapest configuration whose "
             "PRTR makespan meets this simulated-time deadline",
    )
    pw.add_argument(
        "--power-cap", type=float, default=None, metavar="WATTS",
        help="maximize-throughput contract: fastest configuration whose "
             "mean PRTR draw stays under this power budget",
    )
    pw.add_argument("--prrs", type=str, default="",
                    help="comma-separated PRR counts (default: 1,2,3,4)")

    service = [flags["journal"], flags["service"], flags["workers"]]
    pv = sub.add_parser(
        "serve",
        help="multi-tenant service mode: open arrivals, admission "
             "control, preemptive PRR scheduling, per-tenant SLO report",
        parents=service,
    )
    pv.add_argument(
        "--no-admission", action="store_true",
        help="disable the admission controller (admit everything)",
    )
    pv.add_argument(
        "--no-preempt", action="store_true",
        help="disable preemptive time-sharing (run-to-completion)",
    )
    pv.add_argument(
        "--degrade-at", type=str, default="", metavar="T:SLOT,...",
        help="retire PRR slots mid-run, e.g. 5:1 retires slot 1 at t=5",
    )
    pv.add_argument(
        "--prrs", type=int, default=0,
        help="PRR count (0 = the paper's dual-PRR floorplan)",
    )
    pv.add_argument(
        "--power-cap", type=float, default=None, metavar="WATTS",
        help="node power budget; arrivals whose grant would push the "
             "projected draw above it are shed with reason power_cap",
    )

    pc = sub.add_parser(
        "chaos",
        help="chaos-resilient service mode: named seeded failure "
             "scenarios vs a fault-free baseline (availability, MTTR, "
             "goodput retention, tail latency under failure)",
        parents=service,
    )
    pc.add_argument(
        "--scenario", type=str, default="compound",
        help="scenario name (see --list-scenarios; 'none' is bit-"
             "identical to plain serve)",
    )
    pc.add_argument(
        "--list-scenarios", action="store_true",
        help="print the scenario library and exit",
    )
    pc.add_argument(
        "--prrs", type=int, default=4,
        help="PRR count (chaos needs an explicit floorplan, >= 1)",
    )
    pc.add_argument(
        "--blades", type=int, default=2,
        help="blades the PRRs spread over (failure-domain topology)",
    )

    pt = sub.add_parser(
        "trace",
        help="export an instrumented FRTR/PRTR run as Chrome trace JSON",
    )
    pt.add_argument(
        "--out", type=str, default="trace.json",
        help="output path (load it in Perfetto / chrome://tracing)",
    )
    pt.add_argument("--calls", type=int, default=30)
    pt.add_argument(
        "--json", action="store_true",
        help="also print the metrics snapshot as JSON",
    )

    pm = sub.add_parser(
        "metrics",
        help="run the quickstart workload instrumented; print counters "
             "and the utilization rollup",
    )
    pm.add_argument("--calls", type=int, default=30)
    pm.add_argument(
        "--json", action="store_true",
        help="print the raw metrics snapshot as JSON instead of tables",
    )
    pm.add_argument(
        "--profile", action="store_true",
        help="profile the DES hot path (wall clock per event type)",
    )
    pm.add_argument("--top", type=int, default=10,
                    help="profile rows to show")

    sub.add_parser("validate", help="model-vs-simulation validation")
    pl = sub.add_parser(
        "lint",
        help="run reprolint, the AST-based domain linter "
             "(docs/STATIC_ANALYSIS.md)",
    )
    pl.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    pl.add_argument(
        "--baseline", type=str, default="",
        help="baseline file (default: tools/reprolint/baseline.json)",
    )
    pl.add_argument(
        "--no-baseline", action="store_true",
        help="report baselined findings too",
    )
    pl.add_argument(
        "--write-baseline", action="store_true",
        help="accept current findings into the baseline (justify them!)",
    )
    pl.add_argument(
        "--select", type=str, default="",
        help="comma-separated rule ids to run (e.g. RL001,RL003)",
    )
    pl.add_argument(
        "--ignore", type=str, default="",
        help="comma-separated rule ids to skip",
    )
    pl.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    pl.add_argument(
        "--sarif", type=str, default="",
        help="also write findings as SARIF 2.1.0 to this path",
    )
    pl.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the incremental fact cache",
    )
    pr = sub.add_parser("report", help="write the full REPORT.md")
    pr.add_argument("--output", type=str, default="REPORT.md")
    pr.add_argument("--calls", type=int, default=90)
    sub.add_parser("all", help="run everything")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # --strict-invariants also arms the per-run audits inside every
    # executor, not just the verb's final report; restored on exit.
    strict = getattr(args, "strict_invariants", None)
    previous = set_strict(strict) if strict is not None else None
    try:
        return _COMMANDS[args.command](args)
    except InvariantError as exc:
        print(f"repro: invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        # Usage-level failures (bad argument values, missing or
        # pre-existing run directories) get one line, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous is not None:
            set_strict(previous)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
