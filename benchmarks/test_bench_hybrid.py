"""Benchmark: hybrid sweep engine throughput (grid-points/sec).

Not a published figure — this measures the harness itself: how many
reliability grid points per wall-clock second the sweep engine
sustains serially and under ``--workers 4``, and how much faster the
calibrated hybrid fast path (``--hybrid=on``) answers an
exactness-proven grid than the pure DES (``--hybrid=off``) — with the
byte-identity of the two point lists asserted, because a speedup that
changes answers is a bug, not a result.  With ``--bench-json DIR`` the
numbers land in ``DIR/BENCH_hybrid.json``; the ``bench-trajectory`` CI
job folds them into ``BENCH_trajectory.json`` (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
import time

from repro.analysis.reliability import sweep_fault_hit_grid
from repro.runtime.parallel import fork_available

from conftest import record, write_bench_json

#: a fault-free grid — every cell satisfies the exactness predicates,
#: so ``hybrid="on"`` answers all of it analytically
RATES = (0.0,)
HIT_RATIOS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
#: the workers-4 measurement instead runs a DES-forced grid: nonzero
#: fault rates defeat the closed form, so every point costs real event
#: processing and the grid is big enough for that work to dominate the
#: one-time fork startup.  Timing workers on the analytically-answered
#: grid above measures nothing but process spawn — the
#: ``grid_points_per_sec_workers4`` trajectory entry for pr8 did
#: exactly that, which is why it sat at ~1/6 of the *serial* rate.
#: Nine rates (108 points, about 0.35 s serial on a 2-vCPU x86-64 box)
#: keep fork startup small against the work as the DES gets faster;
#: three rates stopped doing so once one 40-call point took ~3 ms.
PAR_RATES = (0.0, 2.5e-4, 5e-4, 1e-3, 2e-3, 3e-3, 5e-3, 7.5e-3, 0.01)
N_CALLS = 40
SEED = 0


def _grid_walltime(
    hybrid: str, workers: int, rates: tuple = RATES
) -> tuple[float, list]:
    """Wall seconds (and points) for one full grid evaluation."""
    t0 = time.perf_counter()
    points = sweep_fault_hit_grid(
        rates, HIT_RATIOS, n_calls=N_CALLS, seed=SEED,
        workers=workers, hybrid=hybrid,
    )
    return time.perf_counter() - t0, points


def test_bench_hybrid(benchmark, bench_json_dir) -> None:
    n_points = len(RATES) * len(HIT_RATIOS)

    des_wall, des_points = _grid_walltime("off", workers=1)
    hyb_wall, hyb_points = _grid_walltime("on", workers=1)
    assert des_points == hyb_points, "hybrid changed the answers"

    # Serial-vs-parallel on the DES-forced grid: same work both sides,
    # so the ratio reflects sharding, not fork startup.  On a box with
    # one schedulable core the four forks time-slice it, so parallel
    # can only be bounded (small overhead), not faster.
    par_points = len(PAR_RATES) * len(HIT_RATIOS)
    parallel_wall = serial_des_wall = None
    if fork_available():
        serial_des_wall, serial_pts = _grid_walltime(
            "off", workers=1, rates=PAR_RATES
        )
        parallel_wall, parallel_pts = _grid_walltime(
            "off", workers=4, rates=PAR_RATES
        )
        assert parallel_pts == serial_pts, "workers changed the answers"
        cores = len(os.sched_getaffinity(0))
        bound = serial_des_wall * (1.5 if cores < 2 else 1.0)
        assert parallel_wall <= bound, (
            f"4 workers took {parallel_wall:.3f}s vs {serial_des_wall:.3f}s "
            f"serial on {par_points} DES points ({cores} core(s)) — the "
            f"grid no longer amortizes fork startup"
        )

    # The benchmark fixture times the hybrid serial walk (the mode the
    # trajectory tracks); the one-shot walls above feed the ratio.
    benchmark(
        sweep_fault_hit_grid,
        RATES, HIT_RATIOS, n_calls=N_CALLS, seed=SEED, hybrid="on",
    )
    wall = benchmark.stats.stats.mean if benchmark.stats else hyb_wall

    summary = {
        "grid_points": n_points,
        "n_calls": N_CALLS,
        "seed": SEED,
        "des_wall_s": des_wall,
        "hybrid_wall_s": hyb_wall,
        "hybrid_speedup": des_wall / hyb_wall if hyb_wall else None,
        "grid_points_per_sec_serial": n_points / wall if wall else None,
        # The workers-4 rate is reported on its own DES basis (points of
        # *simulated* work per second, serial alongside for the same
        # grid) — the retired grid_points_per_sec_workers4 metric mixed
        # bases: an analytically-answered grid against fork startup.
        "des_grid_points": par_points,
        "des_points_per_sec_serial": (
            par_points / serial_des_wall if serial_des_wall else None
        ),
        "des_points_per_sec_workers4": (
            par_points / parallel_wall if parallel_wall else None
        ),
        "workers": 4 if parallel_wall is not None else 1,
    }
    record(benchmark, **summary)
    write_bench_json(bench_json_dir, "hybrid", summary)
    assert summary["hybrid_speedup"] is not None
    assert len(des_points) == n_points
