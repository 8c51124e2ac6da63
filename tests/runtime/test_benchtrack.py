"""Benchmark trajectory bookkeeping: atomic writes, append, the gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.runtime.benchtrack import (
    GATE_METRICS,
    REGRESSION_TOLERANCE,
    append_entry,
    build_entry,
    check_regression,
    collect_bench_results,
    load_trajectory,
    main,
    write_bench_json,
)


def _summaries(
    requests=50.0, serial=2000.0, workers4=400.0, speedup=15.0,
    events=2.0e5,
):
    return {
        "service": {"events_per_sec": events, "requests_per_sec": requests},
        "hybrid": {
            "grid_points_per_sec_serial": serial,
            "grid_points_per_sec_workers4": workers4,
            "hybrid_speedup": speedup,
        },
    }


class TestBenchJsonWrites:
    def test_atomic_write_and_collect(self, tmp_path):
        d = str(tmp_path)
        path = write_bench_json(d, "hybrid", {"hybrid_speedup": 12.5})
        assert os.path.basename(path) == "BENCH_hybrid.json"
        # no temp-file residue from the atomic rename
        assert sorted(os.listdir(d)) == ["BENCH_hybrid.json"]
        assert collect_bench_results(d) == {
            "hybrid": {"hybrid_speedup": 12.5}
        }

    def test_empty_directory_is_noop(self, tmp_path):
        assert write_bench_json("", "hybrid", {}) == ""

    def test_overwrite_replaces_cleanly(self, tmp_path):
        d = str(tmp_path)
        write_bench_json(d, "service", {"events_per_sec": 1.0})
        write_bench_json(d, "service", {"events_per_sec": 2.0})
        assert collect_bench_results(d)["service"]["events_per_sec"] == 2.0

    def test_conftest_helper_routes_through_benchtrack(self, tmp_path):
        import importlib.util

        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        spec = importlib.util.spec_from_file_location(
            "bench_conftest",
            os.path.join(repo, "benchmarks", "conftest.py"),
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.write_bench_json(str(tmp_path), "probe", {"k": 1})
        assert (tmp_path / "BENCH_probe.json").exists()


class TestTrajectory:
    def test_build_entry_pulls_gate_metrics(self):
        entry = build_entry("pr8", _summaries(), timestamp="2026-08-07")
        assert entry["label"] == "pr8"
        assert entry["timestamp"] == "2026-08-07"
        assert entry["suites"] == ["hybrid", "service"]
        assert set(entry["metrics"]) == set(GATE_METRICS)
        assert entry["metrics"]["requests_per_sec"] == 50.0

    def test_missing_suite_records_none(self):
        entry = build_entry("pr8", {"service": {"requests_per_sec": 1.0}})
        assert entry["metrics"]["hybrid_speedup"] is None

    def test_append_creates_and_extends(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, build_entry("pr7", _summaries()))
        doc = append_entry(path, build_entry("pr8", _summaries()))
        assert [e["label"] for e in doc["entries"]] == ["pr7", "pr8"]
        assert load_trajectory(path) == doc

    def test_reappend_same_label_replaces(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, build_entry("pr8", _summaries(requests=1.0)))
        doc = append_entry(path, build_entry("pr8", _summaries(requests=2.0)))
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["metrics"]["requests_per_sec"] == 2.0

    def test_load_rejects_non_trajectory(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"entries": 3}\n')
        with pytest.raises(ValueError, match="trajectory"):
            load_trajectory(str(path))


class TestRegressionGate:
    def test_single_entry_never_fails(self):
        assert check_regression([build_entry("pr8", _summaries())]) == []

    def test_within_tolerance_passes(self):
        entries = [
            build_entry("pr7", _summaries(requests=100.0)),
            build_entry("pr8", _summaries(requests=81.0)),  # -19%
        ]
        assert check_regression(entries) == []

    def test_fewer_events_per_sec_is_not_gated(self):
        # The same requests in fewer DES events is a speedup, not a
        # regression: events_per_sec is recorded but never gated.
        entries = [
            build_entry("pr7", _summaries(events=2.0e5)),
            build_entry("pr8", _summaries(events=0.5e5, requests=100.0)),
        ]
        assert "events_per_sec" not in GATE_METRICS
        assert "events_per_sec" not in entries[-1]["metrics"]
        assert check_regression(entries) == []

    def test_past_tolerance_fails_with_metric_name(self):
        entries = [
            build_entry("pr7", _summaries(serial=1000.0)),
            build_entry("pr8", _summaries(serial=700.0)),  # -30%
        ]
        violations = check_regression(entries)
        assert len(violations) == 1
        assert "grid_points_per_sec_serial" in violations[0]

    def test_missing_metric_is_skipped(self):
        old = build_entry("pr7", _summaries())
        new = build_entry("pr8", {"service": {"requests_per_sec": 1.0}})
        # hybrid metrics absent in pr8 -> skipped; requests crashed -> fail
        violations = check_regression([old, new])
        assert len(violations) == 1
        assert "requests_per_sec" in violations[0]

    def test_tolerance_boundary_is_exclusive(self):
        old = build_entry("pr7", _summaries(requests=100.0))
        exactly = build_entry(
            "pr8", _summaries(requests=100.0 * (1.0 - REGRESSION_TOLERANCE))
        )
        assert check_regression([old, exactly]) == []


class TestGateEdgeCases:
    """The four degenerate trajectory shapes the gate must not trip on.

    Each is pinned explicitly: an empty trajectory, a single entry, and
    a metric present on only one side of the comparison (either side)
    must produce a clean pass — never an ``IndexError`` or a spurious
    violation — because CI runs the gate on brand-new repos and on PRs
    that add or retire a benchmark suite.
    """

    def test_zero_entries_pass(self):
        assert check_regression([]) == []

    def test_one_entry_passes(self):
        assert check_regression([build_entry("pr8", _summaries())]) == []

    def test_metric_only_in_previous_is_skipped(self):
        # pr8 retired the hybrid suite: its metrics exist only in pr7.
        old = build_entry("pr7", _summaries())
        new = build_entry("pr8", {"service": {"requests_per_sec": 50.0}})
        assert check_regression([old, new]) == []

    def test_metric_only_in_current_is_skipped(self):
        # pr8 introduced the hybrid suite: no baseline to regress from.
        old = build_entry("pr7", {"service": {"requests_per_sec": 50.0}})
        new = build_entry("pr8", _summaries())
        assert check_regression([old, new]) == []

    def test_gate_cli_passes_without_a_trajectory_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.json")
        assert main(["gate", "--out", missing]) == 0
        assert "PASS (0 entries" in capsys.readouterr().out

    def test_gate_cli_passes_with_one_entry(self, tmp_path, capsys):
        out = str(tmp_path / "traj.json")
        append_entry(out, build_entry("pr8", _summaries()))
        assert main(["gate", "--out", out]) == 0
        assert "PASS (1 entry," in capsys.readouterr().out


class TestCli:
    def _bench_dir(self, tmp_path):
        d = str(tmp_path / "bench")
        for suite, payload in _summaries().items():
            write_bench_json(d, suite, payload)
        return d

    def test_append_then_gate_pass(self, tmp_path, capsys):
        d = self._bench_dir(tmp_path)
        out = str(tmp_path / "traj.json")
        assert main([
            "append", "--dir", d, "--label", "pr8",
            "--timestamp", "2026-08-07", "--out", out,
        ]) == 0
        assert "appended 'pr8'" in capsys.readouterr().out
        assert main(["gate", "--out", out]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        out = str(tmp_path / "traj.json")
        append_entry(out, build_entry("pr7", _summaries(speedup=20.0)))
        append_entry(out, build_entry("pr8", _summaries(speedup=10.0)))
        assert main(["gate", "--out", out]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_append_without_summaries_is_usage_error(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        rc = main([
            "append", "--dir", empty, "--label", "x",
            "--out", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_trajectory_file_is_valid_json(self, tmp_path):
        out = str(tmp_path / "traj.json")
        append_entry(out, build_entry("pr8", _summaries()))
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["version"] == 1
