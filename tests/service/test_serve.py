"""Serve-harness tests: journaling, resume, workers, tenants file, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runtime.journal import JournalError
from repro.runtime.parallel import fork_available
from repro.service import (
    ServiceConfig,
    crash_safe_serve,
    default_tenants,
    load_tenants,
)

CONFIG = ServiceConfig(horizon=2.0)


class TestCrashSafeServe:
    def test_journal_and_resume_identical(self, tmp_path):
        run = str(tmp_path / "run")
        first = crash_safe_serve(
            run, default_tenants(), CONFIG, seed=3, replications=2
        )
        again = crash_safe_serve(
            run, default_tenants(), CONFIG, seed=3, replications=2,
            resume=True,
        )
        assert first.computed_points == 2
        assert again.resumed_points == 2
        assert again.computed_points == 0
        assert first.reports == again.reports
        assert first.audit.ok and again.audit.ok

    def test_zero_workers_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            crash_safe_serve(
                str(tmp_path / "run"), default_tenants(), CONFIG, workers=0
            )

    @pytest.mark.parametrize(
        "field", ["horizon", "quantum", "epoch", "checkpoint_cost"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ServiceConfig(**{field: value})

    def test_meta_mismatch_rejected(self, tmp_path):
        run = str(tmp_path / "run")
        crash_safe_serve(run, default_tenants(), CONFIG, seed=3)
        with pytest.raises(JournalError, match="meta"):
            crash_safe_serve(
                run, default_tenants(), CONFIG, seed=4, resume=True
            )

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_workers_bit_identical_to_serial(self, tmp_path):
        serial = crash_safe_serve(
            str(tmp_path / "serial"), default_tenants(), CONFIG,
            seed=5, replications=3, workers=1,
        )
        parallel = crash_safe_serve(
            str(tmp_path / "parallel"), default_tenants(), CONFIG,
            seed=5, replications=3, workers=2,
        )
        assert json.dumps(serial.reports, sort_keys=True) == json.dumps(
            parallel.reports, sort_keys=True
        )
        assert (tmp_path / "serial" / "journal.jsonl").read_bytes() == (
            tmp_path / "parallel" / "journal.jsonl"
        ).read_bytes()

    def test_invariants_json_written(self, tmp_path):
        run = tmp_path / "run"
        crash_safe_serve(str(run), default_tenants(), CONFIG, seed=1)
        doc = json.loads((run / "invariants.json").read_text())
        assert doc["ok"] is True
        assert "service-accounting" in doc["checked"]


class TestTenantsFile:
    def test_load_round_trip(self, tmp_path):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps({"tenants": [
            {"name": "a", "priority": 1, "arrival": "poisson",
             "rate": 5.0, "tasks": [["m", 0.05, 1.0]]},
            {"name": "b", "arrival": "closed",
             "trace": [["m", 0.05], ["n", 0.03]]},
        ]}))
        tenants = load_tenants(str(spec))
        assert [t.name for t in tenants] == ["a", "b"]
        assert tenants[1].trace.n_calls == 2

    def test_unknown_key_rejected(self, tmp_path):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps([{"name": "a", "prio": 1}]))
        with pytest.raises(ValueError, match="unknown tenant spec key"):
            load_tenants(str(spec))

    def test_duplicate_names_rejected(self, tmp_path):
        spec = tmp_path / "tenants.json"
        entry = {"name": "a", "arrival": "poisson", "rate": 1.0,
                 "tasks": [["m", 0.05, 1.0]]}
        spec.write_text(json.dumps([entry, entry]))
        with pytest.raises(ValueError, match="duplicate"):
            load_tenants(str(spec))


class TestServeCli:
    def test_serve_ok(self, capsys):
        assert main(["serve", "--ticks", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("gold", "silver", "bronze"):
            assert name in out

    def test_serve_json_is_canonical(self, capsys):
        assert main(["serve", "--ticks", "2", "--seed", "1",
                     "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--ticks", "2", "--seed", "1",
                     "--json"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["totals"]["arrived"] > 0

    def test_serve_run_dir_and_resume(self, tmp_path, capsys):
        run = str(tmp_path / "run")
        args = ["serve", "--ticks", "2", "--seed", "2", "--run-dir",
                run, "--replications", "2", "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "replayed 2, computed 0" in resumed
        assert first.splitlines()[:-4] == resumed.splitlines()[:-4]

    def test_serve_degrade_flag(self, capsys):
        assert main(["serve", "--ticks", "2", "--seed", "1",
                     "--degrade-at", "1:1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["retired_slots"] == [1]

    @pytest.mark.parametrize("ticks", ["nan", "inf", "-inf", "0"])
    def test_serve_bad_ticks_is_usage_error(self, ticks, capsys):
        # NaN passed the old ``horizon <= 0`` check and inf never
        # drained: both used to hang instead of exiting.
        assert main(["serve", f"--ticks={ticks}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: horizon must be finite")
        assert err.count("\n") == 1

    def test_chaos_bad_ticks_is_usage_error(self, capsys):
        assert main(["chaos", "--ticks", "nan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: horizon must be finite")
        assert err.count("\n") == 1

    def test_serve_zero_workers_is_usage_error(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["serve", "--ticks", "2", "--run-dir", str(run),
                     "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "repro: error: workers must be >= 1: 0\n"
        assert not run.exists()

    @pytest.mark.parametrize("verb", ["serve", "chaos"])
    @pytest.mark.parametrize(
        "flag,value",
        [("replications", "0"), ("replications", "-3"),
         ("workers", "0"), ("workers", "-2")],
    )
    def test_bad_counts_without_run_dir_are_usage_errors(
        self, verb, flag, value, capsys
    ):
        # Without --run-dir both counts used to be ignored: one
        # replication ran and the verb exited 0.
        assert main([verb, "--ticks", "2", f"--{flag}", value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: error: {flag} must be >= 1: {value}\n"
        assert captured.out == ""

    def test_serve_bad_degrade_is_usage_error(self, capsys):
        assert main(["serve", "--ticks", "2",
                     "--degrade-at", "nope"]) == 2
        assert "time:slot" in capsys.readouterr().err

    def test_serve_tenants_file(self, tmp_path, capsys):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps([
            {"name": "only", "arrival": "poisson", "rate": 5.0,
             "tasks": [["m", 0.05, 1.0]]},
        ]))
        assert main(["serve", "--ticks", "2", "--tenants",
                     str(spec)]) == 0
        assert "only" in capsys.readouterr().out


OPEN = {"name": "t", "arrival": "poisson", "rate": 5.0,
        "tasks": [["m", 0.05, 1.0]]}


@pytest.mark.parametrize(
    "tenant,needle",
    [
        # each of these used to hang, print a bogus report or crash
        ({**OPEN, "rate": float("nan")}, "rate"),
        ({**OPEN, "tasks": [["m", float("inf")]]}, "time"),
        ({**OPEN, "slo_latency": float("nan")}, "slo_latency"),
        ({**OPEN, "tasks": [{"module": "m", "time": 0.05}]}, "tasks[0]"),
        ({**OPEN, "tasks": [["m", 0.05, -1.0]]}, "weight"),
        ({**OPEN, "burst_on": float("inf")}, "burst_on"),
        ({**OPEN, "rate_limit": float("nan")}, "rate_limit"),
        ({**OPEN, "bucket": float("inf")}, "bucket"),
        ({**OPEN, "queue_capacity": float("nan")}, "queue_capacity"),
        ({**OPEN, "rate": "fast"}, "'t'"),
        ({"name": "t", "arrival": "closed", "trace": [["m"]]}, "trace[0]"),
        ({"name": "t", "arrival": "closed", "trace": [["m", float("nan")]]},
         "time"),
    ],
)
def test_bad_tenant_file_is_a_one_line_usage_error(tmp_path, tenant, needle):
    import subprocess
    import sys
    from pathlib import Path

    spec = tmp_path / "tenants.json"
    spec.write_text(json.dumps([tenant]))
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--ticks", "2",
         "--tenants", str(spec)],
        capture_output=True, text=True, timeout=60,
        env={**__import__("os").environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("repro: error: tenant 't'")
    assert needle in proc.stderr
