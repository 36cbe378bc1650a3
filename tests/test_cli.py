"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["demo"],
            ["demo", "--packed"],
            ["demo", "--two-server", "--key-bits", "128"],
            ["testbed", "--seed", "2"],
            ["zones", "--probe-dbm", "12"],
            ["simulate", "--hours", "2", "--rate", "0.5", "--packing", "4"],
            ["profile", "--key-bits", "128"],
            ["audit"],
            ["audit", "src/repro", "--select", "CRY001", "--format", "json"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.paths == ["src/repro"]
        assert args.baseline == "audit-baseline.json"
        assert not args.update_baseline

    def test_audit_has_no_cache_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["audit", "--cache", "audit-cache.json"])
        assert exit_info.value.code == 2
        assert "--cache" in capsys.readouterr().err


class TestExecution:
    def test_demo(self, capsys):
        assert main(["demo", "--seed", "3", "--key-bits", "256"]) == 0
        out = capsys.readouterr().out
        assert "decision for" in out
        assert "GRANTED" in out or "DENIED" in out

    def test_demo_variant_conflict(self, capsys):
        assert main(["demo", "--packed", "--two-server"]) == 2

    def test_demo_two_server(self, capsys):
        assert main(["demo", "--seed", "3", "--key-bits", "256",
                     "--two-server"]) == 0
        assert "two-server" in capsys.readouterr().out

    def test_zones(self, capsys):
        assert main(["zones"]) == 0
        out = capsys.readouterr().out
        assert "reuse gain" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--hours", "2", "--rate", "0.5"]) == 0
        assert "requests served" in capsys.readouterr().out

    def test_profile(self, capsys):
        from repro.crypto import backend

        assert main(["profile", "--key-bits", "128", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "Encryption" in out
        # key length, arithmetic and reps in the header: a row is self-describing
        assert f"n = 128 bits · {backend.describe()} · 3 iterations" in out

    def test_testbed(self, capsys):
        assert main(["testbed", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario-4" in out


class TestNewerCommands:
    def test_negotiate(self, capsys):
        assert main(["negotiate", "--seed", "4", "--resolution-db", "4"]) == 0
        out = capsys.readouterr().out
        assert "max admissible power" in out or "inadmissible" in out

    def test_capacity(self, capsys):
        assert main(["capacity"]) == 0
        assert "spectrum-reuse multiple" in capsys.readouterr().out

    def test_new_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["negotiate", "--block", "3"]).block == 3
        assert parser.parse_args(["capacity", "--probe-dbm", "10"]).probe_dbm == 10


class TestServeLoadtest:
    def test_parses_with_defaults(self):
        args = build_parser().parse_args(["serve-loadtest"])
        assert args.command == "serve-loadtest"
        assert args.workers == 0
        assert args.max_batch == 8
        assert args.json is None
        assert args.workload == "steady"

    def test_parses_full_flag_set(self):
        args = build_parser().parse_args([
            "serve-loadtest", "--seed", "3", "--requests", "4", "--rate", "80",
            "--sus", "2", "--window-ms", "25", "--max-batch", "2",
            "--workers", "2", "--key-bits", "512", "--json", "out.json",
        ])
        assert args.requests == 4
        assert args.window_ms == 25.0
        assert args.json == "out.json"

    def test_runs_and_writes_json(self, capsys, tmp_path):
        import threading

        threads_before = set(threading.enumerate())
        out = tmp_path / "report.json"
        assert main([
            "serve-loadtest", "--seed", "3", "--requests", "3", "--rate", "200",
            "--sus", "2", "--window-ms", "20", "--max-batch", "2",
            "--json", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "throughput" in printed
        from repro.crypto import backend

        assert f"executor serial, crypto {backend.describe()}," in printed
        import json

        report = json.loads(out.read_text())
        assert report["requests"] == 3
        assert report["completed"] + report["rejected"] == 3
        assert "latency_s" in report and "batch_size" in report
        assert report["arrival_lag_s"]["count"] == 3
        assert "arrival lag p50 / max" in printed
        obfuscators = report["stp_obfuscators"]
        counters = report["metrics"]["counters"]
        assert obfuscators == {
            "ready": counters["stp_obfuscators_stocked_total"],
            "inline": counters["stp_obfuscators_inline_total"],
        }
        assert obfuscators["ready"] + obfuscators["inline"] > 0
        assert (
            f"stp obfuscators ready / inline | "
            f"{obfuscators['ready']} / {obfuscators['inline']}"
        ) in " ".join(printed.split())
        # No fill thread outlives the run.
        assert set(threading.enumerate()) <= threads_before

    @pytest.mark.parametrize(
        "flags",
        [["--host", "127.0.0.1"], ["--tls-cert", "c.pem", "--tls-key", "k.pem"],
         ["--tls-ca", "ca.pem"]],
    )
    def test_socket_flags_need_the_socket_plane(self, flags, capsys):
        assert main(["serve-loadtest", *flags]) == 2
        assert "--plane socket" in capsys.readouterr().err

    def test_tls_needs_cert_and_key(self, capsys, tmp_path):
        cert = tmp_path / "cert.pem"
        cert.write_text("x", encoding="utf-8")
        assert main([
            "serve-loadtest", "--plane", "socket", "--tls-cert", str(cert),
        ]) == 2
        assert "--tls-key" in capsys.readouterr().err
        assert main([
            "serve-loadtest", "--plane", "socket", "--tls-cert", str(cert),
            "--tls-key", str(tmp_path / "missing.pem"),
        ]) == 1
        assert "keyfile does not exist" in capsys.readouterr().err


class TestTelemetryCommands:
    def test_trace_parses_with_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.requests == 4
        assert args.json is None

    def test_metrics_dump_parses_with_defaults(self):
        args = build_parser().parse_args(["metrics-dump"])
        assert args.command == "metrics-dump"
        assert args.requests == 8
        assert args.format == "prom"

    def test_trace_prints_span_tree_and_writes_json(self, capsys, tmp_path):
        out = tmp_path / "spans.json"
        assert main([
            "trace", "--seed", "3", "--requests", "2", "--rate", "200",
            "--sus", "2", "--key-bits", "256", "--shards", "2",
            "--json", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "request" in printed
        assert "phase1" in printed and "phase2" in printed
        import json

        spans = json.loads(out.read_text())
        assert len(spans) == 2  # one root span per request
        assert all(span["name"] == "request" for span in spans)

    def test_metrics_dump_prometheus_to_file(self, capsys, tmp_path):
        out = tmp_path / "metrics.prom"
        assert main([
            "metrics-dump", "--seed", "3", "--requests", "2", "--rate", "200",
            "--sus", "2", "--key-bits", "256", "--output", str(out),
        ]) == 0
        text = out.read_text()
        assert "# TYPE requests_submitted counter" in text
        assert "# TYPE request_latency_s histogram" in text

    def test_metrics_dump_json_to_stdout(self, capsys):
        assert main([
            "metrics-dump", "--seed", "3", "--requests", "2", "--rate", "200",
            "--sus", "2", "--key-bits", "256", "--format", "json",
        ]) == 0
        import json

        parsed = json.loads(capsys.readouterr().out)
        assert parsed["counters"]["requests_submitted"] == 2


class TestChaos:
    def test_kill_shard_writes_json_verdict(self, capsys, tmp_path):
        out = tmp_path / "chaos.json"
        assert main(["chaos", "--plan", "kill-shard", "--json", str(out)]) == 0
        assert "chaos [kill-shard]" in capsys.readouterr().out
        import json

        (verdict,) = json.loads(out.read_text())
        assert verdict["ok"] is True
        assert verdict["transcript_equal"] is True

    def test_unknown_plan_is_a_typed_one_liner(self, capsys):
        assert main(["chaos", "--plan", "meteor-strike"]) == 1
        err = capsys.readouterr().err
        assert "pisa-repro chaos: error: unknown fault plan 'meteor-strike'" in err

    def test_socket_plans_run_alone(self, capsys):
        # Rejected while resolving the schedule: no worker is ever spawned.
        assert main(["chaos", "--plan", "proc-kill-shard,drop-links"]) == 1
        assert "run alone" in capsys.readouterr().err
