"""CLI surface of the observability subsystem: trace, report, sweep knobs."""

import json

import pytest

from repro.cli import EXIT_OK, EXIT_USAGE, build_parser, main


class TestParser:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "--kqps", "100"])
        assert args.command == "trace"
        assert args.kqps == 100.0
        assert args.output == "trace.json"
        assert args.nodes == 1

    def test_trace_rate_flags_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "--qps", "100", "--kqps", "1"]
            )

    def test_report_flags(self):
        args = build_parser().parse_args(
            ["report", "--all", "--quick", "-o", "page.html",
             "--telemetry-hz", "20"]
        )
        assert args.all and args.quick
        assert args.output == "page.html"
        assert args.telemetry_hz == 20.0

    def test_sweep_observability_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--kqps", "10", "--telemetry-hz", "50",
             "--manifest", "runs.jsonl"]
        )
        assert args.telemetry_hz == 50.0
        assert args.manifest == "runs.jsonl"


class TestTraceCommand:
    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "trace", "--kqps", "40", "--horizon", "0.01", "-o", str(out),
        ])
        assert code == EXIT_OK
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        assert document["metadata"]["dropped_events"] == 0
        assert "perfetto" in capsys.readouterr().out

    def test_trace_requires_exactly_one_rate(self, tmp_path, capsys):
        code = main(["trace", "-o", str(tmp_path / "t.json")])
        assert code == EXIT_USAGE
        assert "rate" in capsys.readouterr().err

    def test_trace_capacity_reports_drops(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "trace", "--kqps", "100", "--horizon", "0.02",
            "--capacity", "50", "-o", str(out),
        ])
        assert code == EXIT_OK
        assert "dropped" in capsys.readouterr().out
        assert json.loads(out.read_text())["metadata"]["dropped_events"] > 0


class TestReportCommand:
    def test_report_requires_selection(self, capsys):
        assert main(["report"]) == EXIT_USAGE

    def test_report_unknown_experiment(self, capsys):
        assert main(["report", "fig99"]) == EXIT_USAGE

    def test_report_writes_single_html(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        code = main([
            "report", "table1", "--quick", "--no-cache", "-o", str(out),
        ])
        assert code == EXIT_OK
        page = out.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert 'id="table1"' in page
        assert '<svg class="figure"' in page or "<img" in page


class TestSweepManifest:
    def test_sweep_appends_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "runs.jsonl"
        code = main([
            "sweep", "--kqps", "20", "--horizon", "0.01", "--no-cache",
            "--telemetry-hz", "20", "--manifest", str(manifest),
        ])
        assert code == EXIT_OK
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        events = [row["event"] for row in rows]
        assert "sweep" in events and "finished" in events
