"""Figures and the self-contained HTML report."""

import json

import pytest

from repro.experiments.api import (
    ExperimentResult,
    FigureSeries,
    FigureSpec,
    all_experiments,
    generic_figures,
    get_experiment,
    run_experiments,
)
from repro.obs.figures import (
    matplotlib_available,
    render_figure,
    render_svg,
    timeline_figures,
)
from repro.obs.report import build_report
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import ScenarioSpec


def _figure(**overrides):
    base = dict(
        id="t:demo", title="p99 vs qps", x_label="qps", y_label="seconds",
        series=(
            FigureSeries(label="baseline", x=(10.0, 20.0), y=(0.001, 0.004)),
            FigureSeries(label="AW", x=(10.0, 20.0), y=(0.002, 0.005)),
        ),
    )
    base.update(overrides)
    return FigureSpec(**base)


class TestGenericFigures:
    def test_qps_metric_lines_grouped_by_config(self):
        result = ExperimentResult(
            experiment_id="demo", title="demo", artifact="Figure X",
            records=[
                {"config": "baseline", "qps": 10_000, "p99_latency": 1e-3},
                {"config": "baseline", "qps": 20_000, "p99_latency": 2e-3},
                {"config": "AW", "qps": 10_000, "p99_latency": 3e-3},
                {"config": "AW", "qps": 20_000, "p99_latency": 4e-3},
            ],
        )
        figures = generic_figures(result)
        assert figures
        labels = {s.label for s in figures[0].series}
        assert labels == {"baseline", "AW"}

    def test_every_registered_experiment_declares_figures(self):
        # Static check only: figures() must exist and be callable with a
        # records-free result without crashing (the record-count bar).
        for experiment in all_experiments():
            result = ExperimentResult(
                experiment_id=experiment.id, title=experiment.title,
                artifact=experiment.artifact, records=[{"value": "static"}],
            )
            figures = experiment.figures(result)
            assert len(figures) >= 1, experiment.id


class TestSvgRenderer:
    def test_line_figure_renders_svg(self):
        svg = render_svg(_figure())
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polyline" in svg
        assert "p99 vs qps" in svg
        assert "baseline" in svg and "AW" in svg  # legend

    def test_bar_figure_renders_rects(self):
        svg = render_svg(_figure(kind="bar"))
        assert "<rect" in svg and "polyline" not in svg

    def test_empty_figure_safe(self):
        svg = render_svg(_figure(series=()))
        assert "no data" in svg

    def test_flat_and_log_scales_stay_finite(self):
        flat = _figure(series=(
            FigureSeries(label="v", x=(1.0, 2.0), y=(5.0, 5.0)),
        ))
        assert "NaN" not in render_svg(flat) and "inf" not in render_svg(flat)
        log = _figure(log_y=True, series=(
            FigureSeries(label="v", x=(1.0, 2.0), y=(1.0, 1000.0)),
        ))
        assert "NaN" not in render_svg(log)

    def test_titles_are_escaped(self):
        svg = render_svg(_figure(title='<script>alert("x")</script>'))
        assert "<script>" not in svg

    def test_render_figure_uses_svg_without_matplotlib(self):
        rendered = render_figure(_figure())
        if matplotlib_available():
            assert rendered.startswith("<img")
        else:
            assert rendered.startswith("<svg")


class TestTimelineFigures:
    def test_power_cstate_and_load_plots(self):
        spec = ScenarioSpec(
            "memcached", "baseline", qps=60_000, horizon=0.05, seed=42,
            telemetry_hz=100,
        )
        figures = timeline_figures(spec.execute().timeline)
        ids = {f.id for f in figures}
        assert {"timeline:power", "timeline:cstates", "timeline:load"} <= ids
        for figure in figures:
            assert render_svg(figure).startswith("<svg")

    def test_no_timeline_no_figures(self):
        assert timeline_figures(None) == []
        assert timeline_figures({}) == []


class TestReportPage:
    @pytest.fixture(scope="class")
    def page(self, tmp_path_factory):
        experiments = [get_experiment("table1"), get_experiment("fig8").quick()]
        runner = SweepRunner(cache={})
        results = run_experiments(experiments, runner=runner)
        spec = ScenarioSpec(
            "memcached", "baseline", qps=60_000, horizon=0.05, seed=42,
            telemetry_hz=50,
        )
        manifest_path = tmp_path_factory.mktemp("obs") / "runs.jsonl"
        manifest_path.write_text(json.dumps({
            "event": "finished", "t": 0.1, "wall": 1.0, "worker": "main",
            "wall_s": 0.5, "events_per_s": 1000.0,
        }) + "\n")
        return build_report(
            experiments, results,
            timeline=spec.execute().timeline, timeline_label="demo run",
            manifest_path=str(manifest_path),
            subtitle="test page",
        )

    def test_page_is_self_contained_html(self, page):
        assert page.startswith("<!DOCTYPE html>")
        # No external fetches: the only allowed data is inline markup or
        # data: URIs. (The SVG xmlns is a namespace name, not a fetch.)
        assert 'src="http' not in page
        assert 'href="http' not in page
        assert "<link" not in page
        assert "<script" not in page

    def test_each_experiment_has_a_section_with_figures(self, page):
        for experiment_id in ("table1", "fig8"):
            section = page.split(f'<h3 id="{experiment_id}"', 1)[1]
            body = section.split("<h3", 1)[0].split("<h2", 1)[0]
            assert '<svg class="figure"' in body or "<img" in body, experiment_id

    def test_telemetry_and_manifest_sections_present(self, page):
        assert "Telemetry timeline" in page
        assert "Sweep manifest" in page
        assert "finished" in page


class TestFleetReport:
    """``repro report --manifest <dir>`` renders the whole worker fleet."""

    @pytest.fixture()
    def manifest_dir(self, tmp_path):
        from repro.obs.manifest import RunManifest

        root = tmp_path / "manifests"
        root.mkdir()
        with RunManifest(str(root / "w1.jsonl"), worker="w1") as m:
            m.emit("worker_start", pid=11)
            m.emit("claimed", job="aaa")
            m.emit("finished", job="aaa", wall_s=0.2)
            m.emit("heartbeat", job="aaa", held=True)
            m.emit("worker_exit", claims=1, settled=1)
        with RunManifest(str(root / "w2.jsonl"), worker="w2") as m:
            m.emit("worker_start", pid=22)
            m.emit("claimed", job="bbb")
        # w2 was SIGKILLed mid-write: torn final line.
        with open(root / "w2.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"event": "finis')
        return root

    def test_summarize_manifest_dir_merges_workers(self, manifest_dir):
        from repro.obs.report import summarize_manifest_dir

        summary = summarize_manifest_dir(str(manifest_dir))
        assert [w["worker"] for w in summary["workers"]] == ["w1", "w2"]
        assert summary["counts"]["claimed"] == 2
        assert summary["counts"]["finished"] == 1
        torn = {w["worker"]: w["torn_tail"] for w in summary["workers"]}
        assert torn == {"w1": False, "w2": True}

    def test_build_report_renders_fleet_for_directory(self, manifest_dir):
        page = build_report(
            [], {}, manifest_path=str(manifest_dir), subtitle="fleet test",
        )
        assert "Distributed fleet" in page
        assert "w1" in page and "w2" in page
        assert "heartbeat" in page
        assert "torn" in page.lower()  # the dead worker is flagged
