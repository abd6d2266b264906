"""Tests for the first-class Experiment API (repro.experiments.api)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.api import (
    FORMATS,
    Experiment,
    ExperimentResult,
    all_experiments,
    collect_grid,
    execute_experiments,
    experiment_ids,
    get_experiment,
    get_experiment_class,
    output_extension,
    register_experiment,
    render,
    render_csv,
    render_json,
    render_jsonl,
    run_experiments,
    unregister_experiment,
)
from repro.sweep import ScenarioGrid, ScenarioSpec

#: The canonical reading order `repro run --all` uses.
EXPECTED_IDS = [
    "table1", "table2", "table3", "table4", "motivation",
    "latency_breakdown", "validation", "snoop", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "table5", "ablation", "governor_study",
    "proportionality", "sensitivity",
    "fanout_tail", "balancer_study", "cluster_energy", "fleet_scale",
]


class TestRegistry:
    def test_all_experiments_registered_in_reading_order(self):
        assert experiment_ids() == EXPECTED_IDS

    def test_round_trip(self):
        for experiment_id in experiment_ids():
            experiment = get_experiment(experiment_id)
            assert experiment.id == experiment_id
            assert isinstance(experiment.title, str) and experiment.title
            assert isinstance(experiment.artifact, str) and experiment.artifact
            assert type(experiment) is get_experiment_class(experiment_id)

    def test_unknown_id_raises(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            get_experiment("fig99")

    def test_duplicate_id_rejected(self):
        class Impostor(Experiment):
            id = "fig8"
            title = "not the real fig8"
            artifact = "Figure 8"

            def analyze(self, results=None):
                return self.make_result(records=[])

        with pytest.raises(ConfigurationError, match="already registered"):
            register_experiment(Impostor)

    def test_register_and_unregister(self):
        class Throwaway(Experiment):
            id = "throwaway_test_experiment"
            title = "throwaway"
            artifact = "test"

            def analyze(self, results=None):
                return self.make_result(records=[{"x": 1}])

        try:
            register_experiment(Throwaway)
            assert "throwaway_test_experiment" in experiment_ids()
            result = get_experiment("throwaway_test_experiment").analyze()
            assert result.records == [{"x": 1}]
        finally:
            unregister_experiment("throwaway_test_experiment")
        assert "throwaway_test_experiment" not in experiment_ids()

    def test_missing_metadata_rejected(self):
        class NoTitle(Experiment):
            id = "no_title"
            artifact = "test"

            def analyze(self, results=None):  # pragma: no cover
                return self.make_result(records=[])

        with pytest.raises(ConfigurationError, match="title"):
            register_experiment(NoTitle)

    def test_all_experiments_returns_fresh_instances(self):
        first = all_experiments()
        second = all_experiments()
        assert [e.id for e in first] == EXPECTED_IDS
        assert all(a is not b for a, b in zip(first, second))


class TestGridUnion:
    def test_fig10_grid_covers_fig9(self):
        fig9 = get_experiment("fig9")
        fig10 = get_experiment("fig10")
        keys9 = {spec.cache_key for spec in fig9.grid()}
        keys10 = {spec.cache_key for spec in fig10.grid()}
        assert keys9 < keys10
        union = collect_grid([fig9, fig10])
        assert len(union) == len(keys10)

    def test_table5_grid_equals_fig8(self):
        fig8 = get_experiment("fig8")
        table5 = get_experiment("table5")
        keys8 = {spec.cache_key for spec in fig8.grid()}
        keys5 = {spec.cache_key for spec in table5.grid()}
        assert keys5 == keys8
        union = collect_grid([fig8, table5])
        assert len(union) == len(keys8)

    def test_union_preserves_first_occurrence_order(self):
        spec_a = ScenarioSpec(workload="memcached", config="baseline",
                              qps=20_000, horizon=0.02, seed=7)
        spec_b = ScenarioSpec(workload="memcached", config="AW",
                              qps=20_000, horizon=0.02, seed=7)

        class GridOnly(Experiment):
            id = "grid_only"
            title = "grid only"
            artifact = "test"

            def __init__(self, specs):
                super().__init__()
                self._specs = specs

            def grid(self):
                return ScenarioGrid(self._specs)

            def analyze(self, results=None):  # pragma: no cover
                return self.make_result(records=[])

        union = collect_grid([
            GridOnly([spec_a, spec_b]), GridOnly([spec_b, spec_a]),
        ])
        assert [spec.cache_key for spec in union] == [
            spec_a.cache_key, spec_b.cache_key,
        ]

    def test_static_experiments_have_empty_grids(self):
        for experiment_id in ("table1", "table2", "table3", "table4",
                              "motivation", "latency_breakdown",
                              "validation", "snoop", "ablation",
                              "sensitivity"):
            assert len(get_experiment(experiment_id).grid()) == 0


class TestBatchedExecution:
    def test_execute_returns_result_for_every_unique_spec(self):
        fig9 = get_experiment("fig9").quick()
        result_map = execute_experiments([fig9])
        keys = {spec.cache_key for spec in fig9.grid()}
        assert set(result_map) == keys

    def test_shared_points_analyzed_from_one_map(self):
        fig9 = get_experiment("fig9").quick()
        fig10 = get_experiment("fig10").quick()
        results = run_experiments([fig9, fig10])
        assert list(results) == ["fig9", "fig10"]
        assert results["fig9"].records and results["fig10"].records

    def test_batched_equals_standalone(self):
        experiment = get_experiment("table5").quick()
        batched = run_experiments([experiment])["table5"]
        standalone = get_experiment("table5").quick().execute()
        assert batched.records == standalone.records


class TestEveryExperimentQuick:
    """Every registered experiment's grid()/analyze() on a tiny horizon."""

    @pytest.fixture(scope="class")
    def quick_results(self):
        experiments = [e.quick() for e in all_experiments()]
        return experiments, run_experiments(experiments)

    def test_every_experiment_emits_records(self, quick_results):
        _, results = quick_results
        for experiment_id in EXPECTED_IDS:
            assert results[experiment_id].records, (
                f"{experiment_id} emitted no records"
            )

    def test_records_are_json_safe(self, quick_results):
        _, results = quick_results
        for result in results.values():
            json.dumps(result.to_json_dict())

    def test_sim_records_carry_residency_detail(self, quick_results):
        _, results = quick_results
        # Fig 9/11 records are RunResult records directly.
        for experiment_id in ("fig9", "fig11"):
            for record in results[experiment_id].records:
                assert "residency" in record
                assert "transitions_per_second" in record
        # Fig 8 nests the per-config run detail.
        for record in results["fig8"].records:
            assert "residency" in record["baseline"]
            assert "transitions_per_second" in record["aw"]

    def test_every_format_renders(self, quick_results):
        experiments, results = quick_results
        for experiment in experiments:
            result = results[experiment.id]
            for fmt in FORMATS:
                text = render(experiment, result, fmt)
                assert isinstance(text, str) and text

    def test_quick_of_static_experiment_is_equivalent(self):
        quick = get_experiment("table2").quick()
        assert quick.analyze().records == get_experiment("table2").analyze().records


class TestRenderers:
    @pytest.fixture(scope="class")
    def table2_result(self):
        return get_experiment("table2").analyze()

    def test_render_json_envelope(self, table2_result):
        data = json.loads(render_json(table2_result))
        assert data["experiment"] == "table2"
        assert data["artifact"] == "Table 2"
        assert len(data["records"]) == 6

    def test_render_jsonl_tags_every_line(self, table2_result):
        lines = render_jsonl(table2_result).splitlines()
        assert len(lines) == 6
        for line in lines:
            record = json.loads(line)
            assert record["experiment"] == "table2"
            assert record["state"]

    def test_render_csv_header_is_union_of_keys(self, table2_result):
        lines = render_csv(table2_result).splitlines()
        assert lines[0].split(",")[:2] == ["state", "clocks"]
        assert len(lines) == 7  # header + 6 states

    def test_csv_nests_containers_as_json(self):
        result = ExperimentResult(
            experiment_id="x", title="x", artifact="x",
            records=[{"a": 1, "nested": {"k": 2}}],
        )
        lines = render_csv(result).splitlines()
        assert lines[0] == "a,nested"
        assert json.loads(lines[1].split(",", 1)[1].strip('"').replace('""', '"')) \
            == {"k": 2}

    def test_unknown_format_rejected(self, table2_result):
        with pytest.raises(ConfigurationError, match="unknown output format"):
            render(get_experiment("table2"), table2_result, "yaml")
        with pytest.raises(ConfigurationError):
            output_extension("yaml")

    def test_output_extensions(self):
        assert output_extension("table") == "txt"
        assert output_extension("json") == "json"
        assert output_extension("jsonl") == "jsonl"
        assert output_extension("csv") == "csv"


class TestReviewRegressions:
    def test_result_record_keeps_spec_identity_for_aliases(self):
        """A registered alias must round-trip as the swept key, not the
        workload object's own display name."""
        from repro.sweep import SweepRunner, result_record
        from repro.sweep.spec import WORKLOAD_FACTORIES, register_workload
        from repro.workloads import memcached_workload

        register_workload("mc-alias", memcached_workload)
        try:
            spec = ScenarioSpec(workload="mc-alias", config="baseline",
                                qps=20_000, horizon=0.02, seed=7)
            record = result_record(spec, SweepRunner().run(spec))
            assert record["workload"] == "mc-alias"
            assert record["config"] == "baseline"
        finally:
            del WORKLOAD_FACTORIES["mc-alias"]

    def test_governor_study_renders_with_custom_subsets(self):
        from repro.experiments.governor_study import (
            GovernorStudyExperiment,
            GovernorStudyParams,
        )

        experiment = GovernorStudyExperiment(
            GovernorStudyParams(qps=20_000, horizon=0.02,
                                governors=("menu",))
        )
        text = experiment.render_text(experiment.execute())
        assert "Governor study" in text
        assert "cannot match AW" not in text  # summary needs all defaults

    def test_fallback_uses_batch_runner(self):
        """A point missing from the map resolves through the batch's
        runner, not the process-wide default."""
        from repro.sweep import SweepRunner

        spec = ScenarioSpec(workload="memcached", config="baseline",
                            qps=20_000, horizon=0.02, seed=7)

        class OnePoint(Experiment):
            id = "one_point_fallback_test"
            title = "fallback"
            artifact = "test"

            def grid(self):
                return ScenarioGrid([spec])

            def analyze(self, results=None):
                run = self.point({}, spec)  # empty map forces fallback
                return self.make_result(records=[run.to_record()])

        ran = []

        class SpyRunner(SweepRunner):
            def run(self, one_spec):
                ran.append(one_spec.cache_key)
                return super().run(one_spec)

        result = run_experiments([OnePoint()], runner=SpyRunner())
        assert ran  # the fallback went through the batch runner
        assert result["one_point_fallback_test"].records
