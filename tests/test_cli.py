"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    EXPERIMENT_IDS,
    build_parser,
    cmd_run,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_with_ids(self):
        args = build_parser().parse_args(["run", "table1", "table2"])
        assert args.ids == ["table1", "table2"]
        assert not args.all

    def test_run_all_flag(self):
        args = build_parser().parse_args(["run", "--all"])
        assert args.all

    def test_output_dir_flag(self):
        args = build_parser().parse_args(["run", "table1", "-o", "out"])
        assert args.output_dir == "out"

    def test_jobs_flag(self):
        args = build_parser().parse_args(["run", "--all", "--jobs", "4"])
        assert args.jobs == 4

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "--kqps", "10", "100"])
        assert args.command == "sweep"
        assert args.workload == ["memcached"]
        assert args.config == ["baseline"]
        assert args.kqps == [10.0, 100.0]

    def test_sweep_turbo_flags_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--kqps", "10", "--turbo", "--no-turbo"])

    def test_sweep_failure_flags(self):
        args = build_parser().parse_args([
            "sweep", "--kqps", "10", "--on-error", "skip",
            "--timeout", "5", "--retries", "2",
        ])
        assert args.on_error == "skip"
        assert args.timeout == 5.0
        assert args.retries == 2

    def test_cache_flags_on_run_and_sweep(self):
        run_args = build_parser().parse_args(["run", "table1", "--no-cache"])
        assert run_args.no_cache
        sweep_args = build_parser().parse_args(
            ["sweep", "--kqps", "10", "--cache-dir", "/tmp/x"]
        )
        assert sweep_args.cache_dir == "/tmp/x"
        assert not sweep_args.no_cache

    def test_grid_flag(self):
        args = build_parser().parse_args(["sweep", "--grid", "grid.jsonl"])
        assert args.grid == "grid.jsonl"


class TestCommands:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENT_IDS:
            assert experiment_id in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "table1", "motivation"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Eq. 1" in out

    def test_run_nothing_errors(self, capsys):
        assert main(["run"]) == EXIT_USAGE

    def test_unknown_id_is_usage_error(self, capsys):
        assert main(["run", "fig99"]) == EXIT_USAGE
        assert "fig99" in capsys.readouterr().err

    def test_output_dir_writes_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert cmd_run(["table2"], run_all=False, output_dir=out_dir) == 0
        path = os.path.join(out_dir, "table2.txt")
        assert os.path.exists(path)
        with open(path) as handle:
            assert "Table 2" in handle.read()

    def test_experiment_ids_all_importable(self):
        # Every registered experiment class is reachable from its module,
        # and the class is the only way to run it: no module keeps a
        # second run()/main() entry point beside the Experiment API.
        import importlib

        from repro.experiments.api import get_experiment_class

        for experiment_id in EXPERIMENT_IDS:
            cls = get_experiment_class(experiment_id)
            module = importlib.import_module(cls.__module__)
            assert getattr(module, cls.__name__) is cls
            assert not hasattr(module, "main")
            assert not hasattr(module, "run")


class TestRunFormats:
    def test_format_json_is_parseable_array(self, capsys):
        assert main(["run", "table2", "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data, list) and len(data) == 1
        assert data[0]["experiment"] == "table2"
        assert len(data[0]["records"]) == 6
        assert data[0]["records"][0]["state"] == "C0"

    def test_format_jsonl_tags_records(self, capsys):
        assert main(["run", "table1", "table2", "--format", "jsonl"]) == EXIT_OK
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert {record["experiment"] for record in lines} == {"table1", "table2"}
        assert all("state" in record for record in lines)

    def test_format_csv_golden(self, capsys):
        assert main(["run", "table2", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "state,clocks,adpll,l1l2_cache,voltage,context"
        assert lines[1] == "C0,running,on,coherent,active,maintained"
        assert len(lines) == 7

    def test_out_dir_writes_per_format_extension(self, tmp_path, capsys):
        out_dir = str(tmp_path / "records")
        code = main(["run", "table2", "--format", "jsonl", "--out", out_dir])
        assert code == EXIT_OK
        path = os.path.join(out_dir, "table2.jsonl")
        assert os.path.exists(path)
        with open(path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == 6

    def test_quick_sim_experiment_emits_structured_records(self, tmp_path, capsys):
        out_dir = str(tmp_path / "quick")
        code = main([
            "run", "fig9", "--quick", "--format", "json", "--out", out_dir,
        ])
        assert code == EXIT_OK
        with open(os.path.join(out_dir, "fig9.json")) as handle:
            data = json.load(handle)
        assert data["experiment"] == "fig9"
        assert data["records"]
        for record in data["records"]:
            assert record["completed"] > 0
            assert "residency" in record
            assert "transitions_per_second" in record

    def test_run_all_quick_batches_into_one_sweep(self, capsys, monkeypatch):
        # The union of every quick grid simulates through a *single*
        # deduplicated run_many call holding every unique point, and
        # every registered experiment emits records from that one batch.
        from repro.cli import cmd_run
        from repro.experiments.api import all_experiments, collect_grid
        from repro.sweep import SweepRunner, clear_shared_cache

        clear_shared_cache()
        calls = []
        original = SweepRunner.run_many

        def spying_run_many(self, specs):
            specs = list(specs)
            calls.append(len(specs))
            return original(self, specs)

        monkeypatch.setattr(SweepRunner, "run_many", spying_run_many)
        assert cmd_run([], run_all=True, quick=True, fmt="jsonl") == EXIT_OK
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        ids = {record["experiment"] for record in records}
        assert ids == set(EXPERIMENT_IDS)
        # one batched call, sized like the deduplicated union grid
        union = collect_grid([e.quick() for e in all_experiments()])
        assert calls == [len(union)]


class TestCacheCommand:
    def _populate(self, cache_dir):
        from repro.sweep import clear_shared_cache

        clear_shared_cache()
        assert main([
            "sweep", "--config", "baseline", "--kqps", "20",
            "--horizon", "0.02", "--seed", "7", "--cache-dir", cache_dir,
        ]) == EXIT_OK

    def test_stats_reports_counts(self, tmp_path, capsys):
        cache_dir = str(tmp_path)
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == EXIT_OK
        out = capsys.readouterr().out
        assert "current records: 1" in out
        assert "stale records:   0" in out
        assert "results.sqlite" in out

    def test_prune_drops_stale_salts(self, tmp_path, capsys):
        from repro.store import ResultStore

        cache_dir = str(tmp_path)
        self._populate(cache_dir)
        store = ResultStore(cache_dir)
        # Rewrite the record under a fake old-code salt.
        stale = ResultStore(cache_dir, salt="stale-salt")
        result = None
        from repro.sweep import ScenarioSpec, SweepRunner

        spec = ScenarioSpec(workload="memcached", config="baseline",
                            qps=20_000, horizon=0.02, seed=7)
        result = SweepRunner().run(spec)
        stale.put(spec.cache_key, result, spec=spec)
        assert store.total_records() == 2
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", cache_dir]) == EXIT_OK
        assert "pruned 1 stale record(s)" in capsys.readouterr().out
        assert store.total_records() == 1

    def test_clear_drops_everything(self, tmp_path, capsys):
        from repro.store import ResultStore

        cache_dir = str(tmp_path)
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == EXIT_OK
        assert "cleared 1 record(s)" in capsys.readouterr().out
        assert ResultStore(cache_dir).total_records() == 0


class TestSweepCommand:
    def test_sweep_prints_table(self, capsys):
        code = main([
            "sweep", "--config", "baseline", "--kqps", "20",
            "--horizon", "0.02", "--seed", "7",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "memcached" in out
        assert "baseline" in out
        assert "20K" in out

    def test_sweep_without_rates_is_usage_error(self, capsys):
        assert main(["sweep", "--config", "baseline"]) == EXIT_USAGE
        assert "qps" in capsys.readouterr().err

    def test_sweep_unknown_workload_is_usage_error(self, capsys):
        code = main(["sweep", "--workload", "postgres", "--kqps", "10"])
        assert code == EXIT_USAGE
        assert "invalid sweep" in capsys.readouterr().err

    def test_zero_completion_point_prints_dashes(self, tmp_path, capsys):
        # 100 QPS over 0.1 ms completes no request: the point has no
        # latency to report, which must not crash the sweep.
        argv = [
            "sweep", "--workload", "memcached", "--config", "NT_AW",
            "--qps", "100", "--horizon", "0.0001", "--no-cache",
        ]
        assert main(argv) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[-3:] == ["-", "-", "0"]
        out_file = tmp_path / "points.jsonl"
        assert main(argv + ["-o", str(out_file)]) == EXIT_OK
        (record,) = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert record["completed"] == 0
        for key in ("avg_latency", "p99_latency", "avg_latency_e2e",
                    "p99_latency_e2e"):
            assert record[key] is None

    def test_sweep_writes_jsonl(self, tmp_path, capsys):
        out_file = str(tmp_path / "points.jsonl")
        code = main([
            "sweep", "--config", "baseline", "AW", "--kqps", "20",
            "--horizon", "0.02", "--seed", "7", "-o", out_file,
        ])
        assert code == EXIT_OK
        with open(out_file) as handle:
            records = [json.loads(line) for line in handle]
        assert [r["config"] for r in records] == ["baseline", "AW"]
        assert all(r["completed"] > 0 for r in records)

    def test_sweep_parallel_matches_serial(self, capsys):
        from repro.sweep import clear_shared_cache, configure_default_runner

        argv = [
            "sweep", "--config", "baseline", "--kqps", "10", "20",
            "--horizon", "0.02", "--seed", "7", "--no-cache",
        ]
        try:
            clear_shared_cache()
            assert main(argv) == EXIT_OK
            serial_out = capsys.readouterr().out
            clear_shared_cache()
            assert main(argv + ["--jobs", "2"]) == EXIT_OK
            parallel_out = capsys.readouterr().out
            assert serial_out == parallel_out
        finally:
            # `--jobs` reconfigures the process-wide runner; put the
            # serial default back so later tests are unaffected.
            configure_default_runner()


class TestSweepGridFile:
    def _grid_dicts(self):
        from repro.sweep import ScenarioGrid

        grid = ScenarioGrid.product(
            config=["baseline", "AW"], qps=[20_000],
            horizon=[0.02], seed=[7],
        )
        return [spec.to_dict() for spec in grid]

    def test_grid_jsonl_end_to_end(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.jsonl"
        with open(grid_file, "w") as handle:
            for record in self._grid_dicts():
                handle.write(json.dumps(record) + "\n")
        out_file = tmp_path / "points.jsonl"
        code = main(["sweep", "--grid", str(grid_file), "-o", str(out_file)])
        assert code == EXIT_OK
        with open(out_file) as handle:
            records = [json.loads(line) for line in handle]
        assert [r["config"] for r in records] == ["baseline", "AW"]
        assert all(r["completed"] > 0 for r in records)

    def test_grid_json_array_accepted(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(self._grid_dicts()[:1]))
        assert main(["sweep", "--grid", str(grid_file)]) == EXIT_OK
        assert "baseline" in capsys.readouterr().out

    def test_grid_plus_rates_is_usage_error(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.jsonl"
        grid_file.write_text(json.dumps(self._grid_dicts()[0]) + "\n")
        code = main(["sweep", "--grid", str(grid_file), "--kqps", "10"])
        assert code == EXIT_USAGE
        assert "not both" in capsys.readouterr().err

    def test_grid_plus_any_axis_flag_is_usage_error(self, tmp_path, capsys):
        # Axis flags would be silently overridden by the file's specs.
        grid_file = tmp_path / "grid.jsonl"
        grid_file.write_text(json.dumps(self._grid_dicts()[0]) + "\n")
        code = main(["sweep", "--grid", str(grid_file), "--governor", "oracle"])
        assert code == EXIT_USAGE
        assert "--governor" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--workload", "memcached"], ["--config", "baseline"],
        ["--cores", "10"], ["--horizon", "0.4"], ["--seed", "42"],
        ["--governor", "menu"], ["--nodes", "1"], ["--balancer", "random"],
        ["--fanout", "1"],
    ], ids=lambda flag: flag[0])
    def test_grid_plus_axis_flag_at_its_default_is_usage_error(
        self, tmp_path, capsys, flag
    ):
        # Giving the flag is the conflict, whatever its value: the file's
        # specs would silently win over it.
        grid_file = tmp_path / "grid.jsonl"
        grid_file.write_text(json.dumps(self._grid_dicts()[0]) + "\n")
        code = main(["sweep", "--grid", str(grid_file), "--no-cache", *flag])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "not both" in err and flag[0] in err

    def test_grid_nan_horizon_is_usage_error(self, tmp_path, capsys):
        # NaN slips past a bare "<= 0" check and the run never ends.
        grid_file = tmp_path / "grid.jsonl"
        grid_file.write_text(
            json.dumps({**self._grid_dicts()[0], "horizon": float("nan")}) + "\n"
        )
        code = main(["sweep", "--grid", str(grid_file), "--no-cache"])
        assert code == EXIT_USAGE
        assert "horizon must be positive and finite" in capsys.readouterr().err

    def test_missing_grid_file_is_usage_error(self, capsys):
        assert main(["sweep", "--grid", "/nonexistent.jsonl"]) == EXIT_USAGE
        assert "grid file" in capsys.readouterr().err

    def test_malformed_grid_file_is_usage_error(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.jsonl"
        grid_file.write_text("{not json\n")
        assert main(["sweep", "--grid", str(grid_file)]) == EXIT_USAGE

    def test_empty_grid_array_is_usage_error(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text("[]")
        assert main(["sweep", "--grid", str(grid_file)]) == EXIT_USAGE
        assert "no points" in capsys.readouterr().err

    def test_timeout_without_jobs_is_usage_error(self, capsys):
        # Serial execution cannot enforce a per-point budget; accepting
        # the flag silently would leave the user unprotected.
        code = main(["sweep", "--kqps", "10", "--timeout", "5"])
        assert code == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_spec_field_is_usage_error(self, tmp_path, capsys):
        record = dict(self._grid_dicts()[0], typo=1)
        grid_file = tmp_path / "grid.jsonl"
        grid_file.write_text(json.dumps(record) + "\n")
        assert main(["sweep", "--grid", str(grid_file)]) == EXIT_USAGE

    _POINT = {"workload": "memcached", "config": "baseline", "qps": 5}

    @pytest.mark.parametrize("content, message", [
        (json.dumps([dict(_POINT, cores=2.5)]), "'cores' must be an integer"),
        (json.dumps([dict(_POINT, turbo="yes")]),
         "'turbo' must be a boolean or null"),
        (json.dumps([dict(_POINT, seed=True)]), "'seed' must be an integer"),
        (json.dumps([dict(_POINT, qps="abc")]), "'qps' must be a number"),
        (json.dumps([dict(_POINT, config="nosuch")]),
         "unknown configuration 'nosuch'"),
        (b"\xff\xfe", "cannot read grid file"),
        (json.dumps(_POINT) + "\n{not json\n", "line 2 column 2"),
    ], ids=["float_cores", "string_turbo", "bool_seed", "string_qps",
            "unknown_config", "not_utf8", "bad_second_jsonl_line"])
    def test_wrongly_typed_or_unknown_value_is_usage_error(
        self, tmp_path, capsys, content, message
    ):
        grid_file = tmp_path / "grid.json"
        if isinstance(content, str):
            content = content.encode()
        grid_file.write_bytes(content)
        code = main(["sweep", "--grid", str(grid_file), "--no-cache"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid sweep" in err and message in err


class TestNonPositiveCounts:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--kqps", "10", "--shards", "2", "--jobs", "0"],
        ["sweep", "--kqps", "10", "--shards", "0"],
        ["sweep", "--kqps", "10", "--jobs", "0"],
        ["sweep", "--kqps", "10", "--jobs", "-2"],
        ["sweep", "--kqps", "10", "--distributed", "QUEUE", "--jobs", "-1"],
        ["run", "table2", "--jobs", "0"],
        ["run", "table2", "--jobs", "-2"],
        ["report", "table2", "--jobs", "0"],
        ["report", "table2", "--jobs", "-2"],
        ["trace", "--kqps", "10", "--capacity", "0"],
        ["trace", "--kqps", "10", "--capacity", "-5"],
    ], ids=[
        "sweep_shards_jobs_0", "sweep_shards_0", "sweep_jobs_0", "sweep_jobs_-2",
        "sweep_distributed_jobs_-1", "run_jobs_0", "run_jobs_-2",
        "report_jobs_0", "report_jobs_-2", "trace_capacity_0",
        "trace_capacity_-5",
    ])
    def test_is_usage_error(self, tmp_path, capsys, argv):
        command, flag = argv[0], argv[-2]
        argv = [str(tmp_path / "q") if arg == "QUEUE" else arg for arg in argv]
        if command == "trace":
            argv += ["-o", str(tmp_path / "trace.json")]
        else:
            argv += ["--cache-dir", str(tmp_path / "store")]
        if command == "report":
            argv += ["-o", str(tmp_path / "report.html")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"invalid {command}:" in err and flag.lstrip("-") in err

    def test_distributed_jobs_zero_leaves_points_to_external_workers(
        self, tmp_path
    ):
        from repro.cli import _configured_runner

        with _configured_runner(
            jobs=0, cache_dir=str(tmp_path / "store"),
            queue_dir=str(tmp_path / "q"),
        ) as runner:
            assert runner.executor.jobs == 0


class TestSweepCaching:
    def test_second_invocation_served_from_store(self, tmp_path, capsys):
        from repro.sweep import clear_shared_cache

        argv = [
            "sweep", "--config", "baseline", "--kqps", "20",
            "--horizon", "0.02", "--seed", "7",
            "--cache-dir", str(tmp_path), "--progress",
        ]
        clear_shared_cache()  # other tests may have memoised this point
        assert main(argv) == EXIT_OK
        first = capsys.readouterr()
        assert "[1/1]" in first.err  # one point simulated

        # a fresh process is approximated by dropping the in-memory memo
        clear_shared_cache()
        assert main(argv) == EXIT_OK
        second = capsys.readouterr()
        assert "[" not in second.err  # zero points simulated: store hits
        assert second.out == first.out

    def test_no_cache_resimulates(self, tmp_path, capsys):
        from repro.sweep import clear_shared_cache

        argv = [
            "sweep", "--config", "baseline", "--kqps", "20",
            "--horizon", "0.02", "--seed", "7",
            "--cache-dir", str(tmp_path), "--progress", "--no-cache",
        ]
        clear_shared_cache()  # other tests may have memoised this point
        assert main(argv) == EXIT_OK
        assert "[1/1]" in capsys.readouterr().err
        clear_shared_cache()
        assert main(argv) == EXIT_OK
        assert "[1/1]" in capsys.readouterr().err  # simulated again

    def test_cli_flags_do_not_leak_into_default_runner(self, tmp_path):
        from repro.sweep import default_runner

        before = default_runner()
        assert main([
            "sweep", "--config", "baseline", "--kqps", "20",
            "--horizon", "0.02", "--seed", "7",
            "--cache-dir", str(tmp_path), "--on-error", "skip",
        ]) == EXIT_OK
        after = default_runner()
        assert after is before
        assert after.store is None


class TestSweepFailureHandling:
    # uses the shared `failing_workload` fixture from tests/conftest.py

    def _mixed_grid_file(self, tmp_path, failing_workload):
        from repro.sweep import ScenarioGrid, ScenarioSpec

        grid = ScenarioGrid([
            ScenarioSpec(workload="memcached", config="baseline", qps=20_000,
                         horizon=0.02, seed=7),
            ScenarioSpec(workload=failing_workload, config="baseline", qps=20_000,
                         horizon=0.02, seed=7),
            ScenarioSpec(workload="memcached", config="AW", qps=20_000,
                         horizon=0.02, seed=7),
        ])
        grid_file = tmp_path / "grid.jsonl"
        with open(grid_file, "w") as handle:
            for spec in grid:
                handle.write(json.dumps(spec.to_dict()) + "\n")
        return grid_file

    def test_skip_policy_completes_and_reports_failure(
        self, tmp_path, capsys, failing_workload
    ):
        grid_file = self._mixed_grid_file(tmp_path, failing_workload)
        out_file = tmp_path / "points.jsonl"
        code = main([
            "sweep", "--grid", str(grid_file), "--on-error", "skip",
            "--no-cache", "-o", str(out_file),
        ])
        assert code == EXIT_ERROR  # completed, but with a failure
        with open(out_file) as handle:
            records = [json.loads(line) for line in handle]
        # skip: only the surviving points appear in the output...
        assert [r["config"] for r in records] == ["baseline", "AW"]
        assert all(r["completed"] > 0 for r in records)
        # ...but the failure is recorded on stderr, never silent
        err = capsys.readouterr().err
        assert "kaboom" in err
        assert "1 of 3" in err

    def test_record_policy_keeps_inline_error_records(
        self, tmp_path, capsys, failing_workload
    ):
        grid_file = self._mixed_grid_file(tmp_path, failing_workload)
        out_file = tmp_path / "points.jsonl"
        code = main([
            "sweep", "--grid", str(grid_file), "--on-error", "record",
            "--no-cache", "-o", str(out_file),
        ])
        assert code == EXIT_ERROR
        with open(out_file) as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 3
        assert records[0]["completed"] > 0
        assert "kaboom" in records[1]["error"]
        assert records[2]["completed"] > 0

    def test_record_policy_includes_error_text(
        self, tmp_path, capsys, failing_workload
    ):
        grid_file = self._mixed_grid_file(tmp_path, failing_workload)
        code = main([
            "sweep", "--grid", str(grid_file), "--on-error", "record",
            "--no-cache",
        ])
        assert code == EXIT_ERROR
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "kaboom" in out

    def test_raise_policy_aborts(self, tmp_path, capsys, failing_workload):
        grid_file = self._mixed_grid_file(tmp_path, failing_workload)
        with pytest.raises(RuntimeError, match="kaboom"):
            main(["sweep", "--grid", str(grid_file), "--no-cache"])


class TestSweepEmit:
    def _sweep(self, tmp_path, *extra):
        from repro.sweep import clear_shared_cache

        clear_shared_cache()
        out_file = tmp_path / "points.jsonl"
        argv = [
            "sweep", "--config", "baseline", "--kqps", "20",
            "--horizon", "0.02", "--seed", "7", "--no-cache",
            "-o", str(out_file),
        ] + list(extra)
        assert main(argv) == EXIT_OK
        with open(out_file) as handle:
            return [json.loads(line) for line in handle]

    def test_default_emit_is_headline_only(self, tmp_path):
        (record,) = self._sweep(tmp_path)
        assert record["completed"] > 0
        assert "residency" not in record
        assert "transitions_per_second" not in record

    def test_emit_residency_adds_detail(self, tmp_path):
        (record,) = self._sweep(tmp_path, "--emit", "residency")
        assert record["completed"] > 0
        assert sum(record["residency"].values()) == pytest.approx(1.0, abs=1e-6)
        assert record["transitions_per_second"]
        # spec fields survive alongside the detail
        assert record["workload"] == "memcached"
        assert record["governor"] == "menu"


class TestDistributedCLI:
    """`repro sweep --distributed`, `repro worker`, fleet reports."""

    def test_parser_accepts_distributed_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--kqps", "20", "--distributed", "/tmp/q"]
        )
        assert args.distributed == "/tmp/q"
        args = build_parser().parse_args(
            ["worker", "--queue", "/tmp/q", "--lease", "10", "--retries", "2"]
        )
        assert args.command == "worker"
        assert args.queue == "/tmp/q"
        assert args.lease == 10.0
        assert args.retries == 2

    def test_distributed_rejects_no_cache(self, tmp_path, capsys):
        code = main([
            "sweep", "--kqps", "20", "--distributed", str(tmp_path / "q"),
            "--no-cache",
        ])
        assert code == EXIT_USAGE
        assert "store" in capsys.readouterr().err

    def test_distributed_rejects_timeout(self, tmp_path, capsys):
        code = main([
            "sweep", "--kqps", "20", "--distributed", str(tmp_path / "q"),
            "--timeout", "5", "--cache-dir", str(tmp_path / "store"),
        ])
        assert code == EXIT_USAGE
        assert "lease" in capsys.readouterr().err

    def test_worker_rejects_bad_lease(self, tmp_path, capsys):
        code = main([
            "worker", "--queue", str(tmp_path / "q"), "--lease", "0",
        ])
        assert code == EXIT_USAGE
        assert "--lease" in capsys.readouterr().err

    def test_worker_drains_empty_queue_and_exits(self, tmp_path, capsys):
        code = main([
            "worker", "--queue", str(tmp_path / "q"),
            "--store", str(tmp_path / "store"), "--verbose",
        ])
        assert code == EXIT_OK
        assert "exiting" in capsys.readouterr().err

    def test_distributed_sweep_end_to_end_then_resumes(self, tmp_path, capsys):
        argv = [
            "sweep", "--config", "baseline", "--kqps", "20",
            "--horizon", "0.01", "--seed", "1", "2",
            "--distributed", str(tmp_path / "q"), "--jobs", "2",
            "--cache-dir", str(tmp_path / "store"),
        ]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert "baseline" in first and "20K" in first
        # Same queue dir again: resumes purely from store hits.
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_manifest_only_fleet_report(self, tmp_path, capsys):
        from repro.obs.manifest import RunManifest

        manifests = tmp_path / "manifests"
        manifests.mkdir()
        with RunManifest(str(manifests / "w1.jsonl"), worker="w1") as m:
            m.emit("worker_start", pid=1)
            m.emit("worker_exit", claims=0, settled=0)
        out = tmp_path / "fleet.html"
        code = main([
            "report", "--manifest", str(manifests), "-o", str(out),
            "--cache-dir", str(tmp_path / "store"),
        ])
        assert code == EXIT_OK
        page = out.read_text()
        assert "Distributed fleet" in page
        assert "w1" in page
