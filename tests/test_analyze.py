"""Tests for the repro.analyze static-analysis subsystem.

Fixture snippets are written under ``<tmp>/repro/<package>/...`` so the
path-based scoping (:func:`repro.analyze.rules._module_identity`) treats
them exactly like real simulation code: ``<tmp>/repro/cluster/x.py``
gets package ``cluster`` and is subject to the DET series, while
``<tmp>/repro/store/x.py`` is outside the simulation packages.
"""

import contextlib
import io
import json
import os

import pytest

from repro.analyze import (
    Finding,
    compare_to_baseline,
    load_baseline,
    render_json,
    render_text,
    report_from_dict,
    report_to_dict,
    rule_catalog,
    run_lint,
)
from repro.analyze.engine import analyze_file
from repro.analyze.rules import _module_identity
from repro.analyze.speccheck import (
    run_project_checks,
    update_codec_manifest,
)
from repro.cli import main
from repro.errors import ConfigurationError

REPO_SPEC = "src/repro/sweep/spec.py"
REPO_SERIALIZE = "src/repro/store/serialize.py"
REPO_METRICS = "src/repro/server/metrics.py"


def write_module(tmp_path, rel, source):
    """Write ``source`` at ``<tmp>/repro/<rel>`` and return the path."""
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(path)


def rule_ids(findings):
    return sorted(f.rule_id for f in findings)


def lint_one(tmp_path, rel, source):
    """Analyze a single fixture module; no project-level checks."""
    path = write_module(tmp_path, rel, source)
    return run_lint([path], project_checks=False)


# -- module identity / scoping ---------------------------------------------
def test_module_identity_below_repro_root():
    assert _module_identity("src/repro/cluster/cluster.py") == (
        "cluster/cluster.py", "cluster",
    )
    assert _module_identity("/tmp/x/repro/simkit/engine.py") == (
        "simkit/engine.py", "simkit",
    )
    # Top-level module: no package.
    assert _module_identity("src/repro/cli.py") == ("cli.py", None)
    # Not under a repro dir at all.
    assert _module_identity("scripts/tool.py") == ("tool.py", None)


# -- DET001: unseeded stdlib random ----------------------------------------
def test_det001_flags_module_level_random(tmp_path):
    result = lint_one(
        tmp_path, "cluster/picker.py",
        "import random\n\ndef pick(xs):\n    return random.choice(xs)\n",
    )
    assert rule_ids(result.findings) == ["DET001"]
    assert result.findings[0].line == 4


def test_det001_flags_from_import(tmp_path):
    result = lint_one(
        tmp_path, "server/jitter.py",
        "from random import random\n\ndef jitter():\n    return random()\n",
    )
    assert rule_ids(result.findings) == ["DET001"]


def test_det001_allows_seeded_instance(tmp_path):
    result = lint_one(
        tmp_path, "cluster/picker.py",
        "import random\n\ndef pick(xs, seed):\n"
        "    return random.Random(seed).choice(xs)\n",
    )
    assert result.findings == []


def test_det001_ignores_non_simulation_packages(tmp_path):
    result = lint_one(
        tmp_path, "store/salt.py",
        "import random\n\ndef salt():\n    return random.random()\n",
    )
    assert result.findings == []


# -- DET002: numpy global RandomState --------------------------------------
def test_det002_flags_global_numpy_random(tmp_path):
    result = lint_one(
        tmp_path, "workloads/noise.py",
        "import numpy as np\n\ndef noise(n):\n    return np.random.rand(n)\n",
    )
    assert rule_ids(result.findings) == ["DET002"]


def test_det002_flags_unseeded_constructor(tmp_path):
    result = lint_one(
        tmp_path, "workloads/noise.py",
        "import numpy as np\n\ndef rng():\n    return np.random.default_rng()\n",
    )
    assert rule_ids(result.findings) == ["DET002"]


def test_det002_allows_seeded_constructor(tmp_path):
    result = lint_one(
        tmp_path, "workloads/noise.py",
        "import numpy as np\n\ndef rng(seed):\n"
        "    return np.random.default_rng(seed)\n",
    )
    assert result.findings == []


# -- DET003: wall clocks ---------------------------------------------------
def test_det003_flags_time_and_datetime(tmp_path):
    result = lint_one(
        tmp_path, "simkit/stamp.py",
        "import time\nfrom datetime import datetime\n\n"
        "def stamp():\n    return time.time(), datetime.now()\n",
    )
    assert rule_ids(result.findings) == ["DET003", "DET003"]


def test_det003_allows_wall_clock_outside_simulation(tmp_path):
    result = lint_one(
        tmp_path, "store/mtime.py",
        "import time\n\ndef mtime():\n    return time.time()\n",
    )
    assert result.findings == []


# -- DET004: set iteration -------------------------------------------------
def test_det004_flags_set_iteration(tmp_path):
    result = lint_one(
        tmp_path, "governor/states.py",
        "def total(costs):\n"
        "    seen = {1.0, 2.0}\n"
        "    acc = 0.0\n"
        "    for value in seen:\n"
        "        acc += value\n"
        "    return acc\n",
    )
    assert rule_ids(result.findings) == ["DET004"]


def test_det004_accepts_sorted_wrap(tmp_path):
    result = lint_one(
        tmp_path, "governor/states.py",
        "def total(costs):\n"
        "    seen = {1.0, 2.0}\n"
        "    return sum(sorted(seen))\n",
    )
    assert result.findings == []


# -- DET005: merge-path accumulation ---------------------------------------
MERGE_LOOP = (
    "def merge(per_node):\n"
    "    acc = {}\n"
    "    for result in per_node:\n"
    "        for name, value in result.items():\n"
    "            acc[name] = acc.get(name, 0.0) + value\n"
    "    return acc\n"
)


def test_det005_flags_merge_path_modules_only(tmp_path):
    on_path = lint_one(tmp_path, "cluster/cluster.py", MERGE_LOOP)
    assert rule_ids(on_path.findings) == ["DET005"]
    off_path = lint_one(tmp_path, "cluster/helpers.py", MERGE_LOOP)
    assert off_path.findings == []


def test_det005_accepts_sorted_items(tmp_path):
    result = lint_one(
        tmp_path, "cluster/cluster.py",
        MERGE_LOOP.replace("result.items()", "sorted(result.items())"),
    )
    assert result.findings == []


def test_det005_flags_sum_over_dict_view(tmp_path):
    result = lint_one(
        tmp_path, "simkit/sketch.py",
        "def above(bins, cut):\n"
        "    return sum(c for i, c in bins.items() if i > cut)\n",
    )
    assert rule_ids(result.findings) == ["DET005"]


# -- DET006: id()/hash() ---------------------------------------------------
def test_det006_flags_id_and_hash(tmp_path):
    result = lint_one(
        tmp_path, "server/keys.py",
        "def key(event):\n    return id(event)\n",
    )
    assert rule_ids(result.findings) == ["DET006"]


# -- FAST001: fast-path contract -------------------------------------------
def test_fast001_flags_assignment_label_and_cancel(tmp_path):
    result = lint_one(
        tmp_path, "server/sched.py",
        "def go(sim, cb):\n"
        "    handle = sim.schedule_fast(0.1, cb)\n"
        "    sim.schedule_fast(0.1, cb, 'label')\n"
        "    sim.schedule_at_fast(0.2, cb, label='x')\n"
        "    sim.schedule_fast(0.3, cb).cancel()\n",
    )
    assert rule_ids(result.findings) == ["FAST001"] * 4


def test_fast001_accepts_plain_fast_calls(tmp_path):
    result = lint_one(
        tmp_path, "server/sched.py",
        "def go(sim, cb):\n"
        "    sim.schedule_fast(0.1, cb)\n"
        "    sim.schedule_at_fast(0.2, cb)\n"
        "    event = sim.schedule(0.3, cb, 'label')\n"
        "    event.cancel()\n",
    )
    assert result.findings == []


# -- FAST002: hot-path Event allocation ------------------------------------
def test_fast002_flags_event_allocation_on_hot_path(tmp_path):
    result = lint_one(
        tmp_path, "server/node.py",
        "from repro.simkit.engine import Event\n\n"
        "def make(t, seq, cb):\n    return Event(t, seq, cb)\n",
    )
    assert rule_ids(result.findings) == ["FAST002"]


@pytest.mark.parametrize("module", ["cluster/balancer.py", "simkit/stats.py"])
def test_fast002_covers_per_request_cluster_modules(tmp_path, module):
    # A balancer pick and a latency append run once per logical request.
    result = lint_one(
        tmp_path, module,
        "from repro.simkit.engine import Event\n\n"
        "def make(t, seq, cb):\n    return Event(t, seq, cb)\n",
    )
    assert rule_ids(result.findings) == ["FAST002"]


def test_fast002_ignores_cold_modules(tmp_path):
    result = lint_one(
        tmp_path, "simkit/replay.py",
        "from repro.simkit.engine import Event\n\n"
        "def make(t, seq, cb):\n    return Event(t, seq, cb)\n",
    )
    assert result.findings == []


# -- suppressions ----------------------------------------------------------
def test_suppression_same_line_with_reason(tmp_path):
    result = lint_one(
        tmp_path, "cluster/picker.py",
        "import random\n\ndef pick(xs):\n"
        "    return random.choice(xs)"
        "  # repro: allow[DET001] fixture exercising suppression\n",
    )
    assert result.findings == []
    assert rule_ids(result.suppressed) == ["DET001"]
    assert result.suppressed[0].suppress_reason == (
        "fixture exercising suppression"
    )


def test_suppression_comment_line_above(tmp_path):
    result = lint_one(
        tmp_path, "cluster/picker.py",
        "import random\n\ndef pick(xs):\n"
        "    # repro: allow[DET001] fixture: suppressed from the line above\n"
        "    return random.choice(xs)\n",
    )
    assert result.findings == []
    assert rule_ids(result.suppressed) == ["DET001"]


def test_suppression_without_reason_is_ana001(tmp_path):
    result = lint_one(
        tmp_path, "cluster/picker.py",
        "import random\n\ndef pick(xs):\n"
        "    return random.choice(xs)  # repro: allow[DET001]\n",
    )
    # The bare allow is rejected, so the DET001 finding stays active too.
    assert rule_ids(result.findings) == ["ANA001", "DET001"]


def test_suppression_of_unknown_rule_is_ana002(tmp_path):
    result = lint_one(
        tmp_path, "cluster/clean.py",
        "X = 1  # repro: allow[NOPE999] whatever\n",
    )
    assert rule_ids(result.findings) == ["ANA002"]


def test_stale_suppression_is_ana003(tmp_path):
    result = lint_one(
        tmp_path, "cluster/clean.py",
        "X = 1  # repro: allow[DET001] nothing to suppress here\n",
    )
    assert rule_ids(result.findings) == ["ANA003"]


def test_syntax_error_is_ana004(tmp_path):
    result = lint_one(tmp_path, "cluster/broken.py", "def broken(:\n")
    assert rule_ids(result.findings) == ["ANA004"]


# -- SPEC project checks ---------------------------------------------------
def copy_project_fixture(tmp_path):
    """A mutable copy of the real spec/codec modules + matching manifest."""
    spec = write_module(
        tmp_path, "sweep/spec.py", open(REPO_SPEC).read()
    )
    serialize = write_module(
        tmp_path, "store/serialize.py", open(REPO_SERIALIZE).read()
    )
    metrics = write_module(
        tmp_path, "server/metrics.py", open(REPO_METRICS).read()
    )
    manifest = str(tmp_path / "codec_manifest.json")
    update_codec_manifest(serialize, manifest)
    return spec, serialize, metrics, manifest


def test_spec_checks_pass_on_real_tree(tmp_path):
    spec, serialize, metrics, manifest = copy_project_fixture(tmp_path)
    assert run_project_checks([spec, serialize, metrics], manifest) == []


def test_spec001_detects_field_missing_from_cache_key(tmp_path):
    spec, serialize, metrics, manifest = copy_project_fixture(tmp_path)
    source = open(spec).read()
    assert "self.governor," in source
    open(spec, "w").write(source.replace("self.governor,", "", 1))
    findings = run_project_checks([spec, serialize, metrics], manifest)
    assert rule_ids(findings) == ["SPEC001"]
    assert "governor" in findings[0].message
    assert findings[0].line > 1  # anchored at the field definition


def test_spec002_and_spec003_detect_dropped_codec_field(tmp_path):
    spec, serialize, metrics, manifest = copy_project_fixture(tmp_path)
    source = open(serialize).read()
    dropped = '"snoops_served": result.snoops_served,\n'
    assert dropped in source
    open(serialize, "w").write(source.replace(dropped, "", 1))
    findings = run_project_checks([spec, serialize, metrics], manifest)
    # Dropping the emit breaks codec coverage AND changes the codec
    # shape without a version bump.
    assert rule_ids(findings) == ["SPEC002", "SPEC003"]


def test_spec003_version_bump_requires_manifest_refresh(tmp_path):
    spec, serialize, metrics, manifest = copy_project_fixture(tmp_path)
    source = open(serialize).read()
    open(serialize, "w").write(
        source.replace("FORMAT_VERSION = 4", "FORMAT_VERSION = 5", 1)
    )
    findings = run_project_checks([spec, serialize, metrics], manifest)
    assert rule_ids(findings) == ["SPEC003"]
    assert "--update-codec-manifest" in findings[0].message
    # Refreshing the manifest (the documented workflow) clears it.
    update_codec_manifest(serialize, manifest)
    assert run_project_checks([spec, serialize, metrics], manifest) == []


@pytest.fixture(scope="module")
def src_lint_report():
    """One ``repro lint src --format json`` run, shared by the tree-wide
    checks: (exit code, stdout). Analysing ``src/`` is the slowest lint."""
    capture = io.StringIO()
    with contextlib.redirect_stdout(capture):
        code = main(["lint", "src", "--format", "json"])
    return code, capture.getvalue()


def test_current_tree_lints_clean(src_lint_report):
    result = report_from_dict(json.loads(src_lint_report[1]))
    assert result.findings == []
    # Every suppression in the tree carries a written reason.
    assert all(f.suppress_reason for f in result.suppressed)


# -- reports and baseline --------------------------------------------------
def test_json_report_round_trip(tmp_path):
    result = lint_one(
        tmp_path, "cluster/picker.py",
        "import random\n\ndef pick(xs):\n    return random.choice(xs)\n",
    )
    data = json.loads(render_json(result))
    rebuilt = report_from_dict(data)
    assert rebuilt.findings == result.findings
    assert rebuilt.suppressed == result.suppressed
    assert rebuilt.files_analyzed == result.files_analyzed


def test_report_rejects_foreign_version(tmp_path):
    result = lint_one(tmp_path, "cluster/clean.py", "X = 1\n")
    data = report_to_dict(result)
    data["version"] = 999
    with pytest.raises(ConfigurationError):
        report_from_dict(data)


def test_baseline_fails_closed(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigurationError):
        load_baseline(str(missing))
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_baseline(str(garbage))


def test_compare_to_baseline_matches_identity():
    finding = Finding(
        path="a.py", line=3, col=0, rule_id="DET001", message="m"
    )
    other = Finding(
        path="a.py", line=4, col=0, rule_id="DET001", message="m"
    )
    assert compare_to_baseline([finding, other], [finding]) == [other]


def test_committed_baseline_is_empty():
    assert load_baseline() == []


def test_rule_catalog_covers_all_series():
    ids = {rule_id for rule_id, _title, _rationale in rule_catalog()}
    assert {"DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
            "FAST001", "FAST002", "SPEC001", "SPEC002", "SPEC003",
            "ANA001", "ANA002", "ANA003", "ANA004"} <= ids
    for _rule_id, title, rationale in rule_catalog():
        assert title and rationale


# -- engine behaviour ------------------------------------------------------
def test_findings_deduplicate_and_sort(tmp_path):
    path = write_module(
        tmp_path, "cluster/two.py",
        "import random\n\ndef two(xs):\n"
        "    a = random.choice(xs)\n"
        "    b = id(xs)\n"
        "    return a, b\n",
    )
    findings, _suppressions = analyze_file(path)
    assert findings == sorted(findings)
    assert rule_ids(findings) == ["DET001", "DET006"]


def test_run_lint_parallel_matches_serial(tmp_path):
    for index in range(20):
        write_module(
            tmp_path, f"cluster/mod_{index:02d}.py",
            "import random\n\ndef pick(xs):\n    return random.choice(xs)\n",
        )
    serial = run_lint([str(tmp_path)], jobs=1, project_checks=False)
    parallel = run_lint([str(tmp_path)], jobs=4, project_checks=False)
    assert serial.findings == parallel.findings
    assert len(serial.findings) == 20


def test_run_lint_rejects_missing_path(tmp_path):
    with pytest.raises(ConfigurationError):
        run_lint([str(tmp_path / "missing")])


# -- CLI -------------------------------------------------------------------
def test_cli_lint_clean_tree_exits_zero(src_lint_report):
    code, out = src_lint_report
    assert code == 0
    assert "0 finding(s)" in render_text(report_from_dict(json.loads(out)))


def test_cli_lint_reports_findings_with_anchor(tmp_path, capsys):
    write_module(
        tmp_path, "cluster/bad.py",
        "import random\n\ndef pick(xs):\n    return random.choice(xs)\n",
    )
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "bad.py:4" in out


def test_cli_lint_json_format(tmp_path, capsys):
    write_module(
        tmp_path, "cluster/bad.py",
        "import random\n\ndef pick(xs):\n    return random.choice(xs)\n",
    )
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [f["rule_id"] for f in report["findings"]] == ["DET001"]


def test_cli_lint_rules_catalog(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "DET001" in out and "SPEC003" in out


def test_cli_lint_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "missing")]) == 2
    assert "lint failed" in capsys.readouterr().err


def test_cli_lint_no_baseline_flag(tmp_path, capsys):
    write_module(tmp_path, "cluster/clean.py", "X = 1\n")
    assert main(["lint", str(tmp_path), "--no-baseline"]) == 0


# -- acceptance scenarios from the issue -----------------------------------
def test_injected_random_in_cluster_fails_lint(tmp_path):
    """Copy the real cluster module, inject random.random(), expect a
    file:line DET001 diagnostic."""
    target = write_module(
        tmp_path, "cluster/cluster.py",
        open("src/repro/cluster/cluster.py").read()
        + "\n\ndef _jitter():\n    return random.random()\n",
    )
    result = run_lint([target], project_checks=False)
    assert rule_ids(result.findings) == ["DET001"]
    assert result.findings[0].anchor.startswith(target.replace("\\", "/")[:20])
    assert result.findings[0].line > 1


# -- repo-relative finding paths --------------------------------------------
def test_display_path_is_cwd_independent(tmp_path, monkeypatch):
    """Findings on repo files anchor repo-relative from any cwd, so the
    committed baseline matches no matter where lint runs."""
    from repro.analyze.paths import REPO_ROOT, display_path

    target = os.path.join(REPO_ROOT, "src", "repro", "cli.py")
    at_root = display_path(target)
    monkeypatch.chdir(tmp_path)
    assert display_path(target) == at_root == "src/repro/cli.py"
    # Non-repo files keep the old cwd-relative behavior.
    outside = tmp_path / "fixture.py"
    outside.write_text("X = 1\n")
    assert display_path(str(outside)) == "fixture.py"


# -- lint --fix-stale --------------------------------------------------------
def test_fix_stale_removes_comment_only_clause(tmp_path):
    from repro.analyze import fix_stale_suppressions

    path = write_module(
        tmp_path, "cluster/x.py",
        "X = 1  # repro: allow[DET001] nothing here triggers DET001\nY = 2\n",
    )
    result = run_lint([path])
    assert rule_ids(result.findings) == ["ANA003"]
    assert fix_stale_suppressions([path]) == 1
    assert open(path).read() == "X = 1\nY = 2\n"
    assert run_lint([path]).findings == []


def test_fix_stale_keeps_live_clause(tmp_path):
    from repro.analyze import fix_stale_suppressions

    path = write_module(
        tmp_path, "cluster/x.py",
        "import random\n\ndef pick(xs):\n"
        "    return random.choice(xs)"
        "  # repro: allow[DET001] fixture -- allow[DET002] stale\n",
    )
    assert rule_ids(run_lint([path]).findings) == ["ANA003"]
    assert fix_stale_suppressions([path]) == 1
    source = open(path).read()
    assert "allow[DET001] fixture" in source
    assert "DET002" not in source
    result = run_lint([path])
    assert result.findings == []
    assert rule_ids(result.suppressed) == ["DET001"]


def test_fix_stale_deletes_comment_only_line(tmp_path):
    from repro.analyze import fix_stale_suppressions

    path = write_module(
        tmp_path, "cluster/x.py",
        "X = 1\n# repro: allow[DET003] whole line is stale\nY = 2\n",
    )
    assert fix_stale_suppressions([path]) == 1
    assert open(path).read() == "X = 1\nY = 2\n"


def test_cli_lint_fix_stale(tmp_path, capsys):
    path = write_module(
        tmp_path, "cluster/x.py",
        "X = 1  # repro: allow[DET001] stale\n",
    )
    assert main(["lint", "--fix-stale", str(tmp_path)]) == 0
    assert "removed 1 stale suppression clause(s)" in capsys.readouterr().out
    assert open(path).read() == "X = 1\n"
    assert main(["lint", str(tmp_path), "--no-baseline"]) == 0
