"""Tests for the CONC-series process-boundary analysis.

Fixture modules live under ``<tmp>/repro/<package>/...`` like the rest
of the analyzer tests, so :mod:`repro.analyze.callgraph` resolves their
dotted names (``repro.sweep.driver`` ...) exactly like real simulation
code and cross-module from-imports link up.
"""

import os
import shutil

from repro.analyze import run_lint, rule_catalog
from repro.analyze.callgraph import CallGraph
from repro.analyze.conc import check_process_boundaries
from repro.analyze.dead import check_dead_modules, check_dead_symbols
from repro.analyze.engine import discover_files

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)
REAL_RUNNER = os.path.join(REPO_SRC, "sweep", "runner.py")


def write_module(tmp_path, rel, source):
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(path)


def run_conc_checks(paths):
    """CONC001-004 over ``paths``, as the lint engine runs them."""
    return check_process_boundaries(CallGraph(paths))


def conc_one(tmp_path, rel, source):
    return run_conc_checks([write_module(tmp_path, rel, source)])


def rule_ids(findings):
    return sorted(f.rule_id for f in findings)


# -- catalog ----------------------------------------------------------------
def test_conc_rules_registered():
    ids = {rule_id for rule_id, _, _ in rule_catalog()}
    assert {"CONC001", "CONC002", "CONC003", "CONC004"} <= ids


# -- CONC001: unpicklable callables and captures ----------------------------
def test_conc001_lambda_submit(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def parent():\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(lambda: 1)\n",
    )
    assert rule_ids(findings) == ["CONC001"]
    assert findings[0].line == 5
    assert "lambda" in findings[0].message


def test_conc001_locally_defined_function(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def parent():\n"
        "    def work():\n"
        "        return 1\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(work)\n",
    )
    assert rule_ids(findings) == ["CONC001"]
    assert "locally defined function 'work'" in findings[0].message


def test_conc001_threading_lock_argument(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "import threading\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def work(lock):\n"
        "    pass\n"
        "\n"
        "def parent():\n"
        "    lock = threading.Lock()\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(work, lock)\n",
    )
    assert rule_ids(findings) == ["CONC001"]
    assert "threading.Lock" in findings[0].message


def test_conc001_process_target_lambda(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "import multiprocessing\n"
        "\n"
        "def parent():\n"
        "    p = multiprocessing.Process(target=lambda: 1)\n"
        "    p.start()\n",
    )
    assert rule_ids(findings) == ["CONC001"]
    assert "multiprocessing.Process" in findings[0].message


def test_conc001_map_only_on_pool_receivers(tmp_path):
    # .map on a pool-bound name is a boundary; .map on anything else
    # (pandas-style) is not.
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def parent(xs, series):\n"
        "    series.map(lambda x: x)\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.map(lambda x: x, xs)\n",
    )
    assert rule_ids(findings) == ["CONC001"]
    assert findings[0].line == 6


def test_conc001_clean_module_level_function(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def work(seed):\n"
        "    return seed * 2\n"
        "\n"
        "def parent(seeds):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(work, s) for s in seeds]\n",
    )
    assert findings == []


# -- CONC002: worker-written, parent-read module globals --------------------
def test_conc002_worker_write_parent_read(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "RESULTS = []\n"
        "\n"
        "def work(x):\n"
        "    RESULTS.append(x)\n"
        "\n"
        "def parent(xs):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        for x in xs:\n"
        "            pool.submit(work, x)\n"
        "    return RESULTS\n",
    )
    assert rule_ids(findings) == ["CONC002"]
    assert findings[0].line == 6  # anchored at the worker-side write
    assert "'RESULTS'" in findings[0].message


def test_conc002_parent_write_worker_read_is_fine(tmp_path):
    # The warm-cache direction: the parent populates before the fork,
    # workers only read. Legitimate and unflagged.
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "CACHE = {}\n"
        "\n"
        "def work(x):\n"
        "    return CACHE.get(x)\n"
        "\n"
        "def parent(xs):\n"
        "    CACHE[0] = 'warm'\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        for x in xs:\n"
        "            pool.submit(work, x)\n",
    )
    assert findings == []


def test_conc002_cross_module_reachability(tmp_path):
    # The write happens two modules away from the submit: driver submits
    # work, work calls helpers.record, record writes helpers.SEEN which
    # helpers.report (parent-side) reads.
    write_module(
        tmp_path, "sweep/helpers.py",
        "SEEN = []\n"
        "\n"
        "def record(x):\n"
        "    SEEN.append(x)\n"
        "\n"
        "def report():\n"
        "    return list(SEEN)\n",
    )
    driver = write_module(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "from repro.sweep.helpers import record\n"
        "\n"
        "def work(x):\n"
        "    record(x)\n"
        "\n"
        "def parent(xs):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        for x in xs:\n"
        "            pool.submit(work, x)\n",
    )
    findings = run_conc_checks(
        [driver, str(tmp_path / "repro" / "sweep" / "helpers.py")]
    )
    assert rule_ids(findings) == ["CONC002"]
    assert findings[0].path.endswith("helpers.py")
    assert findings[0].line == 4


# -- CONC003: RNG / Simulator across the fork -------------------------------
def test_conc003_module_rng_used_both_sides(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "import random\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "RNG = random.Random(42)\n"
        "\n"
        "def work(x):\n"
        "    return x + RNG.random()\n"
        "\n"
        "def parent():\n"
        "    base = RNG.random()\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(work, base)\n",
    )
    assert rule_ids(findings) == ["CONC003"]
    assert findings[0].line == 4  # anchored at the shared binding


def test_conc003_rng_as_submit_argument(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "import random\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def work(rng):\n"
        "    return rng.random()\n"
        "\n"
        "def parent():\n"
        "    rng = random.Random(7)\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(work, rng)\n",
    )
    assert rule_ids(findings) == ["CONC003"]
    assert "random.Random" in findings[0].message


def test_conc003_passing_seed_is_fine(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "import random\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def work(seed):\n"
        "    return random.Random(seed).random()\n"
        "\n"
        "def parent(seed):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(work, seed)\n",
    )
    assert findings == []


# -- CONC004: parent-only imports in worker-reachable code ------------------
def test_conc004_function_level_import(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def work(x):\n"
        "    import argparse\n"
        "    return x\n"
        "\n"
        "def parent(x):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(work, x)\n",
    )
    assert rule_ids(findings) == ["CONC004"]
    assert findings[0].line == 4
    assert "'argparse'" in findings[0].message


def test_conc004_entry_module_import_time(tmp_path):
    findings = conc_one(
        tmp_path, "sweep/driver.py",
        "import argparse\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def work(x):\n"
        "    return x\n"
        "\n"
        "def parent(x):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(work, x)\n",
    )
    assert rule_ids(findings) == ["CONC004"]
    assert findings[0].line == 1
    assert "import time" in findings[0].message


def test_conc004_parent_side_import_is_fine(tmp_path):
    findings = conc_one(
        tmp_path, "cluster/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def work(x):\n"
        "    return x\n"
        "\n"
        "def parent(x):\n"
        "    import argparse  # parent-side: never crosses the boundary\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(work, x)\n",
    )
    assert findings == []


# -- engine integration ------------------------------------------------------
def test_conc_findings_respect_suppressions(tmp_path):
    path = write_module(
        tmp_path, "sweep/driver.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "def parent():\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.submit(lambda: 1)"
        "  # repro: allow[CONC001] fixture exercising the suppressor\n",
    )
    result = run_lint([path], project_checks=True)
    assert [f.rule_id for f in result.findings] == []
    assert [f.rule_id for f in result.suppressed] == ["CONC001"]


def test_real_tree_is_conc_clean():
    """Every real submission boundary (sweep runner workers and the
    shards they run, the analyzer's own pool) passes its own analysis."""
    files = discover_files([REPO_SRC])
    graph = CallGraph(files)
    # The analysis saw the real boundaries, it didn't vacuously pass.
    apis = sorted(site.api for site in graph.sites)
    assert "process" in apis and "map" in apis
    # The sweep executor's owned workers are a process site rooted at
    # their loop, and the spec execution they run is worker-reachable.
    roots = {
        graph.resolve_callable(
            site.callable_expr, site.module, site.scope_stack, site.enclosing
        )
        for site in graph.sites
        if site.api == "process"
    }
    assert "repro.sweep.runner._worker_loop" in {
        root.label for root in roots if root is not None
    }
    reachable = {info.label for info in graph.worker_reachable()}
    assert "repro.sweep.runner._execute_spec_dict" in reachable
    # Shard jobs run on those same workers, through the sharding module.
    assert "repro.cluster.sharding.run_shard" in reachable
    assert run_conc_checks(files) == []


def test_from_package_import_submodule_resolves_calls(tmp_path):
    # `from repro.cluster import sharding` binds the submodule, so a
    # worker's `sharding.run_shard(...)` reaches run_shard exactly as
    # after `import repro.cluster.sharding as sharding`.
    write_module(tmp_path, "cluster/__init__.py", "")
    write_module(
        tmp_path, "cluster/sharding.py",
        "def run_shard(spec, lo, hi):\n"
        "    return (spec, lo, hi)\n",
    )
    write_module(
        tmp_path, "sweep/runner.py",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "from repro.cluster import sharding\n"
        "\n"
        "def work(spec):\n"
        "    return sharding.run_shard(spec, 0, 1)\n"
        "\n"
        "def parent(specs):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        for spec in specs:\n"
        "            pool.submit(work, spec)\n",
    )
    graph = CallGraph(discover_files([str(tmp_path / "repro")]))
    reachable = {info.label for info in graph.worker_reachable()}
    assert "repro.sweep.runner.work" in reachable
    assert "repro.cluster.sharding.run_shard" in reachable


def test_injected_lambda_fails_lint_with_anchor(tmp_path):
    """Acceptance: a lambda submission injected into the *real* sweep
    runner is caught, anchored to its exact file:line."""
    copy = tmp_path / "repro" / "sweep" / "runner.py"
    copy.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(REAL_RUNNER, copy)
    with open(copy, "a") as handle:
        handle.write(
            "\n\ndef _injected(pool, spec):\n"
            "    return pool.submit(lambda: spec)\n"
        )
    bad_line = len(open(copy).read().splitlines())
    findings = run_conc_checks([str(copy)])
    assert [f.rule_id for f in findings] == ["CONC001"]
    assert findings[0].line == bad_line
    assert findings[0].anchor.endswith(f"runner.py:{bad_line}:23")


def test_conc004_declared_worker_entry_module(tmp_path):
    """repro.distrib.worker is a declared worker entry point: bare
    spawned interpreters import it, so a module-level parent-only
    import is a finding even with no submission site in sight."""
    findings = conc_one(
        tmp_path, "distrib/worker.py",
        "import argparse\n"
        "\n"
        "def worker_main(queue_dir):\n"
        "    return 0\n",
    )
    assert rule_ids(findings) == ["CONC004"]
    assert findings[0].line == 1
    assert "'argparse'" in findings[0].message


def test_conc004_same_import_elsewhere_not_flagged(tmp_path):
    """The identical module body outside the declared entry set (and
    with no submission site) stays clean — the finding above is the
    WORKER_ENTRY_MODULES contract, not a blanket import ban."""
    findings = conc_one(
        tmp_path, "distrib/queue.py",
        "import argparse\n"
        "\n"
        "def worker_main(queue_dir):\n"
        "    return 0\n",
    )
    assert findings == []


# -- DEAD001: modules no entry point reaches ---------------------------------
# Like the real entry point, the fixture's __main__ calls main(): an
# import alone names nothing DEAD002 counts as a use.
CLI_MAIN = "from repro.cli import main\n\nmain()\n"


def dead_lint(tmp_path, modules, main=CLI_MAIN):
    """Lint a fixture tree rooted at ``repro/__main__.py`` (unless
    ``main`` is None); returns the LintResult."""
    tree = {"__init__.py": "", "cli.py": "def main():\n    return 0\n"}
    if main is not None:
        tree["__main__.py"] = main
    tree.update(modules)
    for rel, source in tree.items():
        write_module(tmp_path, rel, source)
    return run_lint([str(tmp_path / "repro")])


def dead_modules(result):
    return sorted(
        f.path.rsplit("repro/", 1)[-1]
        for f in result.findings
        if f.rule_id == "DEAD001"
    )


def test_dead001_orphan_module_flagged_at_first_statement(tmp_path):
    result = dead_lint(tmp_path, {
        "orphan.py": "# leading comment\n\"\"\"Nobody imports me.\"\"\"\nX = 1\n",
    })
    assert [f.rule_id for f in result.findings] == ["DEAD001"]
    assert result.findings[0].line == 2
    assert "repro.orphan" in result.findings[0].message


def test_dead001_init_reexport_alone_does_not_rescue(tmp_path):
    result = dead_lint(
        tmp_path,
        {
            "pkg/__init__.py": (
                "from repro.pkg.used import helper\n"
                "from repro.pkg.orphan import Thing\n"
            ),
            "pkg/used.py": "def helper():\n    return 0\n",
            "pkg/orphan.py": "class Thing:\n    pass\n",
        },
        main=CLI_MAIN + "from repro.pkg import helper\n",
    )
    assert dead_modules(result) == ["pkg/orphan.py"]


def test_dead001_lazy_function_level_import_rescues(tmp_path):
    result = dead_lint(tmp_path, {
        "cli.py": (
            "def main():\n"
            "    from repro.lazy import run\n"
            "    return run()\n"
        ),
        "lazy.py": "def run():\n    return 0\n",
    })
    assert dead_modules(result) == []


def test_dead001_init_submodule_import_registers(tmp_path):
    result = dead_lint(
        tmp_path,
        {
            "experiments/__init__.py": "from repro.experiments import table1\n",
            "experiments/api.py": "def run_all():\n    return 0\n",
            "experiments/table1.py": "ID = 'table1'\n",
        },
        main=CLI_MAIN + "from repro.experiments.api import run_all\n",
    )
    assert dead_modules(result) == []


def test_dead001_module_object_import_follows_every_reexport(tmp_path):
    package = {
        "analyze/__init__.py": (
            "from repro.analyze.engine import run_lint\n"
            "from repro.analyze.report import render\n"
        ),
        "analyze/engine.py": "def run_lint():\n    return 0\n",
        "analyze/report.py": "def render():\n    return ''\n",
    }
    as_object = dead_lint(
        tmp_path / "object", package,
        main=CLI_MAIN + "from repro import analyze\n\nanalyze.run_lint()\n",
    )
    assert dead_modules(as_object) == []
    by_name = dead_lint(
        tmp_path / "name", package,
        main=CLI_MAIN + "from repro.analyze import run_lint\n",
    )
    assert dead_modules(by_name) == ["analyze/report.py"]


def test_dead001_suppression_covers_orphan_and_goes_stale_when_reached(
    tmp_path,
):
    allow = "# repro: allow[DEAD001] kept as an analytic oracle\n"
    kept = dead_lint(tmp_path / "kept", {"oracle.py": allow + "X = 1\n"})
    assert kept.findings == []
    assert [f.rule_id for f in kept.suppressed] == ["DEAD001"]
    reached = dead_lint(
        tmp_path / "reached",
        {"oracle.py": allow + "X = 1\n"},
        main=CLI_MAIN + "from repro.oracle import X\n",
    )
    assert [(f.rule_id, f.line) for f in reached.findings] == [("ANA003", 1)]


def test_dead001_needs_the_entry_point_in_the_analysed_set(tmp_path):
    result = dead_lint(tmp_path, {"orphan.py": "X = 1\n"}, main=None)
    assert dead_modules(result) == []


# -- DEAD002: definitions no entry point reaches -----------------------------
def dead_symbol_lint(tmp_path, modules, scripts=(), main=CLI_MAIN):
    """Lint a fixture tree at ``<tmp>/src/repro``, with each
    ``(directory, name, source)`` script written beside ``src/``."""
    for directory, name, source in scripts:
        (tmp_path / directory).mkdir(exist_ok=True)
        (tmp_path / directory / name).write_text(source)
    return dead_lint(tmp_path / "src", modules, main=main)


def dead_symbols(result):
    return [
        (f.path.rsplit("repro/", 1)[-1], f.line, f.message.split(" is ")[0])
        for f in result.findings
        if f.rule_id == "DEAD002"
    ]


def test_dead002_unreferenced_public_method_flagged_at_def_line(tmp_path):
    result = dead_symbol_lint(
        tmp_path,
        {
            "node.py": (
                "class Node:\n"
                "    def run(self):\n"
                "        return 1\n"
                "\n"
                "    def describe(self):\n"
                "        return 'node'\n"
            ),
        },
        main=CLI_MAIN + "from repro.node import Node\n\nNode().run()\n",
    )
    assert dead_symbols(result) == [
        ("node.py", 5, "method repro.node.Node.describe")
    ]


def test_dead002_roots_and_dead001_modules_are_not_flagged(tmp_path):
    result = dead_symbol_lint(
        tmp_path,
        {
            "registry.py": (
                "REGISTRY = {}\n"
                "\n"
                "def register(cls):\n"
                "    REGISTRY[cls.__name__] = cls\n"
                "    return cls\n"
            ),
            "plugins.py": (
                "import ast\n"
                "\n"
                "from repro.registry import register\n"
                "\n"
                "@register\n"
                "class Plugin:\n"
                "    pass\n"
                "\n"
                "class Walker(ast.NodeVisitor):\n"
                "    def __repr__(self):\n"
                "        return 'Walker()'\n"
                "\n"
                "    def visit_Name(self, node):\n"
                "        return node\n"
                "\n"
                "    def put_many(self, rows):\n"
                "        return rows\n"
                "\n"
                "    def bench_only(self):\n"
                "        return 0\n"
                "\n"
                "WALKER = Walker()\n"
                "getattr(WALKER, 'put_many', None)\n"
            ),
            "orphan.py": "def helper():\n    return 0\n",
        },
        scripts=[("perfbench", "bench.py", "WALKER.bench_only()\n")],
        main=CLI_MAIN + "import repro.plugins\n",
    )
    assert dead_symbols(result) == []
    assert dead_modules(result) == ["orphan.py"]


def test_dead002_reasoned_allow_suppresses(tmp_path):
    allow = "  # repro: allow[DEAD002] kept as the analytic oracle\n"
    result = dead_symbol_lint(
        tmp_path, {"oracle.py": "def oracle():" + allow + "    return 0\n"},
        main=CLI_MAIN + "import repro.oracle\n",
    )
    assert result.findings == []
    assert [f.rule_id for f in result.suppressed] == ["DEAD002"]


def test_real_tree_reaches_every_definition():
    # Zero DEAD002 findings once the suppressed Eq. 3 oracle is excused.
    findings = check_dead_symbols(CallGraph(discover_files([REPO_SRC])))
    assert [f.message.split(" is ")[0] for f in findings] == [
        "class repro.analytical.power_model.AgileWattsPowerModel"
    ]


def test_real_tree_reaches_every_module_but_the_kept_oracle():
    graph = CallGraph(discover_files([REPO_SRC]))
    findings = check_dead_modules(graph)
    assert [f.path for f in findings] == [
        "src/repro/analytical/latency_model.py"
    ]
