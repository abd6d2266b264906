"""Golden rendered output: every experiment's table text, byte for byte.

``rendered_tables.json`` pins what ``repro run`` prints:

- ``quick``: for each registered experiment, the ``table`` text of its
  ``--quick`` run verbatim, plus the sha256 of its ``json`` and ``csv``
  renderings;
- ``grids``: the ``table`` text of the multi-rate grids that
  ``figure_grids`` simulates (shared with ``test_experiments_sim.py``,
  so pinning them simulates nothing extra).

A change to how tables are declared or rendered must keep this file
unchanged. Regenerate it only for a deliberate change of output:

    PYTHONPATH=src python tests/test_rendered_tables.py
"""

import functools
import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import figure_grids  # noqa: E402

from repro.experiments.api import (  # noqa: E402
    all_experiments,
    experiment_ids,
    render,
    run_experiments,
)
from repro.sweep.runner import SweepRunner  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "rendered_tables.json")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def quick_renderings():
    """``{id: {"table", "json_sha256", "csv_sha256"}}`` of ``run --all --quick``."""
    experiments = [experiment.quick() for experiment in all_experiments()]
    results = run_experiments(experiments, runner=SweepRunner())
    return {
        experiment.id: {
            "table": render(experiment, results[experiment.id], "table").split("\n"),
            "json_sha256": _sha256(render(experiment, results[experiment.id], "json")),
            "csv_sha256": _sha256(render(experiment, results[experiment.id], "csv")),
        }
        for experiment in experiments
    }


def grid_rendering(experiment_id):
    experiment = figure_grids.EXPERIMENTS[experiment_id]
    result = figure_grids.result(experiment_id)
    return render(experiment, result, "table").split("\n")


@functools.lru_cache(maxsize=None)
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_experiment_is_pinned():
    assert list(golden()["quick"]) == experiment_ids()
    assert list(golden()["grids"]) == list(figure_grids.EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_quick_table_text_is_unchanged(experiment_id):
    assert quick_renderings()[experiment_id]["table"] == (
        golden()["quick"][experiment_id]["table"]
    )


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_quick_json_and_csv_are_unchanged(experiment_id):
    rendered = quick_renderings()[experiment_id]
    pinned = golden()["quick"][experiment_id]
    assert rendered["json_sha256"] == pinned["json_sha256"]
    assert rendered["csv_sha256"] == pinned["csv_sha256"]


@pytest.mark.parametrize("experiment_id", list(figure_grids.EXPERIMENTS))
def test_grid_table_text_is_unchanged(experiment_id):
    assert grid_rendering(experiment_id) == golden()["grids"][experiment_id]


if __name__ == "__main__":
    fixture = {
        "quick": quick_renderings(),
        "grids": {i: grid_rendering(i) for i in figure_grids.EXPERIMENTS},
    }
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
