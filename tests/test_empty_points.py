"""Points that complete no request render ``-``, not a traceback.

A horizon far shorter than the mean inter-arrival time leaves every
point without a completed request: its latencies are undefined. Records
carry them as ``null``, derived values (degradations, reductions,
amplifications) are ``null`` too, and the tables print ``-`` for them.
"""

import re

import pytest

from repro.cli import EXIT_ERROR, EXIT_OK, main

#: Experiment -> ``--params`` overrides that leave its points empty.
EMPTY = {
    "fig8": ["horizon=0.0001", "rates_kqps=0.1"],
    "fig9": ["horizon=0.0001", "rates_kqps=0.1"],
    "fig10": ["horizon=0.0001", "rates_kqps=0.1"],
    "fig11": ["horizon=0.0001", "rates_kqps=0.1"],
    "fig12": ["horizon=0.0001"],
    "governor_study": ["horizon=0.0001", "qps=100"],
    "fanout_tail": ["horizon=0.0001", "per_node_kqps=0.1"],
    "balancer_study": ["horizon=0.0001", "per_node_kqps=0.1"],
}

#: A table cell that is exactly ``-`` (cells are two spaces apart).
_DASH_CELL = re.compile(r"(?:^|  )-(?:  |\s*$)")


def _has_dash_cell(text):
    return any(
        _DASH_CELL.search(line)
        for line in text.splitlines()
        if set(line) - {"-", " "}  # not a header rule
    )


@pytest.mark.parametrize("experiment_id", sorted(EMPTY))
def test_empty_points_render_a_dash(experiment_id, capsys):
    argv = ["run", experiment_id, "--quick", "--no-cache", "--params"]
    assert main(argv + EMPTY[experiment_id]) == EXIT_OK
    out = capsys.readouterr().out
    assert _has_dash_cell(out), out


def test_dash_cell_detector_ignores_header_rules():
    assert not _has_dash_cell("QPS  AvgP\n---  ----\n20K  1.0%")
    assert _has_dash_cell("QPS  AvgP  Tail\n---  ----  ----\n20K  -     1.0%")


def test_proportionality_still_fails_cleanly(capsys):
    # A power curve needs an idle and a peak point; with no completed
    # request there is no curve, and the run says so instead of crashing.
    argv = ["run", "proportionality", "--quick", "--no-cache", "--params",
            "horizon=0.0001", "rates_kqps=0.1"]
    assert main(argv) == EXIT_ERROR
    assert "run failed" in capsys.readouterr().err
