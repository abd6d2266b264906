"""Shared set-up for the paper-claim checks in this directory.

These are plain pytest tests: each asserts a claim of the paper (or an
invariant of the simulation substrate) and times nothing. Performance is
measured by perfbench alone (see BENCHMARK.json).

The simulated figure grids come from ``tests/figure_grids.py``, which
``tests/test_experiments_sim.py`` and friends use too, so a full run
simulates each grid once. Putting ``tests/`` on ``sys.path`` here makes
both directories import it under the one name ``figure_grids``.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
)
