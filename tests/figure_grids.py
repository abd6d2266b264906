"""The simulated experiment grids that more than one test file asserts on.

``tests/test_experiments_sim.py``, ``tests/test_rendered_tables.py`` and
the claim checks under ``benchmarks/`` assert on the same reduced grids.
Each grid here is simulated at most once per process and the whole
:class:`~repro.experiments.api.ExperimentResult` is shared, so the suite
never simulates a figure grid twice and can render what it simulated.
(The sweep runner's own memo cannot do this: several tests clear it on
purpose.)

Import it as ``figure_grids`` with this directory on ``sys.path``, the way
the test modules here import ``golden_specs``: one module name means one
cache.
"""

import functools

from repro.experiments.fig8 import Fig8Experiment, Fig8Params
from repro.experiments.fig9 import Fig9Experiment, Fig9Params
from repro.experiments.fig10 import Fig10Experiment, Fig10Params
from repro.experiments.fig11 import Fig11Experiment, Fig11Params
from repro.experiments.fig12 import Fig12Experiment, Fig12Params
from repro.experiments.fig13 import Fig13Experiment, Fig13Params
from repro.experiments.governor_study import (
    GovernorStudyExperiment,
    GovernorStudyParams,
)
from repro.experiments.proportionality import (
    ProportionalityExperiment,
    ProportionalityParams,
)
from repro.experiments.table5 import Table5Experiment, Table5Params

#: A reduced Memcached grid: low / mid / high load.
RATES = (10, 100, 400)
HORIZON = 0.1
SEED = 42

#: Fig 11 needs enough simulated time at high load for the turbo tank
#: (2 J) to actually deplete, so it runs its own grid.
FIG11_RATES = (10, 300, 500)
FIG11_HORIZON = 0.4

#: Every shared grid, by experiment id.
EXPERIMENTS = {
    "fig8": Fig8Experiment(
        Fig8Params(rates_kqps=RATES, horizon=HORIZON, seed=SEED,
                   with_scalability=True)
    ),
    "fig9": Fig9Experiment(
        Fig9Params(rates_kqps=RATES, horizon=HORIZON, seed=SEED)
    ),
    "fig10": Fig10Experiment(
        Fig10Params(rates_kqps=RATES, horizon=HORIZON, seed=SEED)
    ),
    "fig11": Fig11Experiment(
        Fig11Params(rates_kqps=FIG11_RATES, horizon=FIG11_HORIZON, seed=SEED)
    ),
    "fig12": Fig12Experiment(Fig12Params(horizon=1.0, seed=SEED)),
    "fig13": Fig13Experiment(Fig13Params(horizon=0.5, seed=SEED)),
    "table5": Table5Experiment(
        Table5Params(rates_kqps=RATES, horizon=HORIZON, seed=SEED)
    ),
    "governor_study": GovernorStudyExperiment(
        GovernorStudyParams(qps=80_000, horizon=0.08, seed=SEED)
    ),
    "proportionality": ProportionalityExperiment(
        ProportionalityParams(rates_kqps=RATES, horizon=0.08)
    ),
}


@functools.lru_cache(maxsize=None)
def result(experiment_id):
    """The shared grid's :class:`ExperimentResult`, simulated once."""
    return EXPERIMENTS[experiment_id].execute()


def fig8_points():
    return result("fig8").payload


def fig9_sweep():
    return result("fig9").payload


def fig10_points():
    return result("fig10").payload


def fig11_sweep():
    return result("fig11").payload


def fig12_points():
    return result("fig12").payload


def fig13_points():
    return result("fig13").payload


def table5_savings():
    return result("table5").payload


def governor_study_points():
    return result("governor_study").payload


def proportionality_comparison():
    return result("proportionality").payload
