"""Fig 8 (Memcached vs baseline) claim check.

Asserts the panel shapes: declining savings with load, < ~1% server-side
worst-case degradation, negligible end-to-end impact.
"""

import figure_grids


def test_bench_fig8():
    points = figure_grids.fig8_points()
    # Panel (a): load pushes residency toward C0/C1.
    assert points[-1].residency.get("C0", 0) > points[0].residency.get("C0", 0)
    # Panel (b): savings decline with load and stay positive.
    assert points[0].power_reduction > points[-1].power_reduction > 0.05
    # Panel (c): worst case bounds expected case; e2e is negligible.
    for p in points:
        assert p.expected_server_degradation <= p.worst_case_server_degradation + 1e-9
        assert p.worst_case_e2e_degradation < 0.005
        assert p.worst_case_server_degradation < 0.02
