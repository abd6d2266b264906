"""Fig 12 (MySQL) and Fig 13 (Kafka) claim checks.

Asserts the Sec 7.4 claims: C6-heavy baselines, latency gains from
disabling C6 at low/mid rates, and large C6A power recovery.
"""

import figure_grids


def test_bench_fig12_mysql():
    points = figure_grids.fig12_points()
    by_label = {p.label: p for p in points}
    # Baseline holds >= 40% C6 at every rate.
    for p in points:
        assert p.baseline_residency.get("C6", 0.0) >= 0.4
    # Disabling C6 helps latency at low/mid rates.
    assert by_label["low"].avg_latency_reduction > 0.0
    assert by_label["mid"].avg_latency_reduction > 0.0
    # C6A recovers large power vs the C6-disabled configuration.
    for p in points:
        assert p.aw_power_reduction > 0.2


def test_bench_fig13_kafka():
    points = figure_grids.fig13_points()
    by_label = {p.label: p for p in points}
    # Low rate: > 60% C6; high rate: C6 never entered.
    assert by_label["low"].baseline_residency.get("C6", 0.0) > 0.6
    assert by_label["high"].baseline_residency.get("C6", 0.0) < 0.1
    # High rate: no latency gain from disabling C6 (it wasn't used).
    assert abs(by_label["high"].avg_latency_reduction) < 0.02
    # C6A saves heavily at both rates.
    for p in points:
        assert p.aw_power_reduction > 0.3
