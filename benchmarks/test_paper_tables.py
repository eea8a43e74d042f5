"""Benchmark harness: regenerate every table and figure of the paper.

Run with::

    pytest benchmarks/ --benchmark-only -s

Each benchmark times one table/figure regeneration and prints the same
rows/series the paper reports (paper-vs-measured is recorded in
EXPERIMENTS.md).  Simulations are shared through a session cache, so the
first benchmark pays for the runs its successors reuse.
"""

from repro.experiments import (
    art1_fig12,
    art1_table3,
    art2_fig16,
    art2_table3,
    art3_fig7,
    art3_fig8,
    art3_fig9,
    art3_table2,
    art3_table3,
    fig_neon_parallelism,
    table4_setup,
)

from benchmarks.conftest import emit


def test_table4_systems_setup(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: table4_setup.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    assert exp.rows


def test_art1_fig12_autovec_vs_original_dsa(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art1_fig12.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    rows = exp.row_dict()
    assert rows["qsort"][1] >= 0  # the DSA never penalizes (paper's claim)


def test_art1_table3_area_overhead(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art1_table3.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    assert "2.18%" in exp.table()


def test_art2_fig16_extended_dsa(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art2_fig16.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    rows = exp.row_dict()
    assert rows["bitcount"][2] > rows["bitcount"][0]  # extended DSA unlocks it


def test_art2_table3_dsa_latency(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art2_table3.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    assert exp.rows


def test_art3_fig7_loop_census(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art3_fig7.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    assert exp.rows


def test_art3_fig8_performance(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art3_fig8.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    avg = exp.row_dict()["AVERAGE"]
    assert avg[2] > 0  # DSA improves over the ARM original on average


def test_art3_fig9_energy(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art3_fig9.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    avg = exp.row_dict()["AVERAGE"]
    assert avg[2] > 0  # net energy savings on average (paper: 45%)


def test_art3_table2_detection_latency(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art3_table2.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    assert exp.rows


def test_art3_table3_dsa_energy_scenarios(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: art3_table3.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    assert len(exp.rows) == 7  # one scenario per loop type


def test_fig_neon_parallelism(benchmark, scale, cache):
    exp = benchmark.pedantic(lambda: fig_neon_parallelism.run(scale, cache), rounds=1, iterations=1)
    emit(exp)
    assert exp.row_dict()["i8"][1] == 16
