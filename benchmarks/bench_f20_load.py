"""F20 — continuous-time load sweep on the streaming dispatcher.

Expected shape: fill rate rises with worker supply for both policies.
Once supply is ample, sample-price stays within a small margin of
greedy's mean benefit per assignment: greedy already gives each new
task to its best online worker, so the price's selectivity buys
little.
"""

import numpy as np

from benchmarks.conftest import run_and_print


def test_figure20_load(benchmark, bench_scale):
    table = run_and_print(benchmark, "F20", bench_scale)
    greedy_fill = table.column("greedy fill")
    # Fill rate (weakly) increases with supply.
    assert greedy_fill[-1] >= greedy_fill[0] - 0.05
    # At the highest supply ratio, sample-price's mean benefit is
    # within 0.05 of greedy's.
    g = table.column("greedy mean benefit")[-1]
    t = table.column("sample-price mean benefit")[-1]
    if not (np.isnan(g) or np.isnan(t)):
        assert t >= g - 0.05
