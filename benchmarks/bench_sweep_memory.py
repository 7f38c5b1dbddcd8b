"""Extension bench: the memory-size sweep behind Table 4.1's three
points.

The paper sampled 5, 6, and 8 MB.  This bench sweeps a finer grid of
memory ratios for each reference policy and plots page-ins against
memory size, making the crossover structure visible: where NOREF's
penalty collapses, and how MISS tracks REF throughout.
"""

import pytest

from repro.analysis.charts import line_plot
from repro.counters.events import Event
from repro.machine.config import scaled_config
from repro.workloads.slc import SlcWorkload

from conftest import (
    bench_runner,
    bench_scale,
    once,
    shape_asserts_enabled,
)

#: Memory ratios swept (the paper's points are 40, 48, 64).
RATIOS = (36, 40, 44, 48, 56, 64, 72)


def run_sweep():
    runner = bench_runner()
    scale = min(bench_scale(), 1.0) * 0.5
    grid = [
        (policy, ratio)
        for policy in ("MISS", "REF", "NOREF")
        for ratio in RATIOS
    ]
    outcomes = runner.run_many(
        [
            (scaled_config(memory_ratio=ratio,
                           reference_policy=policy),
             SlcWorkload(length_scale=scale), 0, None)
            for policy, ratio in grid
        ],
    )
    series = {}
    for (policy, ratio), result in zip(grid, outcomes):
        series.setdefault(policy, []).append(
            (ratio, result.page_ins)
        )
    chart = line_plot(
        series, width=56, height=14,
        title="SLC page-ins vs memory size (ratio x 16 KB cache)",
        x_label="memory ratio (40 = 5 MB equivalent)",
    )
    return series, chart


def test_memory_sweep(benchmark, record_result):
    series, chart = once(benchmark, run_sweep)
    record_result("extension_memory_sweep", chart)
    if not shape_asserts_enabled():
        return
    for policy, data in series.items():
        page_ins = dict(data)
        # Paging decreases (weakly) from the smallest to the largest
        # memory for every policy.
        assert page_ins[RATIOS[0]] >= page_ins[RATIOS[-1]], policy
    # NOREF sits at or above MISS across the sweep.
    miss = dict(series["MISS"])
    noref = dict(series["NOREF"])
    above = sum(
        1 for ratio in RATIOS if noref[ratio] >= miss[ratio] * 0.98
    )
    assert above >= len(RATIOS) - 1
