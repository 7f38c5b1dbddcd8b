"""Table 3.3: event frequencies measured on the simulated prototype.

One full run per (workload, memory) point with the prototype's actual
configuration (SPUR dirty-bit mechanism, MISS reference bits).  The
shape targets (:mod:`repro.analysis.targets`): excess faults are a
small fraction of dirty faults, roughly a fifth of modified blocks are
read before written, zero-fill faults are a large share of dirty
faults, and dirty faults rise as memory shrinks.
"""

from repro.analysis.experiments import run_table_3_3

from conftest import assert_targets, bench_runner, bench_scale, once


def test_table_3_3(benchmark, record_result):
    rows, table = once(benchmark, lambda: run_table_3_3(
        length_scale=bench_scale(), runner=bench_runner(),
    ))
    record_result("table_3_3", table.render())
    assert_targets("3.3", rows)
