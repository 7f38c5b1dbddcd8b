"""Table 3.5: page-out behaviour of the Sprite development systems.

The headline claims under test (Section 3.3, as shape targets in
:mod:`repro.analysis.targets`):

* with 8 MB of memory, at least ~80% of writable pages are modified
  by the time they are replaced;
* with 12 MB or more, at least ~90%;
* dropping dirty bits entirely would grow total paging I/O only
  modestly (the paper: at most 3%; our compressed traces run fewer
  file page-ins per replacement, so the bound checked here is
  looser — see EXPERIMENTS.md).
"""

from repro.analysis.experiments import run_table_3_5

from conftest import assert_targets, bench_runner, bench_scale, once


def test_table_3_5(benchmark, record_result):
    rows, table = once(benchmark, lambda: run_table_3_5(
        length_scale=bench_scale(), runner=bench_runner(),
    ))
    record_result("table_3_5", table.render())
    assert_targets("3.5", rows)
