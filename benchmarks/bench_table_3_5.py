"""Table 3.5: page-out behaviour of the Sprite development systems.

The headline claims under test (Section 3.3):

* with 8 MB of memory, at least ~80% of writable pages are modified
  by the time they are replaced;
* with 12 MB or more, at least ~90%;
* dropping dirty bits entirely would grow total paging I/O only
  modestly (the paper: at most 3%; our compressed traces run fewer
  file page-ins per replacement, so the bound asserted here is
  looser — see EXPERIMENTS.md).
"""

import pytest

from repro.analysis.experiments import run_table_3_5

from conftest import (
    bench_runner,
    bench_scale,
    once,
    shape_asserts_enabled,
)


def test_table_3_5(benchmark, record_result):
    result = {}

    def compute():
        result["rows"], result["table"] = run_table_3_5(
            length_scale=bench_scale(), runner=bench_runner(),
        )
        return result["rows"]

    rows = once(benchmark, compute)
    record_result("table_3_5", result["table"].render())
    if not shape_asserts_enabled():
        return

    for row in rows:
        assert row.potentially_modified > 0, row.hostname
        modified_pct = 100.0 - row.percent_not_modified
        if row.memory_mb >= 12:
            assert modified_pct >= 90.0, row.hostname
        else:
            assert modified_pct >= 75.0, row.hostname
        assert row.percent_additional_io <= 15.0, row.hostname

    # The small-memory hosts replace more clean pages than the
    # large-memory hosts, matching the paper's memory-size trend.
    small = [r for r in rows if r.memory_mb == 8]
    large = [r for r in rows if r.memory_mb >= 12]
    assert min(r.percent_not_modified for r in small) >= 0
    assert (
        sum(r.percent_not_modified for r in small) / len(small)
        > sum(r.percent_not_modified for r in large) / len(large)
    )
