"""Table 4.1: the reference-bit policy comparison.

The full closed-loop matrix: {SLC, WORKLOAD1} x {5, 6, 8 MB} x
{MISS, REF, NOREF}, repeated with distinct seeds in randomised order
(the paper ran five repetitions; ``REPRO_BENCH_REPS`` controls ours).

Shape targets asserted (DESIGN.md):

* REF page-ins within a few percent of MISS, elapsed time never
  better (the flush overhead shows up as time, not faults);
* NOREF page-ins significantly above MISS wherever there is paging
  pressure;
* MISS has the best (or tied) elapsed time at every point.  The
  paper's single exception — NOREF winning by 2% for WORKLOAD1 at
  8 MB — does not reproduce on the scaled machine, where FIFO's extra
  page-ins outweigh the saved maintenance (recorded in
  EXPERIMENTS.md).
"""

import pytest

from repro.analysis.experiments import run_table_4_1

from conftest import (
    bench_reps,
    bench_runner,
    bench_scale,
    once,
    shape_asserts_enabled,
)


def test_table_4_1(benchmark, record_result):
    result = {}

    def compute():
        result["rows"], result["table"] = run_table_4_1(
            length_scale=bench_scale(), repetitions=bench_reps(),
            runner=bench_runner(),
        )
        return result["rows"]

    rows = once(benchmark, compute)
    record_result("table_4_1", result["table"].render())
    if not shape_asserts_enabled():
        return

    cells = {
        (row.workload, row.memory_mb, row.policy): row
        for row in rows
    }
    for workload in ("SLC", "WORKLOAD1"):
        for memory_mb in (5, 6, 8):
            miss = cells[(workload, memory_mb, "MISS")]
            ref = cells[(workload, memory_mb, "REF")]
            noref = cells[(workload, memory_mb, "NOREF")]

            # REF: page-ins comparable to MISS, never meaningfully
            # faster in elapsed time.
            assert 0.90 <= ref.page_ins_pct / 100.0 <= 1.10
            assert ref.elapsed_pct >= 99.0

            # NOREF: more page-ins wherever the point pages at all.
            assert noref.page_ins_pct >= 102.0, (workload, memory_mb)

            # MISS is fastest (small tolerance for run noise).
            assert miss.elapsed_pct <= min(
                ref.elapsed_pct, noref.elapsed_pct
            ) + 1.0

    # The NOREF penalty is largest where paging is heaviest for SLC
    # (the paper's 177% at 5 MB versus 143% at 8 MB).
    assert (
        cells[("SLC", 5, "NOREF")].page_ins_pct
        > cells[("SLC", 6, "NOREF")].page_ins_pct - 5
    )
