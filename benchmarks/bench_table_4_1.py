"""Table 4.1: the reference-bit policy comparison.

The full closed-loop matrix: {SLC, WORKLOAD1} x {5, 6, 8 MB} x
{MISS, REF, NOREF}, repeated with distinct seeds in randomised order
(the paper ran five repetitions; ``REPRO_BENCH_REPS`` controls ours).

Shape targets (:mod:`repro.analysis.targets`):

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

from repro.analysis.experiments import run_table_4_1

from conftest import (
    assert_targets,
    bench_reps,
    bench_runner,
    bench_scale,
    once,
)


def test_table_4_1(benchmark, record_result):
    rows, table = once(benchmark, lambda: run_table_4_1(
        length_scale=bench_scale(), repetitions=bench_reps(),
        runner=bench_runner(),
    ))
    record_result("table_4_1", table.render())
    assert_targets("4.1", rows)
