"""Table 3.4: overhead of the dirty-bit alternatives.

Two variants, as DESIGN.md specifies:

1. **Published counts** — feed the paper's Table 3.3 through our
   Section 3.2 cost models; every cell must match the published
   Table 3.4 (this validates the model implementation end to end).
2. **Measured counts** — feed our simulated Table 3.3.  The MIN /
   SPUR / FAULT / FLUSH relationships carry over; the WRITE column is
   reported but not asserted against the paper, because its
   :math:`N_{w\\text{-}hit} t_{dc}` term scales with trace length and
   our traces are ~1000x shorter (see EXPERIMENTS.md).

Both variants check the shared targets of
:mod:`repro.analysis.targets`.

A sensitivity sweep prints the paper's "even at t_dc = 1 cycle, WRITE
stays worst" observation on the published counts (checked by the
published-counts targets).
"""

from repro.analysis import paper_data
from repro.analysis.experiments import build_table_3_4, run_table_3_3
from repro.policies.costs import TimeParameters, overhead_table

from conftest import assert_targets, bench_runner, bench_scale, once


def test_table_3_4_from_paper_counts(benchmark, record_result):
    results, table = once(benchmark, build_table_3_4)
    record_result("table_3_4_paper_counts", table.render())
    assert_targets("3.4-paper", results)


def test_table_3_4_from_measured_counts(benchmark, record_result):
    def compute():
        rows, _ = run_table_3_3(
            length_scale=bench_scale(), runner=bench_runner(),
        )
        return build_table_3_4(rows)

    results, table = once(benchmark, compute)
    record_result("table_3_4_measured_counts", table.render())
    assert_targets("3.4-measured", results)


def test_write_policy_sensitivity(benchmark, record_result):
    """Sweep t_dc on the published counts (Section 3.2's footnote)."""

    def sweep():
        lines = ["WRITE-policy sensitivity to t_dc "
                 "(paper counts, WORKLOAD1 at 5 MB):"]
        counts, _ = paper_data.TABLE_3_3[("WORKLOAD1", 5)]
        for t_dc in (5, 3, 1):
            table = overhead_table(counts, TimeParameters(t_dc=t_dc))
            lines.append(
                f"  t_dc={t_dc}: WRITE = {table['WRITE'][0] / 1e6:.1f}M "
                f"cycles ({table['WRITE'][1]:.2f}x MIN)"
            )
        return "\n".join(lines)

    text = once(benchmark, sweep)
    record_result("table_3_4_tdc_sensitivity", text)
