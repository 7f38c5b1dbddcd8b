#!/usr/bin/env python3
"""The Section 3 dirty-bit study, end to end, in miniature.

Reproduces the paper's methodology on shortened workloads:

1. measure the Table 3.3 event frequencies with the performance
   counters (one run per workload/memory point, SPUR mechanism);
2. feed the measured counts through the Section 3.2 analytic models
   to produce a Table 3.4-style overhead comparison;
3. fit the footnote-3 geometric model to the measured block counts
   and compare its prediction with the measured excess-fault rate.

For the full-length regeneration with paper-vs-measured output and
the shape targets checked, run ``python -m repro campaign`` and read
its ``REPRODUCTION_REPORT.md``.

Run:
    python examples/dirty_bit_study.py [length_scale]
"""

import sys

from repro.analysis.experiments import build_table_3_4, run_table_3_3
from repro.policies.model import ExcessFaultModel


def main():
    length_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2

    print(f"measuring event frequencies (length_scale="
          f"{length_scale}) ...\n")
    rows, table = run_table_3_3(length_scale=length_scale)
    print(table.render())

    print("\napplying the Section 3.2 cost models ...\n")
    _, overhead_tbl = build_table_3_4(rows)
    print(overhead_tbl.render())

    print("\nfootnote-3 geometric model on the measured counts:")
    for row in rows:
        counts = row.counts
        if counts.n_w_miss == 0 or counts.n_ds == counts.n_zfod:
            continue
        model = ExcessFaultModel.from_counts(
            counts.n_w_hit, counts.n_w_miss
        )
        measured = counts.excess_fault_fraction_excluding_zfod
        print(f"  {row.workload:>10} @ {row.memory_mb} MB-eq: "
              f"p_w={model.p_w:.2f}, "
              f"predicted N_ef/N_ds={model.predicted_excess_fraction():.2f}, "
              f"measured={measured:.2f}")


if __name__ == "__main__":
    main()
