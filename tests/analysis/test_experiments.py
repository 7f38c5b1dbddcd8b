"""Tests for the per-table experiment drivers (miniature runs)."""

import pytest

from repro.analysis.experiments import (
    Table35Row,
    build_table_3_4,
    run_table_3_3,
    run_table_3_5,
    run_table_4_1,
)
from repro.workloads.devsystems import DEV_SYSTEM_PROFILES

#: Small enough to keep the whole module under a few seconds.
SCALE = 0.01
CAP = 30_000


class TestTable33Driver:
    def test_produces_all_six_points(self):
        rows, table = run_table_3_3(length_scale=SCALE,
                                    max_references=CAP)
        assert len(rows) == 6
        assert {(r.workload, r.memory_mb) for r in rows} == {
            (w, m) for w in ("SLC", "WORKLOAD1") for m in (5, 6, 8)
        }
        assert "Table 3.3" in table.render()

    def test_counts_internally_consistent(self):
        rows, _ = run_table_3_3(length_scale=SCALE,
                                max_references=CAP)
        for row in rows:
            assert row.counts.n_zfod <= row.counts.n_ds
            assert row.references > 0
            assert row.elapsed_seconds > 0


class TestTable34Driver:
    def test_paper_counts_variant(self):
        results, table = build_table_3_4()
        assert ("SLC", 5) in results
        assert "paper Table 3.3 counts" in table.render()

    def test_measured_counts_variant(self):
        rows, _ = run_table_3_3(length_scale=SCALE,
                                max_references=CAP)
        results, table = build_table_3_4(rows)
        assert len(results) == 6
        for overheads in results.values():
            if overheads["MIN"][0] == 0:
                # A capped miniature run can see zero intrinsic
                # faults; ratios are undefined there.
                continue
            assert overheads["MIN"][1] == pytest.approx(1.0)
            assert overheads["FLUSH"][1] == pytest.approx(1.5)

    def test_zero_fill_inclusion_raises_min(self):
        with_z, _ = build_table_3_4(exclude_zero_fill=False)
        without_z, _ = build_table_3_4(exclude_zero_fill=True)
        for key in with_z:
            assert with_z[key]["MIN"][0] > without_z[key]["MIN"][0]


class TestTable35Driver:
    def test_single_profile_run(self):
        rows, table = run_table_3_5(
            length_scale=SCALE, profiles=DEV_SYSTEM_PROFILES[:1],
            max_references=CAP,
        )
        assert len(rows) == 1
        assert rows[0].hostname == "mace"
        assert "Table 3.5" in table.render()


class TestTable35Accounting:
    def test_percent_not_modified(self):
        row = Table35Row("h", 8, 1, page_ins=0, potentially_modified=100,
                         not_modified=18)
        assert row.percent_not_modified == pytest.approx(18.0)

    def test_percent_not_modified_empty(self):
        assert Table35Row("h", 8, 1, 0, 0, 0).percent_not_modified == 0.0

    def test_percent_additional_io_matches_paper_formula(self):
        # mace row of Table 3.5: 15203 page-ins, 2681 potentially
        # modified, 488 not modified -> 2193 actual page-outs ->
        # 488 / (15203 + 2193) = 2.8%.
        row = Table35Row("mace", 16, 1, page_ins=15203,
                         potentially_modified=2681, not_modified=488)
        assert row.percent_additional_io == pytest.approx(2.8, abs=0.05)

    def test_percent_additional_io_no_io(self):
        assert Table35Row("h", 8, 1, 0, 0, 0).percent_additional_io == 0.0


class TestTable41Driver:
    def test_matrix_shape(self):
        rows, table = run_table_4_1(
            length_scale=SCALE, repetitions=1, max_references=CAP,
        )
        assert len(rows) == 18  # 2 workloads x 3 memories x 3 policies
        miss_rows = [r for r in rows if r.policy == "MISS"]
        for row in miss_rows:
            assert row.page_ins_pct == pytest.approx(100.0)
        assert "Table 4.1" in table.render()
