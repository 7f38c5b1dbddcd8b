"""Every execution mode reproduces the committed golden results.

The other bit-identity tests compare two live modes with each other;
these compare each mode with ``golden.json``, so a change that shifts
every mode the same way fails here.  Serial runs all three tables;
the other modes run the Table 4.1 grid only (18 cells, paging out) to
keep the cost down.  Regenerate the file only with
``python tests/golden/regen.py``.
"""

import pytest

from repro.options import RunOptions
from tests.golden.regen import TABLES, load_golden, run_table


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def assert_matches(records, expected):
    assert sorted(records) == sorted(expected)
    for label, record in expected.items():
        assert records[label] == record, label


@pytest.mark.parametrize("table", TABLES)
def test_serial_matches_golden(golden, table):
    assert_matches(run_table(table), golden[table])


@pytest.mark.parametrize("options", [
    RunOptions(workers=2),
    RunOptions(chunk_refs=0),
    RunOptions(sanitize="sampled"),
    RunOptions(observe=True),
], ids=["workers2", "tuple-stream", "sanitized", "observed"])
def test_mode_matches_golden(golden, options):
    assert_matches(run_table("4.1", options), golden["4.1"])

