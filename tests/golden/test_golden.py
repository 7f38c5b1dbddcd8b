"""Every execution mode reproduces the committed golden results.

The other bit-identity tests compare two live modes with each other;
these compare each mode with ``golden.json``, so a change that shifts
every mode the same way fails here.  The ``scalar-oracle`` mode sends
every run through the frozen per-tuple loop of ``tests/oracle.py``
instead of the chunk engine.  Serial runs all three tables;
the other modes run the Table 4.1 grid only (18 cells, paging out) to
keep the cost down.  The journal modes resume an interrupted Table 4.1
campaign, serially and on a pool.  Regenerate the file only with
``python tests/golden/regen.py``.
"""

import pytest

from repro.machine.simulator import SpurMachine
from repro.observe.sinks import MemorySink
from repro.options import RunOptions
from repro.parallel import ResultCache
from tests.golden.regen import TABLES, load_golden, run_table
from tests.oracle import scalar_run_chunks

#: ``cell_done`` records the interrupted journal keeps (of 18).
KEPT_CELLS = 7


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


@pytest.mark.parametrize("options,scalar", [
    (RunOptions(workers=2), False),
    (RunOptions(), True),
    (RunOptions(sanitize="sampled"), False),
    (RunOptions(observe=True), False),
], ids=["workers2", "scalar-oracle", "sanitized", "observed"])
def test_mode_matches_golden(golden, options, scalar, monkeypatch):
    if scalar:
        monkeypatch.setattr(SpurMachine, "run_chunks", scalar_run_chunks)
    assert_matches(run_table("4.1", options), golden["4.1"])



@pytest.fixture(scope="module")
def interrupted_journal(tmp_path_factory):
    """A Table 4.1 journal cut back as a kill would leave it.

    It keeps the plan and the first :data:`KEPT_CELLS` ``cell_done``
    records, then half of the next record with no newline: the torn
    tail of a kill mid-append.
    """
    path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
    run_table("4.1", RunOptions(journal=str(path)))
    kept = []
    done = 0
    for line in path.read_text().splitlines(keepends=True):
        if '"type":"cell_done"' in line:
            if done == KEPT_CELLS:
                kept.append(line[: len(line) // 2])
                break
            done += 1
        kept.append(line)
    return "".join(kept)


@pytest.mark.parametrize("workers,cached", [
    (1, False), (2, False), (1, True),
], ids=["serial", "workers2", "serial-cached"])
def test_resumed_journal_matches_golden(golden, interrupted_journal,
                                        tmp_path, workers, cached):
    path = tmp_path / "journal.jsonl"
    path.write_text(interrupted_journal)
    cache_dir = str(tmp_path / "cache") if cached else None
    sink = MemorySink()
    records = run_table("4.1", RunOptions(
        workers=workers, journal=str(path), cache_dir=cache_dir,
        trace_sink=sink,
    ))
    assert_matches(records, golden["4.1"])
    (started,) = sink.of_type("campaign_started")
    assert started["resumed"] == KEPT_CELLS
    assert started["pending"] == 18 - KEPT_CELLS
    if cached:
        # Resumed cells heal the cache; computed cells are stored.
        assert len(ResultCache(cache_dir)) == 18
