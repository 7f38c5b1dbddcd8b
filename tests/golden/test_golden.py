"""Every execution mode reproduces the committed golden results.

The other bit-identity tests compare two live modes with each other;
these compare each mode with ``golden.json``, so a change that shifts
every mode the same way fails here.  The ``scalar-oracle`` mode sends
every run through the frozen per-tuple loop of ``tests/oracle.py``
instead of the chunk engine.  Serial runs all three tables;
the other modes run the Table 4.1 grid only (18 cells, paging out) to
keep the cost down.  The resumed modes finish a Table 4.1 campaign
from the result cache a kill left behind, serially and on a pool.
Regenerate the file only with ``python tests/golden/regen.py``.
"""

import shutil

import pytest

from repro.machine.simulator import SpurMachine
from repro.observe.sinks import MemorySink
from repro.options import RunOptions
from repro.parallel import ResultCache
from tests.golden.regen import TABLES, load_golden, run_table
from tests.oracle import scalar_run_chunks

#: Intact cache entries the interrupted campaign keeps (of 18).
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
def interrupted_cache(tmp_path_factory):
    """A Table 4.1 result cache cut back as a kill would leave it.

    It keeps :data:`KEPT_CELLS` intact entries and half the bytes of
    one more; the remaining cells are gone, one of them leaving a
    complete ``*.json.tmp<pid>`` file that was never renamed into
    place.  Returns the cache directory and the truncated entry's
    path relative to it.
    """
    root = tmp_path_factory.mktemp("cache")
    run_table("4.1", RunOptions(cache_dir=str(root)))
    entries = sorted(root.glob("??/*.json"))
    assert len(entries) == 18
    truncated, stray = entries[KEPT_CELLS:KEPT_CELLS + 2]
    payload = truncated.read_bytes()
    truncated.write_bytes(payload[: len(payload) // 2])
    stray.rename(stray.with_name(stray.name + ".tmp4242"))
    for entry in entries[KEPT_CELLS + 2:]:
        entry.unlink()
    return root, truncated.relative_to(root)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
def test_resumed_cache_matches_golden(golden, interrupted_cache,
                                      tmp_path, workers):
    template, truncated = interrupted_cache
    cache_dir = tmp_path / "cache"
    shutil.copytree(template, cache_dir)
    sink = MemorySink()
    records = run_table("4.1", RunOptions(
        workers=workers, cache_dir=str(cache_dir), trace_sink=sink,
    ))
    assert_matches(records, golden["4.1"])
    (started,) = sink.of_type("campaign_started")
    assert started["cached"] == KEPT_CELLS
    assert started["pending"] == 18 - KEPT_CELLS
    # The truncated entry was recomputed and rewritten whole, and
    # the stray temp file never counted as an entry.
    cache = ResultCache(cache_dir)
    assert len(cache) == 18
    assert cache.get(truncated.stem) is not None
