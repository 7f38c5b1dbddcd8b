"""Resume through ``execute_cells``: cache first, journal second, then run.

The headline guarantees under test:

* cells resolve from the result cache first, then from the journal's
  embedded payloads (healing the cache); everything else is pending,
  and only pending cells are simulated;
* a finished cell is stored, then journaled, then announced — so by
  the time a ``cell_finished`` event is visible, the cell is durable;
* a SIGKILLed campaign's journal and cache hold every completed cell,
  and resuming recomputes **zero** of them (proved by cache-hit
  counters) while merging bit-identically with the remainder;
* a journal with corrupted or torn records degrades gracefully —
  damaged cells recompute, intact cells still resume.

Recomputation is tracked with a ``simulate_cell`` spy on the serial
route and with ``campaign_started.pending`` on the pool route.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.machine.config import scaled_config
from repro.observe.progress import CampaignProgress
from repro.observe.sinks import MemorySink
from repro.parallel import (
    CampaignJournal,
    ResultCache,
    RunCell,
    cell_key,
    execute_cells,
    read_journal,
)
from repro.parallel import executor
from repro.parallel.cache import result_to_payload
from repro.workloads.slc import SlcWorkload

from tests.parallel._campaign_script import campaign_cells
from tests.parallel.test_cache import damaged_payload

SCRIPT = os.path.join(os.path.dirname(__file__), "_campaign_script.py")
TINY_SCALE = 0.003
MAX_REFS = 2000


def make_cells(seeds=(0, 1, 2, 3), memory_ratio=40):
    """A tiny, fully cacheable campaign grid (one cell per seed)."""
    return [
        RunCell(
            scaled_config(memory_ratio=memory_ratio),
            SlcWorkload(length_scale=TINY_SCALE),
            seed=seed,
            max_references=MAX_REFS,
            label=f"slc-{memory_ratio}-s{seed}",
        )
        for seed in seeds
    ]


@pytest.fixture(scope="module")
def tiny_cells():
    """Four tiny cells, shared (read-only) across the module."""
    return make_cells()


@pytest.fixture(scope="module")
def tiny_results(tiny_cells):
    """The tiny grid's results, computed once per module."""
    return execute_cells(tiny_cells)


@pytest.fixture
def simulated(monkeypatch):
    """Labels of the cells the serial route simulates, in order."""
    labels = []
    original = executor.simulate_cell

    def spy(cell):
        labels.append(cell.label)
        return original(cell)

    monkeypatch.setattr(executor, "simulate_cell", spy)
    return labels


def journal_with(path, cells, results, indices):
    """A journal holding ``cell_done`` records for *indices*."""
    journal = CampaignJournal(path, fsync=False)
    for index in indices:
        journal.cell_done(index, cell_key(cells[index]),
                          cells[index].label,
                          result_to_payload(results[index]))
    journal.close()
    return journal


def started(sink):
    (event,) = sink.of_type("campaign_started")
    return event


class TestResolve:
    def test_all_pending_when_cold(self, tiny_cells, tiny_results,
                                   simulated):
        sink = MemorySink()
        assert execute_cells(tiny_cells, sink=sink) == tiny_results
        event = started(sink)
        assert event["pending"] == len(tiny_cells)
        assert event["cached"] == event["resumed"] == 0
        assert simulated == [cell.label for cell in tiny_cells]

    def test_cache_hits_resolve_first(self, tmp_path, tiny_cells,
                                      tiny_results, simulated):
        cache = ResultCache(tmp_path)
        cache.put(cell_key(tiny_cells[1]), tiny_results[1])
        sink = MemorySink()
        assert execute_cells(tiny_cells, cache=cache,
                             sink=sink) == tiny_results
        assert started(sink)["cached"] == 1
        assert [e["cell"] for e in sink.of_type("cell_cached")] == [1]
        assert simulated == [tiny_cells[i].label for i in (0, 2, 3)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_journal_payloads_resume_without_cache(
            self, tmp_path, tiny_cells, tiny_results, workers):
        journal = journal_with(tmp_path / "j.jsonl", tiny_cells,
                               tiny_results, [2])
        sink = MemorySink()
        results = execute_cells(tiny_cells, workers=workers,
                                journal=journal, sink=sink)
        assert results == tiny_results
        event = started(sink)
        assert event["resumed"] == 1
        assert event["pending"] == 3
        assert [e["cell"] for e in sink.of_type("cell_resumed")] == [2]

    def test_journal_resume_heals_the_cache(self, tmp_path, tiny_cells,
                                            tiny_results):
        cells = tiny_cells[:1]
        journal = journal_with(tmp_path / "j.jsonl", cells,
                               tiny_results, [0])
        cache = ResultCache(tmp_path / "cache")
        sink = MemorySink()
        execute_cells(cells, cache=cache, journal=journal, sink=sink)
        assert started(sink)["resumed"] == 1
        assert cache.stores == 1
        # A later campaign hits the healed cache; the journal record
        # is no longer needed.
        sink = MemorySink()
        execute_cells(cells, cache=cache, sink=sink)
        assert started(sink)["cached"] == 1
        assert started(sink)["resumed"] == 0

    def test_cache_preferred_over_journal(self, tmp_path, tiny_cells,
                                          tiny_results):
        cells = tiny_cells[:1]
        journal = journal_with(tmp_path / "j.jsonl", cells,
                               tiny_results, [0])
        cache = ResultCache(tmp_path / "cache")
        cache.put(cell_key(cells[0]), tiny_results[0])
        sink = MemorySink()
        execute_cells(cells, cache=cache, journal=journal, sink=sink)
        assert started(sink)["cached"] == 1
        assert started(sink)["resumed"] == 0

    def test_undecodable_journal_payload_stays_pending(
            self, tmp_path, tiny_cells, tiny_results, simulated):
        cells = tiny_cells[:1]
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.cell_done(0, cell_key(cells[0]), "x",
                          {"format": 1, "not": "a result"})
        journal.close()
        sink = MemorySink()
        assert execute_cells(cells, journal=journal,
                             sink=sink) == tiny_results[:1]
        assert started(sink)["pending"] == 1
        assert simulated == [cells[0].label]

    @pytest.mark.parametrize("damage", [
        "missing-field", "unknown-event", "events-not-a-mapping",
        "other-format",
    ])
    def test_stale_or_damaged_payload_is_recomputed(
            self, tmp_path, tiny_cells, tiny_results, simulated, damage):
        # A payload from another cache format, or one that no longer
        # decodes, is never resumed: its cell runs again.
        cells = tiny_cells[:1]
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.cell_done(0, cell_key(cells[0]), cells[0].label,
                          damaged_payload(
                              result_to_payload(tiny_results[0]), damage
                          ))
        journal.close()
        sink = MemorySink()
        assert execute_cells(cells, journal=journal,
                             sink=sink) == tiny_results[:1]
        assert started(sink)["resumed"] == 0
        assert simulated == [cells[0].label]

    def test_unkeyable_cell_is_always_pending(self, tmp_path,
                                              simulated):
        class Opaque:
            pass

        cells = make_cells(seeds=(0,))
        cells[0].workload.helper = Opaque()
        cache = ResultCache(tmp_path / "cache")
        journal = tmp_path / "j.jsonl"
        for _ in range(2):
            sink = MemorySink()
            execute_cells(cells, cache=cache, journal=journal,
                          sink=sink)
            assert started(sink)["pending"] == 1
        assert cache.stores == 0
        assert simulated == [cells[0].label] * 2

    def test_plain_run_computes_no_keys(self, tiny_cells, monkeypatch):
        # Without a cache or a journal there is nothing to resolve
        # against, so the orchestrator does no hashing.
        def refuse(cell):
            raise AssertionError("cell_key called on a plain run")

        monkeypatch.setattr(executor, "cell_key", refuse)
        execute_cells(tiny_cells[:1])


class TestResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_journal_resume_skips_every_completed_cell(
            self, tmp_path, tiny_cells, tiny_results, workers):
        journal = tmp_path / "j.jsonl"
        assert execute_cells(tiny_cells, workers=workers,
                             journal=journal) == tiny_results
        sink = MemorySink()
        progress = CampaignProgress(stream=io.StringIO())
        assert execute_cells(tiny_cells, workers=workers,
                             journal=journal, sink=sink,
                             progress=progress) == tiny_results
        event = started(sink)
        assert event["resumed"] == len(tiny_cells)
        assert event["pending"] == 0
        assert len(sink.of_type("cell_resumed")) == len(tiny_cells)
        assert sink.of_type("worker_pool_started") == []
        assert progress.resumed == len(tiny_cells)
        assert progress.computed == 0

    def test_warm_cache_simulates_nothing(self, tmp_path, tiny_cells,
                                          tiny_results, simulated):
        cache = ResultCache(tmp_path)
        execute_cells(tiny_cells, cache=cache)
        del simulated[:]
        sink = MemorySink()
        progress = CampaignProgress(stream=io.StringIO())
        results = execute_cells(tiny_cells, cache=cache, sink=sink,
                                progress=progress)
        assert results == tiny_results
        assert simulated == []
        assert len(sink.of_type("cell_cached")) == len(tiny_cells)
        assert progress.cached == len(tiny_cells)
        assert progress.computed == 0
        assert progress.done == len(tiny_cells)


class TestEveryRoute:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stores", ["none", "cache", "journal",
                                        "both"])
    def test_same_results_and_a_rerun_resolves_everything(
            self, tmp_path, tiny_cells, tiny_results, workers, stores):
        def run():
            kwargs = {}
            if stores in ("cache", "both"):
                kwargs["cache"] = ResultCache(tmp_path / "cache")
            if stores in ("journal", "both"):
                kwargs["journal"] = tmp_path / "j.jsonl"
            sink = MemorySink()
            results = execute_cells(tiny_cells, workers=workers,
                                    sink=sink, **kwargs)
            assert results == tiny_results
            return started(sink)

        assert run()["pending"] == len(tiny_cells)
        again = run()
        cells = len(tiny_cells)
        assert again["workers"] == workers
        assert again["cached"] == (cells if stores in ("cache", "both")
                                   else 0)
        assert again["resumed"] == (cells if stores == "journal" else 0)
        assert again["pending"] == (cells if stores == "none" else 0)


class TestOrder:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_are_durable_before_events_fire(self, tmp_path,
                                                  tiny_cells, workers):
        journal = tmp_path / "j.jsonl"
        cache = ResultCache(tmp_path / "cache")
        seen = []

        class Watcher:
            def emit(self, event):
                if event.get("type") == "cell_finished":
                    seen.append((len(cache),
                                 read_journal(journal).completed))

        execute_cells(tiny_cells, workers=workers, cache=cache,
                      journal=journal, sink=Watcher())
        # By the time each cell_finished event is visible, that cell
        # is already in the cache and the journal: 1, 2, 3, 4.
        counts = list(range(1, len(tiny_cells) + 1))
        assert seen == list(zip(counts, counts))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_vocabulary_of_a_clean_run(self, tmp_path, tiny_cells,
                                       workers):
        sink = MemorySink()
        execute_cells(tiny_cells, workers=workers,
                      cache=ResultCache(tmp_path), sink=sink)
        assert started(sink) == {
            "type": "campaign_started",
            "cells": len(tiny_cells),
            "cached": 0,
            "resumed": 0,
            "pending": len(tiny_cells),
            "workers": workers,
            "ts": started(sink)["ts"],
        }
        pool_events = (1 if workers > 1 else 0)
        assert len(sink.of_type("worker_pool_started")) == pool_events
        assert len(sink.of_type("worker_pool_finished")) == pool_events
        assert len(sink.of_type("cell_finished")) == len(tiny_cells)
        assert len(sink.of_type("run_finished")) == len(tiny_cells)
        (finished,) = sink.of_type("campaign_finished")
        assert {key: finished[key] for key in (
            "cells", "cached", "resumed", "computed", "failed"
        )} == {"cells": len(tiny_cells), "cached": 0, "resumed": 0,
               "computed": len(tiny_cells), "failed": 0}
        assert all("ts" in event for event in sink.events)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_journal_records_plan_then_cells(self, tmp_path,
                                             tiny_cells, workers):
        journal = tmp_path / "j.jsonl"
        execute_cells(tiny_cells, workers=workers, journal=journal)
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        assert [r["type"] for r in records] == (
            ["campaign_planned"] + ["cell_done"] * len(tiny_cells)
        )
        assert records[0]["keys"] == [cell_key(c) for c in tiny_cells]
        indices = [r["index"] for r in records[1:]]
        if workers > 1:
            # Pool workers finish in any order; each cell lands once.
            indices.sort()
        assert indices == list(range(len(tiny_cells)))


def script_env():
    """Make the subprocess import the same ``repro`` this test runs."""
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


def wait_for_completed(journal_path, minimum, timeout=120.0):
    """Poll the journal until *minimum* cells are durably recorded."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        completed = read_journal(journal_path).completed
        if completed >= minimum:
            return completed
        time.sleep(0.05)
    raise AssertionError(
        f"journal never reached {minimum} completed cells"
    )


@pytest.fixture(scope="module")
def uninterrupted_results():
    """The grid's results from a run that was never interrupted."""
    return execute_cells(campaign_cells())


class TestKillMinusNineResume:
    def test_zero_recomputation_and_bit_identical_merge(
            self, tmp_path, uninterrupted_results):
        cells = campaign_cells()
        journal = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        stderr_path = tmp_path / "campaign.stderr"
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            proc = subprocess.Popen(
                [sys.executable, SCRIPT,
                 "--journal", str(journal),
                 "--cache-dir", str(cache_dir),
                 "--delay", "0.3"],
                env=script_env(),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        try:
            wait_for_completed(journal, 3)
        except BaseException:
            proc.kill()
            proc.wait(timeout=30)
            raise AssertionError(
                "campaign subprocess made no progress; stderr:\n"
                + stderr_path.read_text()
            )
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        # The campaign really was interrupted mid-flight.
        completed_before = read_journal(journal).completed
        assert 0 < completed_before < len(cells)

        cache = ResultCache(cache_dir)
        results = execute_cells(cells, cache=cache, journal=journal)

        # Zero recomputation: every cell the killed run finished came
        # back as a cache hit, and only the remainder was computed
        # (and stored).  The cache may be one cell ahead of the
        # journal if the kill landed between the store and the append.
        assert cache.hits >= completed_before
        assert cache.hits < len(cells)
        assert cache.stores == len(cells) - cache.hits

        # Bit-identical merge of resumed + freshly computed cells.
        assert results == uninterrupted_results

        # The journal now holds the whole campaign.
        assert read_journal(journal).completed == len(cells)

    def test_second_resume_recomputes_nothing_at_all(
            self, tmp_path, uninterrupted_results):
        cells = campaign_cells()
        journal = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        execute_cells(cells, cache=ResultCache(cache_dir),
                      journal=journal)
        again = ResultCache(cache_dir)
        results = execute_cells(cells, cache=again, journal=journal)
        assert again.hits == len(cells)
        assert again.stores == 0
        assert results == uninterrupted_results


class TestDamagedJournalRecovery:
    def test_corrupt_and_torn_records_recompute_only_their_cells(
            self, tmp_path, uninterrupted_results, simulated):
        cells = campaign_cells()
        journal = tmp_path / "journal.jsonl"
        execute_cells(cells, journal=journal)

        # Damage the journal: corrupt cell 1's record in place and
        # tear the final record (cell N-1) mid-line.
        lines = journal.read_text().splitlines()
        damaged = []
        for line in lines[:-1]:
            record = json.loads(line)
            if (record.get("type") == "cell_done"
                    and record.get("index") == 1):
                damaged.append(line[: len(line) // 2])
            else:
                damaged.append(line)
        torn = lines[-1][: len(lines[-1]) // 2]
        journal.write_text("\n".join(damaged) + "\n" + torn)

        replay = read_journal(journal)
        assert replay.corrupt_records >= 1
        assert replay.torn_tail
        assert replay.completed == len(cells) - 2

        del simulated[:]
        results = execute_cells(cells, journal=journal)
        # Only the two damaged cells were recomputed.
        assert simulated == [cells[1].label, cells[-1].label]
        assert results == uninterrupted_results
