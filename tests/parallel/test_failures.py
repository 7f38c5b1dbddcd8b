"""Graceful campaign degradation: failures never abort the campaign.

The failing cell is a RecordedWorkload whose trace file is deleted
after construction — a realistic mid-campaign failure (missing input)
that also pickles cleanly into worker processes.  An interrupted run
(``KeyboardInterrupt``) does abort, but keeps every cell it finished.
"""

import io
import json
import os

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.observe.progress import CampaignProgress
from repro.observe.sinks import MemorySink
from repro.options import RunOptions
from repro.parallel import executor
from repro.parallel.cache import (
    ResultCache,
    cell_key,
    result_to_payload,
)
from repro.parallel.executor import (
    CampaignError,
    CellFailure,
    RunCell,
    execute_cells,
)
from repro.parallel.journal import CampaignJournal, read_journal
from repro.workloads.recorded import RecordedWorkload, record_workload
from repro.workloads.slc import SlcWorkload

CONFIG = scaled_config(memory_ratio=24, scale=8)
MAX_REFS = 1500


@pytest.fixture
def broken_workload(tmp_path):
    """A workload whose backing trace vanishes before the run."""
    path = tmp_path / "vanishing.bin"
    record_workload(SlcWorkload(length_scale=0.01),
                    CONFIG.page_bytes, path, seed=5,
                    max_references=500)
    workload = RecordedWorkload(str(path))
    os.unlink(path)
    return workload


def make_cells(broken, broken_at=1):
    cells = [
        RunCell(config=CONFIG,
                workload=SlcWorkload(length_scale=0.01),
                seed=seed, max_references=MAX_REFS,
                label=f"good{seed}")
        for seed in (1, 2)
    ]
    cells.insert(broken_at, RunCell(
        config=CONFIG, workload=broken, seed=9,
        max_references=MAX_REFS, label="doomed",
    ))
    return cells


class TestSerialFailures:
    def test_remaining_cells_still_complete(self, broken_workload):
        cells = make_cells(broken_workload)
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells)

        error = excinfo.value
        assert [bool(result) for result in error.results] == [
            True, False, True,
        ]
        assert error.results[0].references > 0
        assert error.results[2].references > 0

    def test_failure_names_the_cell(self, broken_workload):
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(make_cells(broken_workload))

        (failure,) = excinfo.value.failures
        assert isinstance(failure, CellFailure)
        assert failure.index == 1
        assert failure.label == "doomed"
        assert failure.seed == 9
        assert failure.workload == "RecordedWorkload"
        assert "doomed" in failure.describe()
        assert "seed=9" in failure.describe()
        assert "doomed" in str(excinfo.value)

    def test_failed_cells_emit_trace_events(self, broken_workload):
        sink = MemorySink()
        with pytest.raises(CampaignError):
            execute_cells(make_cells(broken_workload), sink=sink)

        (failed,) = sink.of_type("cell_failed")
        assert failed["label"] == "doomed"
        assert "FileNotFoundError" in failed["error"]
        finished = sink.of_type("campaign_finished")
        assert finished[0]["failed"] == 1

    def test_successes_are_cached_despite_failure(
        self, broken_workload, tmp_path
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(make_cells(broken_workload), cache=cache)
        first = excinfo.value.results

        # Re-running only the good cells is pure cache traffic.
        sink = MemorySink()
        good = [cell for cell in make_cells(broken_workload)
                if cell.label != "doomed"]
        again = execute_cells(good, cache=cache, sink=sink)
        assert again == [first[0], first[2]]
        assert len(sink.of_type("cell_cached")) == 2

    def test_multiple_failures_all_reported(self, broken_workload):
        cells = [
            RunCell(config=CONFIG, workload=broken_workload,
                    seed=seed, max_references=MAX_REFS,
                    label=f"doomed{seed}")
            for seed in (1, 2, 3, 4)
        ]
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells)
        error = excinfo.value
        assert [f.index for f in error.failures] == [0, 1, 2, 3]
        assert "4 of 4 campaign cells failed" in str(error)
        assert "(4 failures total)" in str(error)


class TestPooledFailures:
    def test_pool_survives_worker_failure(self, broken_workload):
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(make_cells(broken_workload), workers=2)

        error = excinfo.value
        assert [bool(result) for result in error.results] == [
            True, False, True,
        ]
        (failure,) = error.failures
        assert failure.label == "doomed"
        assert "FileNotFoundError" in failure.error

    def test_pool_matches_serial_results(self, broken_workload):
        with pytest.raises(CampaignError) as serial:
            execute_cells(make_cells(broken_workload))
        with pytest.raises(CampaignError) as pooled:
            execute_cells(make_cells(broken_workload), workers=2)

        assert pooled.value.results[0] == serial.value.results[0]
        assert pooled.value.results[2] == serial.value.results[2]


    def test_pool_successes_are_cached_despite_failure(
        self, broken_workload, tmp_path
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(make_cells(broken_workload), workers=2,
                          cache=cache)
        assert cache.stores == 2
        good = [cell for cell in make_cells(broken_workload)
                if cell.label != "doomed"]
        again = ResultCache(str(tmp_path / "cache"))
        results = execute_cells(good, workers=2, cache=again)
        assert again.hits == 2
        assert results == [excinfo.value.results[0],
                           excinfo.value.results[2]]

    def test_pool_reports_every_failure_in_cell_order(
        self, broken_workload
    ):
        cells = [
            RunCell(config=CONFIG, workload=broken_workload,
                    seed=seed, max_references=MAX_REFS,
                    label=f"doomed{seed}")
            for seed in (1, 2, 3, 4)
        ]
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells, workers=2)
        error = excinfo.value
        assert [f.index for f in error.failures] == [0, 1, 2, 3]
        assert [f.label for f in error.failures] == [
            "doomed1", "doomed2", "doomed3", "doomed4",
        ]
        assert error.results == [None] * 4


class TestRunnerSurface:
    def test_run_many_raises_campaign_error(self, broken_workload):
        # Any campaign feature (sink, progress, cache, workers > 1)
        # routes run_many through execute_cells and its graceful
        # failure handling.
        runner = ExperimentRunner(options=RunOptions(
            trace_sink=MemorySink(),
        ))
        with pytest.raises(CampaignError) as excinfo:
            runner.run_many(
                [
                    (CONFIG, SlcWorkload(length_scale=0.01), 1,
                     MAX_REFS),
                    (CONFIG, broken_workload, 9, MAX_REFS),
                ],
                labels=["good", "doomed"],
            )
        (failure,) = excinfo.value.failures
        assert failure.label == "doomed"
        assert excinfo.value.results[0].references > 0

    def test_serial_uncached_run_many_raises_campaign_error(
        self, broken_workload
    ):
        # Every route goes through execute_cells, so even a plain
        # serial run wraps a cell's exception in a CampaignError.
        with pytest.raises(CampaignError) as excinfo:
            ExperimentRunner().run_many([
                (CONFIG, broken_workload, 9, MAX_REFS),
            ])
        (failure,) = excinfo.value.failures
        assert failure.error.startswith("FileNotFoundError")


class TestJournaledFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cell_is_journaled_and_rerun(self, broken_workload,
                                                tmp_path, workers):
        journal = tmp_path / "j.jsonl"
        cells = make_cells(broken_workload)
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells, workers=workers, journal=journal)
        first = excinfo.value.results
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        (failed,) = [r for r in records if r["type"] == "cell_failed"]
        assert failed["label"] == "doomed"
        assert failed["error"].startswith("FileNotFoundError")
        assert read_journal(journal).completed == 2

        # A re-run resumes the good cells and tries only the failed one.
        sink = MemorySink()
        with pytest.raises(CampaignError) as again:
            execute_cells(cells, workers=workers, journal=journal,
                          sink=sink)
        (started,) = sink.of_type("campaign_started")
        assert started["resumed"] == 2
        assert started["pending"] == 1
        assert again.value.results == first


    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_run_accounting(self, broken_workload, tmp_path,
                                  workers):
        # One cell of each fate: cached, failed, resumed, computed.
        cells = make_cells(broken_workload)
        cells.append(RunCell(config=CONFIG,
                             workload=SlcWorkload(length_scale=0.01),
                             seed=3, max_references=MAX_REFS,
                             label="good3"))
        reference = execute_cells([cells[0], cells[2], cells[3]])
        ResultCache(str(tmp_path / "cache")).put(cell_key(cells[0]),
                                                 reference[0])
        cache = ResultCache(str(tmp_path / "cache"))
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.cell_done(2, cell_key(cells[2]), cells[2].label,
                          result_to_payload(reference[1]))
        journal.close()

        sink = MemorySink()
        progress = CampaignProgress(stream=io.StringIO())
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells, workers=workers, cache=cache,
                          journal=journal, sink=sink,
                          progress=progress)
        assert excinfo.value.results == [
            reference[0], None, reference[1], reference[2],
        ]
        (started,) = sink.of_type("campaign_started")
        assert {key: started[key] for key in (
            "cells", "cached", "resumed", "pending", "workers"
        )} == {"cells": 4, "cached": 1, "resumed": 1, "pending": 2,
               "workers": workers}
        (finished,) = sink.of_type("campaign_finished")
        assert {key: finished[key] for key in (
            "cells", "cached", "resumed", "computed", "failed"
        )} == {"cells": 4, "cached": 1, "resumed": 1, "computed": 1,
               "failed": 1}
        assert [e["cell"] for e in sink.of_type("cell_cached")] == [0]
        assert [e["cell"] for e in sink.of_type("cell_resumed")] == [2]
        assert [e["cell"] for e in sink.of_type("cell_failed")] == [1]
        assert [e["cell"] for e in sink.of_type("cell_finished")] == [3]
        assert (progress.done, progress.cached, progress.resumed,
                progress.computed, progress.failed) == (4, 1, 1, 1, 1)
        # The resumed cell healed the cache; the computed one joined it.
        assert cache.stores == 2
        # The journal gained the computed cell; the resumed one was
        # already on record.
        assert read_journal(journal.path).completed == 2


class InterruptingWorkload(SlcWorkload):
    """An SLC recipe whose runs are interrupted while ``armed`` is set.

    ``armed`` is a class attribute, so it stays out of the cache key.
    """

    armed = False

    def instantiate(self, page_bytes, seed=0):
        if InterruptingWorkload.armed:
            raise KeyboardInterrupt
        return super().instantiate(page_bytes, seed=seed)


class TestInterruptedRun:
    @pytest.mark.parametrize("store", ["cache", "journal"])
    def test_cells_finished_before_an_interrupt_survive(
        self, tmp_path, monkeypatch, store
    ):
        cells = [
            RunCell(config=CONFIG, workload=workload_cls(0.01),
                    seed=seed, max_references=MAX_REFS,
                    label=f"cell{seed}")
            for seed, workload_cls in enumerate((
                SlcWorkload, SlcWorkload, InterruptingWorkload,
                SlcWorkload,
            ))
        ]
        journal = tmp_path / "j.jsonl"

        def stores():
            if store == "cache":
                return {"cache": ResultCache(str(tmp_path / "cache"))}
            return {"journal": journal}

        monkeypatch.setattr(InterruptingWorkload, "armed", True)
        kept = stores()
        with pytest.raises(KeyboardInterrupt):
            execute_cells(cells, **kept)
        if store == "cache":
            assert kept["cache"].stores == 2
            assert all(kept["cache"].get(cell_key(cell)) is not None
                       for cell in cells[:2])
        else:
            assert read_journal(journal).completed == 2

        # The re-run simulates only the interrupted and unrun cells.
        monkeypatch.setattr(InterruptingWorkload, "armed", False)
        simulated = []
        original = executor.simulate_cell

        def spy(cell):
            simulated.append(cell.label)
            return original(cell)

        monkeypatch.setattr(executor, "simulate_cell", spy)
        results = execute_cells(cells, **stores())
        assert simulated == ["cell2", "cell3"]
        monkeypatch.setattr(executor, "simulate_cell", original)
        assert results == execute_cells(cells)
