"""The campaign orchestrator: every grid of independent cells runs here.

One :class:`RunCell` is one cold-start simulation — the unit the
experiment matrices are built from.  :func:`execute_cells` resolves
each cell against an optional
:class:`~repro.parallel.cache.ResultCache`, simulates the rest
(serially, or over a pool of worker processes), and returns results
in the order the cells were given.  Because every cell is fully
determined by its inputs and cells share no state, the worker count
changes wall-clock time only: the returned
:class:`~repro.machine.runner.RunResult` list is bit-identical for any
``workers`` value (``host_seconds`` and ``observation``, both excluded
from result equality, are the lone per-host fields).

Each finished cell is made durable before it is made visible: it is
stored in the cache (fsynced, then atomically renamed into place),
then announced to the trace sink and progress reporter.  A run that
is killed at any instant therefore keeps every cell it reported, and
a re-run with the same cache simulates only the cells that failed or
never ran.

Failures degrade gracefully: a cell that raises never aborts the
campaign.  Remaining cells run to completion, each failure is recorded
as a :class:`CellFailure` naming the cell's label and seed, and a
single :class:`CampaignError` carrying the failures *and* the partial
results is raised at the end — so a 40-cell campaign with one bad cell
still yields 39 results and one precise diagnosis instead of a bare
mid-pool traceback.

Observability is parent-side only: workers return their counter series
inside ``RunResult.observation``; the parent emits trace events to the
optional ``sink`` and drives the optional ``progress`` reporter.

Cells that read the same reference stream run as one batch
(:func:`stream_batches`, :func:`run_batch`): the batch's first run
records the stream and the others replay it, so each stream is
generated once per batch.  Execution order therefore follows the
batches, while results stay in cell order.
"""

import gc
import json
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import ReproError
from repro.observe.series import DEFAULT_EPOCH_REFS
from repro.parallel.cache import (
    CacheKeyError,
    cell_key,
    workload_spec,
)
from repro.workloads.synthetic import StreamRecording


@dataclass(frozen=True)
class RunCell:
    """Inputs of one independent simulation run.

    ``seed`` is the final per-run seed (any master-seed mixing happens
    in :class:`~repro.machine.runner.ExperimentRunner` before cells
    are built).  ``sanitize`` optionally names a
    :mod:`repro.sanitize` mode to run the cell under; it is not part
    of the cache key because the sanitizer observes without altering
    results.  ``label``
    names the cell in trace events, progress lines, and failure
    reports; ``observe``/``epoch_refs`` attach a
    :class:`~repro.observe.observer.RunObserver` in the worker, whose
    series ride back on ``RunResult.observation``.  None of the new
    fields enter the cache key — telemetry never changes what a run
    measures.
    """

    config: Any
    workload: Any
    seed: int = 0
    max_references: Optional[int] = None
    sanitize: Optional[str] = None
    label: Optional[str] = None
    observe: bool = False
    epoch_refs: int = DEFAULT_EPOCH_REFS


@dataclass(frozen=True)
class CellFailure:
    """One failed campaign cell, with enough context to re-run it."""

    index: int
    label: Optional[str]
    seed: int
    workload: str
    config: Optional[str]
    error: str

    def describe(self):
        """One-line human-readable rendering."""
        name = self.label or f"cell {self.index}"
        return (
            f"{name} (workload={self.workload}, seed={self.seed}): "
            f"{self.error}"
        )


class CampaignError(ReproError):
    """One or more campaign cells failed (the rest completed).

    Carries ``failures`` (a list of :class:`CellFailure`) and
    ``results`` — the full result list in cell order, with ``None``
    at each failed index — so callers can report precisely and still
    use the partial campaign.
    """

    def __init__(self, failures, results):
        self.failures = list(failures)
        self.results = results
        lines = "; ".join(
            failure.describe() for failure in self.failures[:3]
        )
        if len(self.failures) > 3:
            lines += f"; ... ({len(self.failures)} failures total)"
        super().__init__(
            f"{len(self.failures)} of {len(results)} campaign cells "
            f"failed: {lines}"
        )


def simulate_cell(cell):
    """Run one cell from scratch; the process-pool work function.

    Module-level (picklable) and self-contained: workers rebuild the
    machine and workload instance from the cell's recipe, so nothing
    leaks between cells regardless of which process runs them.
    """
    from repro.machine.runner import ExperimentRunner
    from repro.options import RunOptions

    runner = ExperimentRunner(options=RunOptions(
        sanitize=cell.sanitize,
        observe=cell.observe,
        epoch_refs=cell.epoch_refs,
    ))
    return runner.run(
        cell.config, cell.workload, seed=cell.seed,
        max_references=cell.max_references, label=cell.label,
    )


def stream_key(cell):
    """The identity of *cell*'s reference stream, or ``None``.

    A stream depends on the workload recipe, the seed and the page
    size.  Capped cells (``max_references``) and recipes without a
    canonical spec (:class:`CacheKeyError`) share with nothing.
    """
    if cell.max_references is not None:
        return None
    try:
        spec = workload_spec(cell.workload)
    except CacheKeyError:
        return None
    return json.dumps(
        [spec, cell.seed, cell.config.page_bytes], sort_keys=True
    )


def stream_batches(cells, pending, splits=1):
    """Group the *pending* indices of *cells* into same-stream batches.

    Each stream's cells are split into ``min(splits, cells)``
    near-equal batches, in index order; cells that share no stream
    are batches of one.  Streams come in the order of their first
    index.
    """
    groups = {}
    streams = []
    for index in pending:
        key = stream_key(cells[index])
        group = groups.get(key) if key is not None else None
        if group is None:
            group = []
            streams.append(group)
            if key is not None:
                groups[key] = group
        group.append(index)
    batches = []
    for group in streams:
        parts = min(splits, len(group))
        size, extra = divmod(len(group), parts)
        start = 0
        for part in range(parts):
            end = start + size + (part < extra)
            batches.append(group[start:end])
            start = end
    return batches


def run_batch(batch, run_one):
    """Call ``run_one(item)`` for every item of a same-stream *batch*.

    A batch of two or more shares one
    :class:`~repro.workloads.synthetic.StreamRecording`: the first run
    records the stream and later runs replay it.  A finished machine
    sits in reference cycles that refcounting never frees, so such a
    batch collects garbage after every run; otherwise dead machines
    would pile up beside the recording until the collector's next
    full pass.
    """
    if len(batch) == 1:
        run_one(batch[0])
        return
    recording = StreamRecording()
    last = len(batch) - 1
    for position, item in enumerate(batch):
        try:
            with recording.active(last=position == last):
                run_one(item)
        finally:
            gc.collect()


def simulate_batch(cells):
    """Run a same-stream batch of cells; the process-pool work function.

    Returns one outcome per cell, in order: its
    :class:`~repro.machine.runner.RunResult`, or the exception it
    raised.
    """
    outcomes = []

    def run_one(cell):
        try:
            outcomes.append(simulate_cell(cell))
        except Exception as error:
            outcomes.append(error)

    run_batch(cells, run_one)
    return outcomes


def _failure(index, cell, error):
    """Build the :class:`CellFailure` record for one raised cell."""
    return CellFailure(
        index=index,
        label=cell.label,
        seed=cell.seed,
        workload=type(cell.workload).__name__,
        config=getattr(cell.config, "name", None),
        error=f"{type(error).__name__}: {error}",
    )


def run_pending(cells, pending, record, workers=1, sink=None):
    """Simulate the *pending* subset of *cells* through a work path.

    The execution core of :func:`execute_cells`: picks the in-process
    or process-pool path and feeds every outcome to
    ``record(index, outcome)`` — a
    :class:`~repro.machine.runner.RunResult` on success, the raised
    exception on failure.  ``record`` is always called from the
    calling process (workers return values; they never call back), so
    callers may cache and emit from it without locking.

    Work goes out in :func:`stream_batches`: one batch per stream in
    process, ``min(workers, cells)`` batches per stream on the pool,
    so every batch generates its stream once.
    """
    from repro.observe.sinks import stamp

    if workers <= 1 or len(pending) <= 1:

        def run_one(index):
            try:
                outcome = simulate_cell(cells[index])
            except Exception as error:
                outcome = error
            record(index, outcome)

        for batch in stream_batches(cells, pending):
            run_batch(batch, run_one)
    else:
        pool_size = min(workers, len(pending))
        if sink is not None:
            sink.emit(stamp({
                "type": "worker_pool_started",
                "workers": pool_size,
                "cells": len(pending),
            }))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = {
                pool.submit(
                    simulate_batch, [cells[index] for index in batch]
                ): batch
                for batch in stream_batches(cells, pending, pool_size)
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for future in done:
                    batch = futures[future]
                    error = future.exception()
                    outcomes = (
                        [error] * len(batch) if error is not None
                        else future.result()
                    )
                    for index, outcome in zip(batch, outcomes):
                        record(index, outcome)
        if sink is not None:
            sink.emit(stamp({
                "type": "worker_pool_finished",
                "workers": pool_size,
            }))


def execute_cells(cells, workers=1, cache=None, sink=None,
                  progress=None):
    """Execute *cells*, returning results in the given cell order.

    Parameters
    ----------
    cells:
        Iterable of :class:`RunCell`.
    workers:
        Process count; 1 simulates in-process (no pool is created).
    cache:
        Optional :class:`ResultCache`.  Hits skip simulation entirely;
        every other cell is stored as soon as it finishes, so a rerun
        with the same cache resumes where a killed run stopped.  Cells
        whose inputs cannot be canonically hashed
        (:class:`CacheKeyError`) are simulated unconditionally and
        never stored — correctness first.
    sink:
        Optional trace sink (``emit(dict)``); receives campaign,
        cell, and worker-pool lifecycle events plus each completed
        run's records (parent process only).
    progress:
        ``True`` for a stderr progress line, or a
        :class:`~repro.observe.progress.CampaignProgress` instance.

    Raises :class:`CampaignError` after all cells have been given
    their chance if any cell failed; successful results (and their
    cache entries) survive the error.
    """
    from repro.observe.progress import CampaignProgress
    from repro.observe.sinks import emit_cell, emit_run, stamp

    cells = list(cells)
    keys = [None] * len(cells)
    if cache is not None:
        keys = [cell_key(cell) for cell in cells]
    results = [cache.get(key) if key is not None else None
               for key in keys]
    cached = [index for index, hit in enumerate(results) if hit is not None]
    pending = [index for index, hit in enumerate(results) if hit is None]

    progress = CampaignProgress.coerce(progress, len(cells))
    if sink is not None:
        sink.emit(stamp({
            "type": "campaign_started",
            "cells": len(cells),
            "cached": len(cached),
            "pending": len(pending),
            "workers": workers,
        }))
    for index in cached:
        emit_cell(sink, "cell_cached", index, cells[index])
        if progress is not None:
            progress.cell_cached()

    failures = []

    def record(index, outcome):
        """Fold one finished/raised cell in: durable, then visible."""
        cell = cells[index]
        if isinstance(outcome, BaseException):
            failure = _failure(index, cell, outcome)
            failures.append(failure)
            emit_cell(sink, "cell_failed", index, cell,
                      error=failure.error)
            if progress is not None:
                progress.cell_failed()
            return
        results[index] = outcome
        # Runs in the parent process only, so pool workers never race
        # on the cache directory.
        if keys[index] is not None:
            cache.put(keys[index], outcome)
        emit_run(sink, outcome, label=cell.label)
        emit_cell(sink, "cell_finished", index, cell)
        if progress is not None:
            progress.cell_finished()

    run_pending(cells, pending, record, workers=workers, sink=sink)

    if progress is not None:
        progress.finish()
    if sink is not None:
        sink.emit(stamp({
            "type": "campaign_finished",
            "cells": len(cells),
            "cached": len(cached),
            "computed": len(pending) - len(failures),
            "failed": len(failures),
        }))
    if failures:
        failures.sort(key=lambda failure: failure.index)
        raise CampaignError(failures, results)
    return results
