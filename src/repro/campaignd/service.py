"""The campaign service: queue + journal + driver + telemetry, in one.

:class:`CampaignService` is the long-running promotion of
:func:`~repro.parallel.execute_cells`.  Its run loop:

1. resolve the :class:`~repro.campaignd.queue.WorkQueue` — every cell
   whose content-addressed key is already in the cache or the journal
   is completed before any driver starts (this is resume);
2. journal the plan, then replay completed cells into the sink and
   progress reporter (``cell_cached`` / ``cell_resumed`` events);
3. drive the pending subset through the configured driver, journaling
   every completed cell durably *before* its events are emitted —
   kill the process at any instant and the journal still holds every
   finished result;
4. re-drive failed cells per the :class:`~repro.campaignd.drivers.
   RetryPolicy`, with exponential backoff, until they succeed or
   attempts run out;
5. raise :class:`~repro.parallel.executor.CampaignError` carrying the
   partial results if any cell failed permanently, else return the
   full result list — bit-identical to a one-shot
   ``execute_cells`` run of the same grid, whatever the driver.

The service is the only writer of the journal and the only caller of
``record``-side effects; drivers just produce outcomes.  That single
ownership is what keeps resume semantics identical across local
pools and worker subprocesses.
"""

import time

from repro.campaignd.drivers import LocalDriver, RetryPolicy
from repro.campaignd.journal import CampaignJournal
from repro.campaignd.queue import WorkQueue
from repro.observe.progress import CampaignProgress
from repro.observe.sinks import emit_cell, emit_run, stamp
from repro.parallel.cache import result_to_payload
from repro.parallel.executor import CampaignError, _failure


class CampaignService:
    """Resumable, retrying execution of one campaign cell grid.

    Parameters
    ----------
    cells:
        Iterable of :class:`~repro.parallel.executor.RunCell`.
    journal:
        Path or :class:`~repro.campaignd.journal.CampaignJournal`;
        ``None`` disables durability (the service degrades to a
        retrying ``execute_cells``).
    cache:
        Optional :class:`~repro.parallel.cache.ResultCache` shared
        with other campaigns and hosts.
    driver:
        Execution backend (defaults to a serial
        :class:`~repro.campaignd.drivers.LocalDriver`).
    retry:
        :class:`~repro.campaignd.drivers.RetryPolicy`; a timeout in
        the policy requires a driver with ``supports_timeout`` and is
        rejected loudly otherwise.
    sink / progress:
        Same contracts as :func:`~repro.parallel.execute_cells`.
    """

    def __init__(self, cells, journal=None, cache=None, driver=None,
                 retry=None, sink=None, progress=None):
        self.cells = list(cells)
        self.journal = CampaignJournal.coerce(journal)
        self.cache = cache
        self.driver = driver if driver is not None else LocalDriver()
        self.retry = retry if retry is not None else RetryPolicy()
        self.sink = sink
        self.progress = progress
        if self.retry.timeout_seconds is not None:
            if not getattr(self.driver, "supports_timeout", False):
                raise ValueError(
                    f"retry policy sets timeout_seconds="
                    f"{self.retry.timeout_seconds} but driver "
                    f"{self.driver.describe()} cannot enforce "
                    f"timeouts; use SubprocessDriver"
                )
            self.driver.timeout_seconds = self.retry.timeout_seconds

    def run(self):
        """Execute the campaign; returns results in cell order.

        Raises :class:`~repro.parallel.executor.CampaignError` (with
        partial results attached) if any cell fails all attempts.
        """
        plan = WorkQueue(
            self.cells, journal=self.journal, cache=self.cache
        ).resolve()
        progress = CampaignProgress.coerce(self.progress, len(self.cells))
        sink = self.sink
        if sink is not None:
            sink.emit(stamp({
                "type": "campaign_started",
                "cells": len(self.cells),
                "cached": len(plan.cached),
                "resumed": len(plan.resumed),
                "pending": len(plan.pending),
                "driver": self.driver.describe(),
            }))
        if self.journal is not None:
            self.journal.plan(
                plan.keys, [cell.label for cell in self.cells]
            )
        for index in plan.cached:
            emit_cell(sink, "cell_cached", index, self.cells[index])
            if progress is not None:
                progress.cell_cached()
        for index in plan.resumed:
            emit_cell(sink, "cell_resumed", index, self.cells[index])
            if progress is not None:
                progress.cell_resumed()

        results = plan.results
        errors = {}
        # The parent stores results unless the driver's workers
        # already share the cache directory (SubprocessDriver).
        store_here = (
            self.cache is not None
            and not getattr(self.driver, "stores_results", False)
        )
        remaining = list(plan.pending)
        attempt = 0
        while remaining:
            failed_now = []

            def record(index, outcome, _failed=failed_now,
                       _attempt=attempt):
                cell = self.cells[index]
                key = plan.keys[index]
                if isinstance(outcome, BaseException):
                    errors[index] = outcome
                    _failed.append(index)
                    emit_cell(
                        sink, "cell_attempt_failed", index, cell,
                        attempt=_attempt,
                        error=f"{type(outcome).__name__}: {outcome}",
                    )
                    return
                results[index] = outcome
                errors.pop(index, None)
                if store_here and key is not None:
                    self.cache.put(key, outcome)
                # Journal before telemetry: once a cell's events are
                # visible, its result must already be durable.
                if self.journal is not None:
                    self.journal.cell_done(
                        index, key, cell.label,
                        result_to_payload(outcome),
                    )
                emit_run(sink, outcome, label=cell.label)
                emit_cell(sink, "cell_finished", index, cell)
                if progress is not None:
                    progress.cell_finished()

            self.driver.run(self.cells, remaining, record)
            if not failed_now or attempt >= self.retry.retries:
                break
            attempt += 1
            delay = self.retry.sleep_before(attempt)
            if sink is not None:
                sink.emit(stamp({
                    "type": "campaign_retry",
                    "attempt": attempt,
                    "cells": len(failed_now),
                    "delay_seconds": round(delay, 6),
                }))
            if delay > 0:
                time.sleep(delay)
            remaining = failed_now

        failures = []
        for index in sorted(errors):
            cell = self.cells[index]
            failure = _failure(index, cell, errors[index])
            failures.append(failure)
            if self.journal is not None:
                self.journal.cell_failed(
                    index, plan.keys[index], cell.label, failure.error
                )
            emit_cell(sink, "cell_failed", index, cell,
                      error=failure.error)
            if progress is not None:
                progress.cell_failed()
        if progress is not None:
            progress.finish()
        if sink is not None:
            sink.emit(stamp({
                "type": "campaign_finished",
                "cells": len(self.cells),
                "cached": len(plan.cached),
                "resumed": len(plan.resumed),
                "computed": len(plan.pending) - len(failures),
                "failed": len(failures),
            }))
        if self.journal is not None:
            self.journal.close()
        if failures:
            raise CampaignError(failures, results)
        return results


__all__ = ["CampaignService"]
