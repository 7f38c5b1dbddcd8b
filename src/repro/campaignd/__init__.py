"""The campaign service: resumable, distributed, streaming campaigns.

``repro.campaignd`` promotes one-shot campaign execution
(:func:`repro.parallel.execute_cells`) into a long-running service
built from four separable pieces:

* a reversible **cell spec codec** (:mod:`~repro.campaignd.cells`) —
  cells serialise to JSON and back bit-exactly, which is what lets
  work cross process and host boundaries;
* a durable **journal** (:mod:`~repro.campaignd.journal`) — one
  fsynced JSON line per completed cell, written next to the result
  cache, so ``kill -9`` never loses finished work;
* a resumable **work queue** (:mod:`~repro.campaignd.queue`) keyed by
  the same content-addressed hashes the cache uses — restarting a
  half-done campaign recomputes nothing;
* interchangeable **drivers** (:mod:`~repro.campaignd.drivers`) — the
  in-process serial/pool paths, or ``repro worker`` subprocesses
  sharing only a cache directory — under one
  :class:`~repro.campaignd.service.CampaignService` that owns retry,
  backoff, timeout, journaling, and telemetry.

Live status streams over a socket (:mod:`~repro.campaignd.stream`):
``repro campaign serve`` broadcasts the JSONL event vocabulary,
``repro campaign status`` follows it.  See ``docs/campaign.md``.
"""

from repro.campaignd.cells import (
    SPEC_FORMAT,
    SpecError,
    cell_key,
    cell_to_spec,
    spec_to_cell,
    workload_from_spec,
    workload_to_spec,
)
from repro.campaignd.drivers import (
    LocalDriver,
    RetryPolicy,
    SubprocessDriver,
)
from repro.campaignd.journal import (
    JOURNAL_FORMAT,
    CampaignJournal,
    JournalReplay,
    read_journal,
)
from repro.campaignd.queue import QueuePlan, WorkQueue
from repro.campaignd.service import CampaignService
from repro.campaignd.stream import (
    StatusServer,
    follow_status,
    stream_events,
)
from repro.campaignd.worker import worker_main

__all__ = [
    "JOURNAL_FORMAT",
    "SPEC_FORMAT",
    "CampaignJournal",
    "CampaignService",
    "JournalReplay",
    "LocalDriver",
    "QueuePlan",
    "RetryPolicy",
    "SpecError",
    "StatusServer",
    "SubprocessDriver",
    "WorkQueue",
    "cell_key",
    "cell_to_spec",
    "follow_status",
    "read_journal",
    "spec_to_cell",
    "stream_events",
    "worker_main",
    "workload_from_spec",
    "workload_to_spec",
]
