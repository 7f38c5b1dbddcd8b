"""Append-only campaign journal: the durable half of campaign resume.

One JSON line per record, written by
:func:`~repro.parallel.executor.execute_cells` when it is given a
journal.  The journal is the campaign's crash log and resume ledger
in one file:

``campaign_planned``
    The cell grid this campaign intends to run (keys and labels) —
    informational; replays ignore unknown grids because done-ness is
    keyed by content-addressed cell key, not by position.
``cell_done``
    One completed cell, with its serialised
    :class:`~repro.machine.runner.RunResult` payload embedded, so a
    journal alone (no cache directory) can resume a campaign.
``cell_failed``
    One failed cell with its diagnosis.

Appends are crash-safe: each record is written, flushed, and (by
default) fsynced before :meth:`CampaignJournal.append` returns, so a
``kill -9`` can lose at most the record being written — never a
completed one.  :func:`read_journal` is the tolerant reader: a torn
final line (the kill signature) is counted and skipped, a corrupt
record anywhere is counted and skipped, and everything after keeps
its meaning because records are self-describing.
"""

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict

from repro.observe.sinks import stamp

#: Bump when record semantics change; replays ignore other formats.
JOURNAL_FORMAT = 1


@dataclass
class JournalReplay:
    """Everything a journal says about prior campaign progress.

    ``results`` maps cell key to the *latest* embedded result payload
    (append-only journals may record a key twice; last wins).
    ``failures`` maps cell key to the latest failure diagnosis, minus
    keys that later completed.  ``corrupt_records`` counts skipped
    undecodable lines; ``torn_tail`` flags a truncated final line —
    the normal signature of a killed campaign, not an error.
    """

    results: Dict[str, dict] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    records: int = 0
    corrupt_records: int = 0
    torn_tail: bool = False
    planned_cells: int = 0

    @property
    def completed(self):
        """Number of distinct completed cell keys on record."""
        return len(self.results)


def _decode_record(line):
    """Parse one journal line; ``None`` if it is not a valid record."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or "type" not in record:
        return None
    if record.get("format") != JOURNAL_FORMAT:
        return None
    return record


def read_journal(path):
    """Replay a journal file into a :class:`JournalReplay`.

    A missing file replays empty — a fresh campaign.  Corrupt records
    and a torn final line are skipped and counted rather than raised:
    recovery is the point of the journal, so the reader must survive
    exactly the crashes it exists to record.
    """
    replay = JournalReplay()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return replay
    last = len(lines) - 1
    for number, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        record = _decode_record(stripped)
        if record is None:
            if number == last and not line.endswith("\n"):
                replay.torn_tail = True
            else:
                replay.corrupt_records += 1
            continue
        replay.records += 1
        kind = record["type"]
        if kind == "cell_done":
            key = record.get("key")
            payload = record.get("result")
            if isinstance(key, str) and isinstance(payload, dict):
                replay.results[key] = payload
                replay.failures.pop(key, None)
            else:
                replay.corrupt_records += 1
        elif kind == "cell_failed":
            key = record.get("key")
            if isinstance(key, str) and key not in replay.results:
                replay.failures[key] = str(record.get("error", ""))
        elif kind == "campaign_planned":
            replay.planned_cells = max(
                replay.planned_cells, record.get("cells", 0)
            )
    return replay


class CampaignJournal:
    """Writer over one append-only journal file.

    Parameters
    ----------
    path:
        Journal file location; parent directories are created.
    fsync:
        Force each record to stable storage before returning (the
        default).  Cells take orders of magnitude longer to simulate
        than an fsync takes, so durability is effectively free here;
        pass ``False`` for throwaway journals in tests.
    """

    def __init__(self, path, fsync=True):
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._handle = None

    def _ensure_open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, record):
        """Durably append one record (stamped, flushed, fsynced)."""
        record = dict(record)
        record["format"] = JOURNAL_FORMAT
        handle = self._ensure_open()
        handle.write(
            json.dumps(stamp(record), sort_keys=True,
                       separators=(",", ":"))
            + "\n"
        )
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def plan(self, keys, labels):
        """Record the campaign grid (informational, replay-ignored)."""
        self.append({
            "type": "campaign_planned",
            "cells": len(keys),
            "keys": [key for key in keys if key is not None],
            "labels": [label for label in labels if label is not None],
        })

    def cell_done(self, index, key, label, payload):
        """Record one completed cell with its embedded result."""
        self.append({
            "type": "cell_done",
            "index": index,
            "key": key,
            "label": label,
            "result": payload,
        })

    def cell_failed(self, index, key, label, error):
        """Record one failed cell."""
        self.append({
            "type": "cell_failed",
            "index": index,
            "key": key,
            "label": label,
            "error": error,
        })

    def replay(self):
        """Read this journal back (see :func:`read_journal`)."""
        # Replays read the file fresh rather than any in-memory state,
        # so a writer and a post-crash reader see identical history.
        return read_journal(self.path)

    def close(self):
        """Close the underlying file handle (reopened on next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    @classmethod
    def coerce(cls, journal):
        """Accept a path, an instance, or ``None`` (journal off)."""
        if journal is None or isinstance(journal, cls):
            return journal
        return cls(journal)


__all__ = [
    "JOURNAL_FORMAT",
    "CampaignJournal",
    "JournalReplay",
    "read_journal",
]
