"""Trace sinks: where structured telemetry events go.

A *sink* is anything with an ``emit(event)`` method taking a plain
JSON-serialisable dict; the library never depends on a concrete class,
so callers can pipe events into logging systems, sockets, or test
doubles.  Three stock sinks cover the common cases:

:class:`NullSink`
    Drops everything (the explicit "observation off" object).
:class:`MemorySink`
    Collects events in a list — what the tests assert against.
:class:`JsonlSink`
    Appends one compact JSON line per event to a file, flushing per
    event so a killed campaign leaves a readable prefix.  This is the
    format ``repro observe report`` consumes.

Every event carries a ``type`` key.  The emitters below define the
event vocabulary — run lifecycle (``run_finished`` plus per-epoch
``epoch`` records), campaign/cell lifecycle, worker-pool lifecycle,
and result-cache traffic — so producers and the report reader agree
on field names by construction.

Sinks are driven from the *parent* process only: worker processes
return their counter series inside the
:class:`~repro.observe.series.RunObservation` riding on each result,
and the parent emits those after the fact.  That keeps sinks free of
any cross-process locking.
"""

import json
import os
import time


class NullSink:
    """Swallows every event."""

    def emit(self, event):
        """Drop *event*."""

    def close(self):
        """No-op (symmetry with file-backed sinks)."""


class MemorySink:
    """Collects events in ``self.events`` for inspection."""

    def __init__(self):
        self.events = []

    def emit(self, event):
        """Append a copy of *event*."""
        self.events.append(dict(event))

    def close(self):
        """No-op (events stay available)."""

    def of_type(self, event_type):
        """Every collected event with the given ``type``."""
        return [
            event for event in self.events
            if event.get("type") == event_type
        ]


class JsonlSink:
    """Writes one JSON line per event to *path*.

    ``mode="w"`` (default) starts a fresh trace; pass ``mode="a"`` to
    extend an existing one across commands.  Lines are flushed per
    event so concurrent readers (and post-mortems of killed runs) see
    every completed record; pass ``fsync=True`` to additionally force
    each record to stable storage before :meth:`emit` returns — a
    ``kill -9`` (or power loss) can then tear at most the one line
    being written, which the trace reader skips.
    """

    def __init__(self, path, mode="w", fsync=False):
        self.path = str(path)
        self.fsync = fsync
        self._handle = open(self.path, mode, encoding="utf-8")

    def emit(self, event):
        """Serialise *event* compactly, flush, optionally fsync."""
        self._handle.write(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self):
        """Close the underlying file."""
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def stamp(event):
    """Attach a wall-clock timestamp; returns the event."""
    event["ts"] = round(time.time(), 6)
    return event


def emit_run(sink, result, label=None):
    """Emit one run's trace records: epochs first, then the summary.

    ``result`` is a :class:`~repro.machine.runner.RunResult`; when it
    carries an observation the per-epoch counter samples are emitted
    as ``epoch`` events (cumulative values, matching the samples), and
    the closing ``run_finished`` event includes the phase profile.
    """
    if sink is None:
        return
    observation = result.observation
    label = label or (observation.label if observation else None)
    if observation is not None:
        for index, sample in enumerate(observation.samples):
            sink.emit(stamp({
                "type": "epoch",
                "label": label,
                "workload": result.workload,
                "seed": result.seed,
                "sample": index,
                "references": sample.references,
                "cycles": sample.cycles,
                "events": {
                    event.name: count
                    for event, count in sorted(
                        sample.events.items(),
                        key=lambda item: item[0].name,
                    )
                },
            }))
    finished = {
        "type": "run_finished",
        "label": label,
        "workload": result.workload,
        "config": result.config_name,
        "seed": result.seed,
        "references": result.references,
        "cycles": result.cycles,
        "page_ins": result.page_ins,
        "page_outs": result.page_outs,
        "host_seconds": round(result.host_seconds, 6),
    }
    if observation is not None:
        finished["epoch_refs"] = observation.epoch_refs
        finished["samples"] = len(observation.samples)
        finished["phases"] = {
            name: round(seconds, 6)
            for name, seconds in sorted(observation.phases.items())
        }
    sink.emit(stamp(finished))


def emit_cell(sink, event_type, index, cell, **extra):
    """Emit one campaign-cell lifecycle event.

    ``cell`` is a :class:`~repro.parallel.executor.RunCell`; its label
    and seed always ride along so a failure (or a progress reader) can
    name the exact cell without reverse-engineering indices.
    """
    if sink is None:
        return
    event = {
        "type": event_type,
        "cell": index,
        "label": cell.label,
        "seed": cell.seed,
        "workload": type(cell.workload).__name__,
        "config": getattr(cell.config, "name", None),
    }
    event.update(extra)
    sink.emit(stamp(event))


__all__ = [
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "emit_cell",
    "emit_run",
    "stamp",
]
