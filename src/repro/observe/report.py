"""Read a JSONL trace back and turn it into reports and exports.

The consumer side of the sink vocabulary in
:mod:`repro.observe.sinks`: :func:`read_trace` parses a trace file,
:func:`summarize_trace` folds it into a :class:`TraceSummary`,
:func:`render_report` renders the human-facing text the
``repro observe report`` subcommand prints, and
:func:`write_trajectories_csv` / :func:`trajectories_json` export the
per-epoch counter trajectories in plot-ready long format (one row per
sample x event, mirroring
:data:`repro.observe.series.CSV_HEADER`).
"""

import csv
import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import TraceFormatError
from repro.observe.series import CSV_HEADER


def read_trace(path):
    """Parse a JSONL trace into a list of event dicts.

    Raises :class:`~repro.common.errors.TraceFormatError` on a line
    that is not a JSON object, with one deliberate exception: a torn
    *final* line with no trailing newline is the normal signature of
    a killed run (the sink flushes per event, so only the in-flight
    record can be cut mid-write), and is silently skipped so crashed
    campaigns stay reportable.  Corruption anywhere else still raises
    with the line number — a torn line mid-file means real damage,
    not a crash.
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last = len(lines) - 1
    for number, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        torn_tail = number == last and not raw.endswith("\n")
        try:
            event = json.loads(line)
        except ValueError as error:
            if torn_tail:
                continue
            raise TraceFormatError(
                f"{path}:{number + 1}: not valid JSON ({error})"
            ) from None
        if not isinstance(event, dict) or "type" not in event:
            if torn_tail:
                continue
            raise TraceFormatError(
                f"{path}:{number + 1}: trace events must be objects "
                f"with a 'type' key"
            )
        events.append(event)
    return events


@dataclass
class TraceSummary:
    """Aggregate view of one trace file."""

    campaigns: int = 0
    cells_total: int = 0
    cells_cached: int = 0
    cells_failed: int = 0
    runs: int = 0
    references: int = 0
    cycles: int = 0
    host_seconds: float = 0.0
    epoch_samples: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    labels: List[str] = field(default_factory=list)

    @property
    def refs_per_second(self):
        """Simulated references per host second across all runs."""
        if self.host_seconds <= 0.0:
            return 0.0
        return self.references / self.host_seconds

    def to_json_dict(self):
        """JSON-ready rendering of the summary."""
        return {
            "campaigns": self.campaigns,
            "cells_total": self.cells_total,
            "cells_cached": self.cells_cached,
            "cells_failed": self.cells_failed,
            "runs": self.runs,
            "references": self.references,
            "cycles": self.cycles,
            "host_seconds": round(self.host_seconds, 6),
            "refs_per_second": round(self.refs_per_second, 1),
            "epoch_samples": self.epoch_samples,
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.phase_seconds.items())
            },
            "labels": self.labels,
        }


def summarize_trace(events):
    """Fold parsed trace events into a :class:`TraceSummary`."""
    summary = TraceSummary()
    seen_labels = set()
    for event in events:
        kind = event.get("type")
        if kind == "campaign_started":
            summary.campaigns += 1
            summary.cells_total += event.get("cells", 0)
        elif kind == "cell_cached":
            summary.cells_cached += 1
        elif kind == "cell_failed":
            summary.cells_failed += 1
        elif kind == "run_finished":
            summary.runs += 1
            summary.references += event.get("references", 0)
            summary.cycles += event.get("cycles", 0)
            summary.host_seconds += event.get("host_seconds", 0.0)
            for name, seconds in event.get("phases", {}).items():
                summary.phase_seconds[name] = (
                    summary.phase_seconds.get(name, 0.0) + seconds
                )
            label = event.get("label")
            if label and label not in seen_labels:
                seen_labels.add(label)
                summary.labels.append(label)
        elif kind == "epoch":
            summary.epoch_samples += 1
    return summary


def trajectory_rows(events):
    """Long-format counter-trajectory rows from ``epoch`` events.

    Yields tuples matching :data:`~repro.observe.series.CSV_HEADER`:
    ``(label, sample, references, cycles, event, count)`` — the
    format gnuplot/pandas consume directly for plotting the counter
    trajectories behind Tables 3.3/3.5/4.1.
    """
    for event in events:
        if event.get("type") != "epoch":
            continue
        label = event.get("label") or event.get("workload") or ""
        for name in sorted(event.get("events", {})):
            yield (
                label,
                event.get("sample", 0),
                event.get("references", 0),
                event.get("cycles", 0),
                name,
                event["events"][name],
            )


def write_trajectories_csv(events, path):
    """Write :func:`trajectory_rows` to *path*; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for row in trajectory_rows(events):
            writer.writerow(row)
            count += 1
    return count


def trajectories_json(events):
    """Counter trajectories grouped by label for JSON export.

    Returns ``{label: {event: [[references, count], ...]}}`` with
    samples in trace order — cumulative values, exactly as emitted.
    """
    result = {}
    for event in events:
        if event.get("type") != "epoch":
            continue
        label = event.get("label") or event.get("workload") or ""
        per_label = result.setdefault(label, {})
        for name, count in event.get("events", {}).items():
            per_label.setdefault(name, []).append(
                [event.get("references", 0), count]
            )
    return result


def render_report(summary):
    """Human-facing text for ``repro observe report``."""
    # Imported here, not at module level: repro.analysis imports the
    # runner, which imports this package — a top-level import would
    # close that cycle during package init.
    from repro.analysis.tables import Table

    table = Table(
        "Trace summary",
        ["Metric", "Value"],
    )
    table.add_row("campaigns", summary.campaigns)
    table.add_row("cells (total)", summary.cells_total)
    table.add_row("cells cached", summary.cells_cached)
    table.add_row("cells failed", summary.cells_failed)
    table.add_row("runs finished", summary.runs)
    table.add_row("references simulated", f"{summary.references:,}")
    table.add_row("cycles simulated", f"{summary.cycles:,}")
    table.add_row("host seconds", f"{summary.host_seconds:.2f}")
    table.add_row("refs/second", f"{summary.refs_per_second:,.0f}")
    table.add_row("epoch samples", summary.epoch_samples)
    for name, seconds in sorted(summary.phase_seconds.items()):
        share = (
            100.0 * seconds / summary.host_seconds
            if summary.host_seconds > 0 else 0.0
        )
        table.add_row(
            f"phase: {name}", f"{seconds:.2f}s ({share:.0f}%)"
        )
    if summary.labels:
        shown = ", ".join(summary.labels[:8])
        if len(summary.labels) > 8:
            shown += f", ... ({len(summary.labels)} total)"
        table.add_note(f"labels: {shown}")
    return table.render()


__all__ = [
    "TraceSummary",
    "read_trace",
    "render_report",
    "summarize_trace",
    "trajectories_json",
    "trajectory_rows",
    "write_trajectories_csv",
]
