"""Trace reading, summarising, exporting, and the CLI report."""

import csv
import dataclasses
import json

import pytest

from repro.common.errors import TraceFormatError
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.observe.report import (
    TraceSummary,
    read_trace,
    render_report,
    summarize_trace,
    trajectories_json,
    trajectory_rows,
    write_trajectories_csv,
)
from repro.observe.series import CSV_HEADER
from repro.observe.sinks import MemorySink, emit_run
from repro.workloads.workload1 import Workload1

EVENTS = [
    {"type": "campaign_started", "cells": 3, "cached": 1,
     "workers": 2},
    {"type": "cell_cached", "cell": 0, "label": "a", "seed": 0},
    {"type": "epoch", "label": "b", "sample": 0, "references": 0,
     "cycles": 0, "events": {"DIRTY_FAULT": 0}},
    {"type": "epoch", "label": "b", "sample": 1, "references": 512,
     "cycles": 2100, "events": {"DIRTY_FAULT": 9}},
    {"type": "run_finished", "label": "b", "references": 512,
     "cycles": 2100, "host_seconds": 0.25,
     "phases": {"simulate": 0.2, "generate": 0.05}},
    {"type": "cell_finished", "cell": 1, "label": "b", "seed": 0},
    {"type": "cell_failed", "cell": 2, "label": "c", "seed": 0,
     "error": "RuntimeError: boom"},
    {"type": "run_finished", "label": "d", "references": 1000,
     "cycles": 4000, "host_seconds": 0.75},
    {"type": "campaign_finished", "cells": 3, "cached": 1,
     "failed": 1},
]


def write_jsonl(path, events):
    path.write_text(
        "".join(json.dumps(event) + "\n" for event in events)
    )


class TestReadTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, EVENTS)
        assert read_trace(path) == EVENTS

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "a"}\n\n{"type": "b"}\n')
        assert [event["type"] for event in read_trace(path)] == [
            "a", "b",
        ]

    def test_torn_final_line_skipped(self, tmp_path):
        # A torn line with no trailing newline is the signature of a
        # killed run (the sink flushes per event); the readable prefix
        # must survive so crashed campaigns stay reportable.
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "a"}\n{"type": "b", "refer')
        assert [event["type"] for event in read_trace(path)] == ["a"]

    def test_torn_mid_file_line_reports_line_number(self, tmp_path):
        # Mid-file corruption is real damage, not a crash signature:
        # a later complete line proves the writer kept going.
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type": "a"}\n{"type": "b", "refer\n{"type": "c"}\n'
        )
        with pytest.raises(TraceFormatError, match=r":2:"):
            read_trace(path)

    def test_complete_final_line_without_newline_kept(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "a"}\n{"type": "b"}')
        assert [event["type"] for event in read_trace(path)] == [
            "a", "b",
        ]

    def test_untyped_event_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"no_type": 1}\n')
        with pytest.raises(TraceFormatError, match="'type'"):
            read_trace(path)


class TestSummarize:
    def test_folds_the_vocabulary(self):
        summary = summarize_trace(EVENTS)
        assert summary.campaigns == 1
        assert summary.cells_total == 3
        assert summary.cells_cached == 1
        assert summary.cells_failed == 1
        assert summary.runs == 2
        assert summary.references == 1512
        assert summary.cycles == 6100
        assert summary.host_seconds == pytest.approx(1.0)
        assert summary.epoch_samples == 2
        assert summary.phase_seconds == pytest.approx(
            {"simulate": 0.2, "generate": 0.05}
        )
        assert summary.labels == ["b", "d"]

    def test_refs_per_second(self):
        summary = summarize_trace(EVENTS)
        assert summary.refs_per_second == pytest.approx(1512.0)
        assert TraceSummary().refs_per_second == 0.0

    def test_json_dict(self):
        payload = summarize_trace(EVENTS).to_json_dict()
        assert payload["runs"] == 2
        assert payload["refs_per_second"] == pytest.approx(
            1512.0, abs=0.1
        )
        json.dumps(payload)  # must be serialisable as-is


class TestTrajectories:
    def test_rows_long_format(self):
        rows = list(trajectory_rows(EVENTS))
        assert rows == [
            ("b", 0, 0, 0, "DIRTY_FAULT", 0),
            ("b", 1, 512, 2100, "DIRTY_FAULT", 9),
        ]

    def test_csv_export(self, tmp_path):
        path = tmp_path / "out.csv"
        count = write_trajectories_csv(EVENTS, path)
        assert count == 2
        with open(path, newline="") as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == list(CSV_HEADER)
        assert len(parsed) == 3

    def test_json_export_groups_by_label(self):
        payload = trajectories_json(EVENTS)
        assert payload == {
            "b": {"DIRTY_FAULT": [[0, 0], [512, 9]]},
        }


class TestRenderReport:
    def test_mentions_every_headline(self):
        text = render_report(summarize_trace(EVENTS))
        for needle in ("campaigns", "cells cached", "cells failed",
                       "runs finished", "references simulated",
                       "refs/second", "epoch samples",
                       "phase: simulate", "labels: b, d"):
            assert needle in text

    def test_scalar_bailouts_surface_in_trace_and_report(self):
        result = ExperimentRunner().run(
            scaled_config(memory_ratio=40),
            Workload1(length_scale=0.01), max_references=1000,
        )
        stamped = dataclasses.replace(result, scalar_bailouts=3)
        sink = MemorySink()
        emit_run(sink, stamped)
        finished = sink.of_type("run_finished")
        assert finished[0]["scalar_bailouts"] == 3
        summary = summarize_trace(sink.events)
        assert summary.scalar_bailouts == 3
        assert summary.to_json_dict()["scalar_bailouts"] == 3
        assert "chunk.scalar-bailout" in render_report(summary)


class TestCliReport:
    def test_report_with_exports(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        write_jsonl(trace, EVENTS)
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        assert main([
            "observe", "report", str(trace),
            "--csv", str(csv_path), "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert csv_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["runs"] == 2
        assert "b" in payload["trajectories"]

    def test_missing_trace_exits_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["observe", "report", str(tmp_path / "nope.jsonl")])

    def test_bad_trace_exits_cleanly(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        trace.write_text("not json\n")
        with pytest.raises(SystemExit, match=":1:"):
            main(["observe", "report", str(trace)])
