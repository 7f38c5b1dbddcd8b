"""The append-only journal: durability, replay, and damage tolerance."""

import json
import os

import pytest

from repro.parallel.journal import (
    JOURNAL_FORMAT,
    CampaignJournal,
    read_journal,
)


def payload(n):
    """A minimal stand-in result payload (replay treats it opaquely)."""
    return {"format": 1, "cycles": n}


class TestAppendAndReplay:
    def test_missing_file_replays_empty(self, tmp_path):
        replay = read_journal(tmp_path / "absent.jsonl")
        assert replay.records == 0
        assert replay.results == {}
        assert replay.failures == {}
        assert not replay.torn_tail

    def test_done_and_failed_records(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.plan(["k0", "k1", None], ["a", "b", None])
        journal.cell_done(0, "k0", "a", payload(1))
        journal.cell_failed(1, "k1", "b", "RuntimeError: boom")
        journal.close()
        replay = read_journal(journal.path)
        assert replay.records == 3
        assert replay.planned_cells == 3
        assert replay.results == {"k0": payload(1)}
        assert replay.failures == {"k1": "RuntimeError: boom"}
        assert replay.completed == 1

    def test_last_result_wins(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.cell_done(0, "k0", "a", payload(1))
        journal.cell_done(0, "k0", "a", payload(2))
        journal.close()
        assert read_journal(journal.path).results["k0"] == payload(2)

    def test_later_done_clears_failure(self, tmp_path):
        # A failed cell that a later campaign run completes must
        # replay as done, not failed.
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.cell_failed(0, "k0", "a", "boom")
        journal.cell_done(0, "k0", "a", payload(3))
        journal.close()
        replay = read_journal(journal.path)
        assert replay.failures == {}
        assert replay.results == {"k0": payload(3)}

    def test_every_record_lands_on_disk_per_append(self, tmp_path):
        # No close() before reading: append must flush, so a reader
        # (or a post-kill replay) always sees every completed record.
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.cell_done(0, "k0", "a", payload(1))
        assert read_journal(journal.path).completed == 1
        journal.close()

    def test_coerce(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        assert CampaignJournal.coerce(None) is None
        assert CampaignJournal.coerce(journal) is journal
        built = CampaignJournal.coerce(tmp_path / "other.jsonl")
        assert isinstance(built, CampaignJournal)


    def test_failure_after_done_keeps_the_result(self, tmp_path):
        # A result on record is never masked by a later failure of
        # the same cell (e.g. a re-run that crashed on another host).
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.cell_done(0, "k0", "a", payload(1))
        journal.cell_failed(0, "k0", "a", "boom")
        journal.close()
        replay = read_journal(journal.path)
        assert replay.results == {"k0": payload(1)}
        assert replay.failures == {}

    def test_planned_cells_is_the_largest_plan(self, tmp_path):
        # Every resumed run appends its own plan record.
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.plan(["k0", "k1", "k2"], ["a", "b", "c"])
        journal.plan(["k0"], ["a"])
        journal.close()
        replay = read_journal(journal.path)
        assert replay.planned_cells == 3
        assert replay.records == 2


class TestRecordFormat:
    def test_records_are_stamped_sorted_json_lines(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.plan(["k0", None], ["a", None])
        journal.cell_done(0, "k0", "a", payload(1))
        journal.close()
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["format"] == JOURNAL_FORMAT
            assert isinstance(record["ts"], float)
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))
        plan = json.loads(lines[0])
        assert (plan["cells"], plan["keys"], plan["labels"]) == (
            2, ["k0"], ["a"]
        )

    def test_append_after_close_reopens(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.cell_done(0, "k0", "a", payload(1))
        journal.close()
        journal.close()
        journal.cell_done(1, "k1", "b", payload(2))
        journal.close()
        assert read_journal(journal.path).completed == 2

    def test_context_manager_closes(self, tmp_path):
        with CampaignJournal(tmp_path / "j.jsonl", fsync=False) as journal:
            journal.cell_done(0, "k0", "a", payload(1))
            assert journal._handle is not None
        assert journal._handle is None
        assert journal.replay().completed == 1

    def test_missing_parent_directories_are_created(self, tmp_path):
        journal = CampaignJournal(tmp_path / "a" / "b" / "j.jsonl",
                                  fsync=False)
        journal.cell_done(0, "k0", "a", payload(1))
        journal.close()
        assert read_journal(journal.path).completed == 1

    @pytest.mark.parametrize("fsync", [True, False])
    def test_fsync_follows_the_setting(self, tmp_path, monkeypatch,
                                       fsync):
        calls = []
        monkeypatch.setattr(os, "fsync", calls.append)
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=fsync)
        journal.cell_done(0, "k0", "a", payload(1))
        journal.cell_failed(1, "k1", "b", "boom")
        journal.close()
        assert len(calls) == (2 if fsync else 0)


class TestDamageTolerance:
    def test_torn_tail_flagged_not_counted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, fsync=False)
        journal.cell_done(0, "k0", "a", payload(1))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell_done", "key": "k1", "resu')
        replay = read_journal(path)
        assert replay.torn_tail
        assert replay.corrupt_records == 0
        assert replay.results == {"k0": payload(1)}

    def test_mid_file_corruption_counted_and_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, fsync=False)
        journal.cell_done(0, "k0", "a", payload(1))
        journal.close()
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("not json at all\n" + "".join(lines))
        replay = read_journal(path)
        assert replay.corrupt_records == 1
        assert not replay.torn_tail
        assert replay.results == {"k0": payload(1)}

    def test_unknown_format_records_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = {
            "type": "cell_done", "key": "k9", "result": payload(9),
            "format": JOURNAL_FORMAT + 1,
        }
        path.write_text(json.dumps(record) + "\n")
        replay = read_journal(path)
        assert replay.results == {}
        assert replay.corrupt_records == 1

    def test_done_record_without_payload_counted_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = {
            "type": "cell_done", "key": "k0", "result": "not-a-dict",
            "format": JOURNAL_FORMAT,
        }
        path.write_text(json.dumps(record) + "\n")
        replay = read_journal(path)
        assert replay.results == {}
        assert replay.corrupt_records == 1

    def test_blank_lines_are_neither_records_nor_damage(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, fsync=False)
        journal.cell_done(0, "k0", "a", payload(1))
        journal.close()
        path.write_text("\n" + path.read_text() + "\n  \n")
        replay = read_journal(path)
        assert replay.records == 1
        assert replay.corrupt_records == 0
        assert not replay.torn_tail

    def test_record_without_a_type_counted_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        records = [
            {"key": "k0", "result": payload(1),
             "format": JOURNAL_FORMAT},
            ["cell_done", "k1"],
        ]
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        replay = read_journal(path)
        assert replay.records == 0
        assert replay.corrupt_records == 2
