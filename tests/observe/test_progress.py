"""CampaignProgress counting, rendering, and ETA behaviour."""

import io

from repro.observe.progress import CampaignProgress


class TtyStream(io.StringIO):
    """A StringIO that claims to be a terminal."""

    def isatty(self):
        return True


class TestCoerce:
    def test_falsy_disables(self):
        assert CampaignProgress.coerce(None, 10) is None
        assert CampaignProgress.coerce(False, 10) is None

    def test_true_builds_reporter(self):
        progress = CampaignProgress.coerce(True, 10)
        assert isinstance(progress, CampaignProgress)
        assert progress.total == 10

    def test_instance_adopted_and_armed(self):
        mine = CampaignProgress(stream=io.StringIO())
        adopted = CampaignProgress.coerce(mine, 7)
        assert adopted is mine
        assert mine.total == 7


class TestCounting:
    def test_counts_and_status_line(self):
        stream = io.StringIO()
        progress = CampaignProgress(total=5, stream=stream)
        progress.cell_finished()
        progress.cell_cached()
        progress.cell_failed()

        assert (
            progress.done, progress.computed, progress.cached,
            progress.failed,
        ) == (3, 1, 1, 1)
        line = progress.status_line()
        assert "3/5 cells done" in line
        assert "1 computed" in line
        assert "1 cached" in line
        assert "1 FAILED" in line
        assert "elapsed" in line

    def test_cached_and_computed_reported_separately(self):
        progress = CampaignProgress(total=4, stream=io.StringIO())
        progress.cell_cached()
        progress.cell_cached()
        progress.cell_finished()
        assert progress.cached == 2
        assert progress.computed == 1
        line = progress.status_line()
        assert "2 cached" in line and "1 computed" in line

    def test_eta_ignores_cache_hits(self):
        progress = CampaignProgress(total=5, stream=io.StringIO())
        progress.cell_cached()
        progress.cell_cached()
        # Only resolved cells so far: no basis for an estimate.
        assert progress.eta_seconds() is None
        progress.cell_finished()
        eta = progress.eta_seconds()
        assert eta is not None and eta >= 0.0
        progress.cell_finished()
        progress.cell_finished()
        assert progress.eta_seconds() == 0.0

    def test_unknown_total(self):
        progress = CampaignProgress(stream=io.StringIO())
        progress.cell_finished()
        assert progress.eta_seconds() is None
        assert "1/? cells done" in progress.status_line()


class TestRendering:
    def test_plain_stream_one_line_per_update(self):
        stream = io.StringIO()
        progress = CampaignProgress(total=2, stream=stream)
        progress.cell_finished()
        progress.cell_finished()
        progress.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("campaign:") for line in lines)

    def test_tty_redraws_in_place(self):
        stream = TtyStream()
        progress = CampaignProgress(total=2, stream=stream)
        progress.cell_finished()
        progress.cell_finished()
        progress.finish()
        output = stream.getvalue()
        assert output.count("\r\x1b[2K") == 2
        assert output.endswith("\n")

    def test_start_rearms(self):
        progress = CampaignProgress(total=2, stream=io.StringIO())
        progress.cell_finished()
        progress.start(5)
        assert (progress.total, progress.done) == (5, 0)
