"""Live campaign progress: cells done / cached / failed, with an ETA.

A :class:`CampaignProgress` is fed by
:func:`repro.parallel.execute_cells` as cells resolve and renders a
one-line status after every update::

    campaign: 12/40 done | 6 computed | 5 cached | 1 FAILED | 34.2s elapsed | eta 81s

On a TTY the line redraws in place (carriage return); on anything else
each update is its own line, so CI logs show the trajectory.

Cells that were *computed* (simulated this run, successfully or not)
and cells that were merely *resolved* (cache hits) are tracked
separately and both reported: resolved cells cost microseconds, so the
ETA divides elapsed wall-clock by computed cells only — counting hits
as full-speed completions would make the estimate absurdly optimistic
right after a warm start or resume.
"""

import sys
import time


class CampaignProgress:
    """Counts campaign cells and renders a status line per update.

    Parameters
    ----------
    total:
        Expected cell count; settable later via :meth:`start` (which
        :func:`execute_cells` calls with the real total).
    stream:
        Output stream; defaults to ``sys.stderr``.
    label:
        Noun for the units, e.g. ``"cells"``.
    """

    def __init__(self, total=None, stream=None, label="cells"):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.done = 0
        self.cached = 0
        self.computed = 0
        self.failed = 0
        self._started = time.perf_counter()

    @classmethod
    def coerce(cls, progress, total):
        """Normalise an options-style progress value.

        ``None``/``False`` disable progress; ``True`` builds a stderr
        reporter; an existing :class:`CampaignProgress` is adopted
        (and told the total).  Returns ``None`` or the reporter.
        """
        if not progress:
            return None
        if progress is True:
            progress = cls()
        progress.start(total)
        return progress

    def start(self, total):
        """(Re)arm the reporter for a campaign of *total* cells."""
        self.total = total
        self.done = 0
        self.cached = 0
        self.computed = 0
        self.failed = 0
        self._started = time.perf_counter()

    # -- feeding ---------------------------------------------------------

    def cell_cached(self):
        """One cell resolved from the result cache."""
        self.done += 1
        self.cached += 1
        self.render()

    def cell_finished(self):
        """One cell simulated successfully (a *computed* completion)."""
        self.done += 1
        self.computed += 1
        self.render()

    def cell_failed(self):
        """One cell raised; the campaign degrades but continues."""
        self.done += 1
        self.failed += 1
        self.render()

    # -- rendering -------------------------------------------------------

    @property
    def elapsed_seconds(self):
        """Wall-clock seconds since :meth:`start`."""
        return time.perf_counter() - self._started

    def eta_seconds(self):
        """Estimated seconds remaining, or ``None`` if unknowable.

        Based on *computed* completions only (successes and failures
        that actually simulated); cache hits cost microseconds and
        must not dilute the per-cell average.
        """
        if self.total is None:
            return None
        worked = self.computed + self.failed
        remaining = self.total - self.done
        if worked <= 0 or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        return self.elapsed_seconds / worked * remaining

    def status_line(self):
        """The current one-line status."""
        total = "?" if self.total is None else self.total
        parts = [f"campaign: {self.done}/{total} {self.label} done"]
        if self.computed:
            parts.append(f"{self.computed} computed")
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        parts.append(f"{self.elapsed_seconds:.1f}s elapsed")
        eta = self.eta_seconds()
        if eta is not None and self.done < (self.total or 0):
            parts.append(f"eta {eta:.0f}s")
        return " | ".join(parts)

    def render(self):
        """Write the status line (redrawing in place on a TTY)."""
        line = self.status_line()
        if getattr(self.stream, "isatty", lambda: False)():
            self.stream.write("\r\x1b[2K" + line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def finish(self):
        """Terminate the in-place line (TTY) after the last update."""
        if getattr(self.stream, "isatty", lambda: False)():
            self.stream.write("\n")
            self.stream.flush()

    def __repr__(self):
        return (
            f"CampaignProgress({self.done}/{self.total}, "
            f"{self.computed} computed, {self.cached} cached, "
            f"{self.failed} failed)"
        )


__all__ = ["CampaignProgress"]
