"""The swap device and paging-I/O accounting.

Models backing store at page granularity: which pages currently have a
swap image, how many page-ins and page-outs have occurred, and the
classification the paper's Table 3.5 reports — of the writable pages
replaced, how many were actually modified (needed the write) and how
many were clean (the write a dirty-bit-less system would waste).
"""

from dataclasses import dataclass
from typing import Set


@dataclass
class SwapStats:
    """Cumulative paging-I/O accounting."""

    page_ins: int = 0            # pages read from file or swap
    page_outs: int = 0           # pages written to swap
    zero_fills: int = 0          # pages created by zeroing (no I/O)
    potentially_modified: int = 0  # writable pages replaced
    not_modified: int = 0        # ... of those, clean at replacement

    @property
    def percent_not_modified(self):
        """Column 7 of Table 3.5: clean fraction of writable replacements."""
        if self.potentially_modified == 0:
            return 0.0
        return 100.0 * self.not_modified / self.potentially_modified

    @property
    def percent_additional_io(self):
        """Column 8 of Table 3.5.

        Without dirty bits every writable replacement is written out;
        the additional I/Os are exactly the clean ones, expressed as a
        percentage of the paging I/O actually performed.
        """
        actual_io = self.page_ins + self.page_outs
        if actual_io == 0:
            return 0.0
        return 100.0 * self.not_modified / actual_io


class SwapDevice:
    """Backing store for anonymous (zero-fill) and dirtied pages.

    File-backed page-ins are counted here too — the device stands in
    for the whole paging I/O path, as the paper's page-in numbers do.
    """

    def __init__(self, io_cycles=120_000):
        #: Cycles of one page read or write.
        self.io_cycles = io_cycles
        #: The VM's fault and eviction paths count into these in place.
        self.stats = SwapStats()
        #: vpns written to swap at least once and not yet dropped.
        self.images: Set[int] = set()

    def has_image(self, vpn):
        """True if ``vpn`` has been written to swap before."""
        return vpn in self.images

    def drop_image(self, vpn):
        """Forget a page's swap image (process exit)."""
        self.images.discard(vpn)
