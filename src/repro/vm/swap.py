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
    """Cumulative paging-I/O accounting.

    Table 3.5's percentages are derived from these counts by
    :class:`repro.analysis.experiments.Table35Row`.
    """

    page_ins: int = 0            # pages read from file or swap
    page_outs: int = 0           # pages written to swap
    zero_fills: int = 0          # pages created by zeroing (no I/O)
    potentially_modified: int = 0  # writable pages replaced
    not_modified: int = 0        # ... of those, clean at replacement


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
        #: vpns written to swap at least once.
        self.images: Set[int] = set()

    def has_image(self, vpn):
        """True if ``vpn`` has been written to swap before."""
        return vpn in self.images
