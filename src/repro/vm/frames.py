"""Physical page-frame bookkeeping (Sprite's "core map").

One record per frame of physical memory, tracking which virtual page
occupies it.  The frame table answers "who owns frame f" and "is frame
f free" — the inverse of the page table's vpn -> ppn mapping — and is
what the page daemon and allocator coordinate through.
"""

from repro.common.errors import ConfigurationError

#: Sentinel for a frame not holding any page.
FREE = -1


class FrameTable:
    """Occupancy map of physical memory.

    Parameters
    ----------
    num_frames:
        Total frames of physical memory.
    wired_frames:
        Frames permanently reserved for the kernel and the wired
        second-level page tables; never allocatable.
    """

    def __init__(self, num_frames, wired_frames=0):
        if num_frames <= 0:
            raise ConfigurationError("need at least one frame")
        if not 0 <= wired_frames < num_frames:
            raise ConfigurationError(
                f"wired_frames {wired_frames} must leave at least one "
                f"allocatable frame of {num_frames}"
            )
        self.num_frames = num_frames
        self.wired_frames = wired_frames
        #: Occupant vpn per frame, or :data:`FREE`.  Frames
        #: [0, wired_frames) are the kernel's; the rest start free.
        #: The VM's fault and eviction paths write it in place, and
        #: check that no page lands on a wired or occupied frame and
        #: no frame is freed twice.
        self.owners = [FREE] * num_frames

    @property
    def allocatable_frames(self):
        return self.num_frames - self.wired_frames

    def owner(self, frame):
        """Virtual page number occupying ``frame``, or ``None``."""
        vpn = self.owners[frame]
        return None if vpn == FREE else vpn

    def is_free(self, frame):
        """Whether no page occupies ``frame``."""
        return self.owners[frame] == FREE

    def resident_count(self):
        """Number of occupied allocatable frames."""
        return sum(
            1
            for frame in range(self.wired_frames, self.num_frames)
            if self.owners[frame] != FREE
        )
