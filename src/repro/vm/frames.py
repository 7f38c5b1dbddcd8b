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
        # Frames [0, wired_frames) are the kernel's; the rest start free.
        self._owner = [FREE] * num_frames

    @property
    def allocatable_frames(self):
        return self.num_frames - self.wired_frames

    def owner(self, frame):
        """Virtual page number occupying ``frame``, or ``None``."""
        vpn = self._owner[frame]
        return None if vpn == FREE else vpn

    def is_free(self, frame):
        """Whether no page occupies ``frame``."""
        return self._owner[frame] == FREE

    def assign(self, frame, vpn):
        """Record that ``vpn`` now occupies ``frame``."""
        if frame < self.wired_frames:
            raise ConfigurationError(
                f"frame {frame} is wired and cannot hold page {vpn}"
            )
        if self._owner[frame] != FREE:
            raise ConfigurationError(
                f"frame {frame} already holds page {self._owner[frame]}"
            )
        self._owner[frame] = vpn

    def release(self, frame):
        """Mark ``frame`` free, returning its previous occupant."""
        vpn = self._owner[frame]
        if vpn == FREE:
            raise ConfigurationError(f"frame {frame} is already free")
        self._owner[frame] = FREE
        return vpn

    def resident_count(self):
        """Number of occupied allocatable frames."""
        return sum(
            1
            for frame in range(self.wired_frames, self.num_frames)
            if self._owner[frame] != FREE
        )
