"""Free-frame allocator.

A LIFO free list over the allocatable frames of a
:class:`repro.vm.frames.FrameTable`.  It never blocks; when it runs
low the VM system reclaims frames through the page daemon before
taking one.  :class:`OutOfFramesError` therefore indicates a
VM-system logic error (asked without reclaiming), not a recoverable
condition, and the system tests assert it never escapes.
"""

from repro.common.errors import ReproError


class OutOfFramesError(ReproError):
    """Allocation was attempted with no free frames available."""


class FrameAllocator:
    """The LIFO free list over a frame table's allocatable frames."""

    def __init__(self, frame_table):
        self.frame_table = frame_table
        #: Free frames, next to allocate last.  The VM's fault path
        #: pops from it and its eviction path appends to it.
        self.free_frames = list(
            range(frame_table.num_frames - 1,
                  frame_table.wired_frames - 1, -1)
        )

    @property
    def free_count(self):
        return len(self.free_frames)
