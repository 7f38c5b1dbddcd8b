"""Unit tests for the free-frame list the VM allocates from."""

import pytest

from repro.vm.allocator import FrameAllocator, OutOfFramesError
from repro.vm.frames import FrameTable
from repro.workloads.base import READ

from tests.conftest import TINY_PAGE, make_machine, simple_space


def make_allocator(frames=8, wired=2):
    return FrameAllocator(FrameTable(frames, wired_frames=wired))


def heap_machine():
    space_map, regions = simple_space(heap_pages=8)
    machine = make_machine(
        space_map, memory_bytes=8 * TINY_PAGE, wired_frames=2,
    )
    return machine, regions["heap"].start


class TestAllocation:
    def test_free_count_excludes_wired(self):
        assert make_allocator(8, 2).free_count == 6

    def test_faults_never_take_wired_frames(self):
        machine, heap = heap_machine()
        # Four faults leave the pool at the daemon's low-water mark.
        machine.run([(READ, heap + i * TINY_PAGE) for i in range(4)])
        assert machine.vm.daemon.runs == 0
        frames = {machine.vm.pages[vpn].frame
                  for vpn in machine.vm.resident_pages()}
        assert len(frames) == 4
        assert all(frame >= 2 for frame in frames)

    def test_evicted_frame_is_reused_first(self):
        machine, heap = heap_machine()
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        frame = machine.vm.pages[vpn].frame
        machine.vm.evict(vpn)
        assert machine.vm.allocator.free_count == 6
        machine.run([(READ, heap + TINY_PAGE)])
        assert machine.vm.pages[vpn + 1].frame == frame  # LIFO reuse

    def test_fault_with_nothing_to_reclaim_raises(self):
        machine, heap = heap_machine()
        machine.vm.allocator.free_frames.clear()
        with pytest.raises(OutOfFramesError):
            machine.run([(READ, heap)])
