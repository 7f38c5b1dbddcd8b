"""Unit tests for the frame table."""

import pytest

from repro.common.errors import ConfigurationError
from repro.vm.frames import FREE, FrameTable
from repro.workloads.base import READ

from tests.conftest import make_machine, simple_space


class TestConstruction:
    def test_basic(self):
        table = FrameTable(8, wired_frames=2)
        assert table.allocatable_frames == 6
        assert table.resident_count() == 0

    def test_rejects_zero_frames(self):
        with pytest.raises(ConfigurationError):
            FrameTable(0)

    def test_rejects_all_wired(self):
        with pytest.raises(ConfigurationError):
            FrameTable(4, wired_frames=4)


def faulted_machine():
    """A tiny machine with one resident heap page: ``(machine, vpn)``."""
    space_map, regions = simple_space()
    machine = make_machine(space_map)
    heap = regions["heap"].start
    machine.run([(READ, heap)])
    return machine, heap >> machine.page_bits


class TestAssignment:
    """The VM's fault and eviction paths keep the table in place."""

    def test_fault_assigns_and_evict_releases(self):
        machine, vpn = faulted_machine()
        table = machine.vm.frame_table
        frame = machine.vm.pages[vpn].frame
        assert table.owner(frame) == vpn
        assert not table.is_free(frame)
        assert table.resident_count() == 1
        machine.vm.evict(vpn)
        assert table.is_free(frame)
        assert table.resident_count() == 0

    def test_occupied_frame_not_assignable(self):
        machine, vpn = faulted_machine()
        free_frames = machine.vm.allocator.free_frames
        free_frames.append(machine.vm.pages[vpn].frame)
        with pytest.raises(ConfigurationError):
            machine.vm.handle_page_fault(vpn + 1)

    def test_wired_frames_not_assignable(self):
        machine, vpn = faulted_machine()
        machine.vm.allocator.free_frames.append(1)
        with pytest.raises(ConfigurationError):
            machine.vm.handle_page_fault(vpn + 1)

    def test_double_free_rejected(self):
        machine, vpn = faulted_machine()
        table = machine.vm.frame_table
        table.owners[machine.vm.pages[vpn].frame] = FREE
        with pytest.raises(ConfigurationError):
            machine.vm.evict(vpn)

    def test_owner_of_free_frame_is_none(self):
        assert FrameTable(8).owner(0) is None

    def test_owner_reports_the_occupant(self):
        table = FrameTable(8, wired_frames=2)
        table.owners[3] = 42
        assert table.owner(3) == 42
        assert not table.is_free(3)

    def test_resident_count_ignores_wired_frames(self):
        table = FrameTable(8, wired_frames=2)
        table.owners[0] = 7      # a wired frame is not resident
        table.owners[5] = 9
        assert table.resident_count() == 1


class TestAllocator:
    def test_free_list_holds_only_allocatable_frames(self):
        from repro.vm.allocator import FrameAllocator
        allocator = FrameAllocator(FrameTable(8, wired_frames=2))
        assert sorted(allocator.free_frames) == [2, 3, 4, 5, 6, 7]
        assert allocator.free_count == 6
        # LIFO: the lowest allocatable frame is handed out first.
        assert allocator.free_frames.pop() == 2
