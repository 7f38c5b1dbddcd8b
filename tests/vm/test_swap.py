"""Unit tests for the swap device and its paging-I/O counts."""

from repro.common.params import FaultTiming
from repro.vm.swap import SwapStats
from repro.workloads.base import WRITE

from tests.conftest import make_machine, simple_space


class TestDevice:
    def test_dirty_eviction_writes_an_image(self):
        space_map, regions = simple_space()
        machine = make_machine(
            space_map, fault_timing=FaultTiming(page_io=777),
        )
        heap = regions["heap"].start
        machine.run([(WRITE, heap)])
        vpn = heap >> machine.page_bits
        assert not machine.swap.has_image(vpn)
        assert machine.vm.evict(vpn) >= 777
        assert machine.swap.has_image(vpn)
        assert machine.swap.stats.page_outs == 1


class TestDeviceState:
    def test_new_device_has_no_images(self):
        from repro.vm.swap import SwapDevice
        device = SwapDevice()
        assert device.images == set()
        assert not device.has_image(0)

    def test_io_cycles_follow_fault_timing(self):
        space_map, _ = simple_space()
        machine = make_machine(
            space_map, fault_timing=FaultTiming(page_io=777),
        )
        assert machine.swap.io_cycles == 777

    def test_stats_start_at_zero(self):
        stats = SwapStats()
        assert (stats.page_ins, stats.page_outs, stats.zero_fills) == (
            0, 0, 0)
        assert (stats.potentially_modified, stats.not_modified) == (0, 0)
