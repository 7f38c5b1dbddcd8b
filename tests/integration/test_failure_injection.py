"""Failure injection and pathological-configuration robustness."""

import pytest

from repro.common.errors import ConfigurationError, ProtectionFault
from repro.counters.counters import COUNTER_MODULUS
from repro.counters.events import Event
from repro.workloads.base import READ, WRITE

from tests.conftest import TINY_PAGE, make_machine, simple_space


class TestCounterWraparound:
    def test_mid_run_wraparound_keeps_deltas_correct(self):
        space_map, regions = simple_space()
        machine = make_machine(space_map)
        heap = regions["heap"].start
        # Pre-load the counter to the edge of 32 bits, as a counter
        # on a long-lived prototype would be.
        machine.counters.increment(
            Event.PROCESSOR_READ, COUNTER_MODULUS - 5
        )
        before = machine.snapshot()
        machine.run([(READ, heap)] * 10)
        delta = machine.snapshot() - before
        assert delta[Event.PROCESSOR_READ] == 10
        # The raw register wrapped.
        assert machine.counters.read(Event.PROCESSOR_READ) == 5


class TestFaultMidTrace:
    def test_protection_fault_leaves_machine_consistent(self):
        space_map, regions = simple_space()
        machine = make_machine(space_map)
        heap = regions["heap"].start
        code = regions["code"].start
        machine.run([(WRITE, heap)])
        with pytest.raises(ProtectionFault):
            machine.run([(READ, heap), (WRITE, code), (READ, heap)])
        # The fault aborted the run mid-trace; the machine remains
        # usable and consistent.
        machine.run([(READ, heap), (WRITE, heap + 32)])
        frame_table = machine.vm.frame_table
        for frame in range(frame_table.num_frames):
            vpn = frame_table.owner(frame)
            if vpn is not None:
                assert machine.page_table.lookup(vpn).valid


class TestPathologicalWatermarks:
    def test_one_frame_headroom_still_progresses(self):
        # low=1/high=1: the daemon reclaims a single frame at a time.
        space_map, regions = simple_space(heap_pages=32)
        machine = make_machine(
            space_map, memory_bytes=8 * TINY_PAGE, wired_frames=2,
            low_water=1, high_water=1,
        )
        heap = regions["heap"]
        machine.run([
            (WRITE, heap.start + i * TINY_PAGE) for i in range(30)
        ])
        assert machine.counters.read(Event.PAGE_RECLAIM) > 0

    def test_high_water_consuming_memory_rejected(self):
        space_map, _ = simple_space()
        with pytest.raises(ConfigurationError):
            make_machine(
                space_map, memory_bytes=8 * TINY_PAGE,
                wired_frames=2, low_water=6, high_water=6,
            )


class TestTinyMemory:
    def test_three_usable_frames_thrash_but_work(self):
        # Memory barely larger than the watermarks: every reference
        # to a new page evicts another.  Must stay correct.
        space_map, regions = simple_space(heap_pages=16)
        machine = make_machine(
            space_map, memory_bytes=6 * TINY_PAGE, wired_frames=1,
            low_water=1, high_water=2,
        )
        heap = regions["heap"]
        machine.run([
            (WRITE, heap.start + (i % 16) * TINY_PAGE)
            for i in range(200)
        ])
        frame_table = machine.vm.frame_table
        assert frame_table.resident_count() <= 5
        # Heavy swap churn, conservatively consistent.
        stats = machine.swap.stats
        assert stats.page_ins > 0
        assert stats.page_outs > 0


class TestDaemonStarvation:
    def test_everything_referenced_still_reclaims_on_second_lap(self):
        # All resident pages referenced: the clock must clear on lap
        # one and reclaim on lap two rather than spin.
        space_map, regions = simple_space(heap_pages=16)
        machine = make_machine(
            space_map, memory_bytes=8 * TINY_PAGE, wired_frames=2,
        )
        heap = regions["heap"]
        machine.run([
            (READ, heap.start + i * TINY_PAGE) for i in range(5)
        ])
        # Everything is referenced now; force a run needing frames.
        machine.run([
            (READ, heap.start + i * TINY_PAGE) for i in range(5, 16)
        ])
        assert machine.vm.allocator.free_count >= 1
