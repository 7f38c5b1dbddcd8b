"""Simulator edge cases beyond the common paths."""

import pytest

from repro.common.types import PageKind
from repro.counters.events import Event
from repro.workloads.base import IFETCH, READ, WRITE

from tests.conftest import TINY_PAGE, make_machine, simple_space


class TestDataRegionDirtyFaults:
    def test_data_page_dirty_fault_is_not_zero_fill(self):
        # File-backed writable data: first write takes a dirty fault,
        # but it is NOT an N_zfod event (the page came from a file).
        space_map, regions = simple_space()
        machine = make_machine(space_map)
        data = regions["data"].start
        machine.run([(WRITE, data)])
        assert machine.counters.read(Event.DIRTY_FAULT) == 1
        assert machine.counters.read(
            Event.ZERO_FILL_DIRTY_FAULT
        ) == 0

    def test_data_page_first_touch_is_a_page_in(self):
        space_map, regions = simple_space()
        machine = make_machine(space_map)
        machine.run([(READ, regions["data"].start)])
        assert machine.swap.stats.page_ins == 1
        vpn = regions["data"].start >> machine.page_bits
        assert machine.page_table.entry(vpn).kind is PageKind.FILE


class TestReDirtyingAfterSwap:
    def test_swap_return_dirty_fault_is_not_zfod(self):
        # A zero-fill page that has been to swap and comes back is a
        # SWAP page: re-dirtying it is a necessary fault but not a
        # zero-fill fault (the distinction Table 3.3 rests on).
        space_map, regions = simple_space(heap_pages=32)
        machine = make_machine(
            space_map, memory_bytes=16 * TINY_PAGE, wired_frames=2
        )
        heap = regions["heap"]
        first = heap.start
        machine.run([(WRITE, first)])
        machine.run([
            (WRITE, heap.start + i * TINY_PAGE) for i in range(32)
        ])
        vpn = first >> machine.page_bits
        if machine.page_table.lookup(vpn).valid:
            pytest.skip("page survived; enlarge the sweep")
        zfod_before = machine.counters.read(
            Event.ZERO_FILL_DIRTY_FAULT
        )
        machine.run([(WRITE, first)])  # page back in, re-dirty
        assert machine.counters.read(
            Event.ZERO_FILL_DIRTY_FAULT
        ) == zfod_before
        assert machine.page_table.entry(vpn).kind is PageKind.SWAP


class TestPteDataConflicts:
    def test_pte_conflict_traffic_is_survivable(self):
        # Hammer addresses whose blocks collide with their own PTE
        # blocks in the tiny cache; correctness must hold (counts
        # conserved), whatever the conflict pattern costs.
        space_map, regions = simple_space(heap_pages=32)
        machine = make_machine(space_map)
        heap = regions["heap"].start
        trace = []
        for i in range(3000):
            trace.append((READ, heap + (i * 23 % 1024) * 4))
            trace.append((WRITE, heap + (i * 41 % 1024) * 4))
        machine.run(trace)
        read = machine.counters.read
        assert read(Event.INSTRUCTION_FETCH) + read(
            Event.PROCESSOR_READ) + read(Event.PROCESSOR_WRITE) == len(trace)
        fills = machine.counters.read(Event.BLOCK_FILL)
        assert fills > 0


class TestRunSegmentation:
    def test_split_runs_equal_one_run(self):
        def drive(split):
            space_map, regions = simple_space()
            machine = make_machine(space_map)
            heap = regions["heap"].start
            trace = [
                (WRITE if i % 4 == 0 else READ,
                 heap + (i * 52) % (16 * TINY_PAGE))
                for i in range(2000)
            ]
            if split:
                machine.run(trace[:700])
                machine.run(trace[700:])
            else:
                machine.run(trace)
            return machine

        one = drive(split=False)
        two = drive(split=True)
        assert one.cycles == two.cycles
        assert (
            one.counters.snapshot().as_dict()
            == two.counters.snapshot().as_dict()
        )

    def test_empty_run_is_harmless(self):
        space_map, _ = simple_space()
        machine = make_machine(space_map)
        assert machine.run([]) == 0
        assert machine.cycles == 0


class TestIfetchFromWritableRegion:
    def test_ifetch_from_heap_is_legal(self):
        # SPUR (like most 1989 machines) did not enforce execute
        # permission; fetching from a writable page is just a read.
        space_map, regions = simple_space()
        machine = make_machine(space_map)
        machine.run([(WRITE, regions["heap"].start),
                     (IFETCH, regions["heap"].start)])
        assert machine.counters.read(Event.INSTRUCTION_FETCH) == 1
