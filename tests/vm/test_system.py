"""Unit/integration tests for the VM system, driven via the machine."""

import pytest

from repro.common.errors import ProtectionFault
from repro.common.types import PageKind
from repro.counters.events import Event
from repro.workloads.base import IFETCH, READ, WRITE

from tests.conftest import TINY_PAGE, make_machine, simple_space


def small_memory_machine(**overrides):
    """A machine whose memory (14 usable frames) is easily pressured."""
    space_map, regions = simple_space(heap_pages=32)
    machine = make_machine(
        space_map, memory_bytes=16 * TINY_PAGE, wired_frames=2,
        **overrides,
    )
    return machine, regions


class TestPageFaults:
    def test_first_heap_touch_zero_fills(self, machine):
        heap = machine.test_regions["heap"].start
        machine.run([(WRITE, heap)])
        assert machine.swap.stats.zero_fills == 1
        assert machine.swap.stats.page_ins == 0
        vpn = heap >> machine.page_bits
        assert machine.page_table.lookup(vpn).valid

    def test_first_file_touch_pages_in(self, machine):
        file_addr = machine.test_regions["file"].start
        machine.run([(READ, file_addr)])
        assert machine.swap.stats.page_ins == 1
        assert machine.swap.stats.zero_fills == 0

    def test_code_fetch_pages_in(self, machine):
        code = machine.test_regions["code"].start
        machine.run([(IFETCH, code)])
        assert machine.swap.stats.page_ins == 1

    def test_fault_assigns_frame(self, machine):
        heap = machine.test_regions["heap"].start
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        page = machine.vm.page(vpn)
        assert page.resident
        assert machine.vm.frame_table.owner(page.frame) == vpn

    def test_fault_maps_clean_and_referenced(self, machine):
        heap = machine.test_regions["heap"].start
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        pte = machine.page_table.lookup(vpn)
        assert pte.valid
        assert pte.ppn == machine.vm.pages[vpn].frame
        assert pte.protection is machine.map_protections[True]
        # Sprite maps zero-fill pages clean so the first write faults;
        # the faulting access sets the reference bit for free.
        assert not pte.dirty and not pte.software_dirty
        assert pte.referenced
        assert pte.kind is PageKind.ZERO_FILL

    def test_refault_reuses_entry_with_fresh_bits(self, machine):
        heap = machine.test_regions["heap"].start
        machine.run([(WRITE, heap)])
        vpn = heap >> machine.page_bits
        pte = machine.page_table.lookup(vpn)
        assert pte.dirty
        machine.vm.evict(vpn)
        assert not pte.valid and vpn in machine.page_table
        machine.run([(READ, heap)])
        assert machine.page_table.lookup(vpn) is pte
        assert pte.valid and not pte.dirty
        assert pte.kind is PageKind.SWAP

    def test_second_access_no_new_fault(self, machine):
        heap = machine.test_regions["heap"].start
        machine.run([(READ, heap), (READ, heap + 4)])
        assert machine.counters.read(Event.PAGE_FAULT) == 1

    def test_unmapped_address_faults(self, machine):
        with pytest.raises(ProtectionFault):
            machine.run([(READ, 0x00F0_0000)])

    def test_write_to_code_region_faults(self, machine):
        code = machine.test_regions["code"].start
        with pytest.raises(ProtectionFault):
            machine.run([(WRITE, code)])

    def test_write_to_file_region_faults(self, machine):
        file_addr = machine.test_regions["file"].start
        with pytest.raises(ProtectionFault):
            machine.run([(WRITE, file_addr)])

    def test_write_miss_to_code_faults_too(self, machine):
        # The write path checks writability both on hits and misses.
        code = machine.test_regions["code"].start
        machine.run([(IFETCH, code)])
        with pytest.raises(ProtectionFault):
            machine.run([(WRITE, code + 4)])


class TestEviction:
    def touch_pages(self, machine, region, count, op=WRITE):
        page = TINY_PAGE
        machine.run([
            (op, region.start + i * page) for i in range(count)
        ])

    def test_pressure_triggers_reclaim(self):
        machine, regions = small_memory_machine()
        self.touch_pages(machine, regions["heap"], 30)
        assert machine.counters.read(Event.PAGE_RECLAIM) > 0
        resident = machine.vm.frame_table.resident_count()
        assert resident <= machine.vm.frame_table.allocatable_frames

    def test_dirty_page_paged_out(self):
        machine, regions = small_memory_machine()
        self.touch_pages(machine, regions["heap"], 30, op=WRITE)
        assert machine.swap.stats.page_outs > 0

    def test_zero_fill_page_paged_out_even_if_clean(self):
        # Sprite writes zero-fill pages to swap on first replacement
        # (paper footnote 4).
        machine, regions = small_memory_machine()
        self.touch_pages(machine, regions["heap"], 30, op=READ)
        reclaims = machine.counters.read(Event.PAGE_RECLAIM)
        assert reclaims > 0
        assert machine.swap.stats.page_outs >= reclaims

    def test_clean_file_page_not_paged_out(self):
        machine, regions = small_memory_machine()
        # Fill memory with file pages only (read-only, clean).
        space_pages = regions["file"].size // TINY_PAGE
        self.touch_pages(machine, regions["file"], space_pages, op=READ)
        self.touch_pages(machine, regions["code"], 4, op=IFETCH)
        # Force pressure via heap.
        self.touch_pages(machine, regions["heap"], 28, op=READ)
        # File/code pages reclaimed along the way wrote nothing: page
        # outs must equal zero-fill replacements, not total reclaims.
        outs = machine.swap.stats.page_outs
        zero_fill_out_candidates = machine.swap.stats.zero_fills
        assert outs <= zero_fill_out_candidates

    def test_evicted_page_comes_back_from_swap(self):
        machine, regions = small_memory_machine()
        heap = regions["heap"]
        first = heap.start
        machine.run([(WRITE, first)])
        vpn = first >> machine.page_bits
        self.touch_pages(machine, heap, 32)  # evict `first` eventually
        if machine.page_table.lookup(vpn).valid:
            pytest.skip("page survived pressure; enlarge the test")
        page_ins_before = machine.swap.stats.page_ins
        machine.run([(READ, first)])
        assert machine.swap.stats.page_ins == page_ins_before + 1
        assert machine.page_table.entry(vpn).kind is PageKind.SWAP

    def test_eviction_flushes_cache_lines(self):
        machine, regions = small_memory_machine()
        heap = regions["heap"]
        machine.run([(WRITE, heap.start)])
        # Keep the block cached, then force the page out.
        self.touch_pages(machine, heap, 32)
        vpn = heap.start >> machine.page_bits
        if machine.page_table.lookup(vpn).valid:
            pytest.skip("page survived pressure; enlarge the test")
        assert machine.cache.lines_of_page(
            heap.start, TINY_PAGE
        ) == []

    def test_eviction_clears_pte_state(self):
        machine, regions = small_memory_machine()
        heap = regions["heap"]
        machine.run([(WRITE, heap.start)])
        vpn = heap.start >> machine.page_bits
        self.touch_pages(machine, heap, 32)
        pte = machine.page_table.lookup(vpn)
        if pte.valid:
            pytest.skip("page survived pressure; enlarge the test")
        assert not pte.dirty and not pte.software_dirty
        assert not pte.referenced

    def test_writable_replacement_accounting(self):
        machine, regions = small_memory_machine()
        self.touch_pages(machine, regions["heap"], 30, op=WRITE)
        stats = machine.swap.stats
        assert stats.potentially_modified > 0
        # Every heap page was written before eviction.
        assert stats.not_modified == 0

    def test_clean_writable_replacement_counted(self):
        machine, regions = small_memory_machine()
        self.touch_pages(machine, regions["heap"], 30, op=READ)
        stats = machine.swap.stats
        assert stats.potentially_modified > 0
        assert stats.not_modified == stats.potentially_modified

    def test_allocator_never_exhausts(self):
        machine, regions = small_memory_machine()
        # Interleaved sweeps far exceeding memory must never raise
        # OutOfFramesError (the daemon must always reclaim in time).
        for sweep in range(3):
            self.touch_pages(machine, regions["heap"], 32)


class TestVmBookkeeping:
    def test_page_record_created_once(self, machine):
        heap = machine.test_regions["heap"].start
        vpn = heap >> machine.page_bits
        record = machine.vm.page(vpn)
        assert machine.vm.page(vpn) is record
        assert record.region is machine.test_regions["heap"]
        assert not record.resident

    def test_page_record_of_unmapped_address_raises(self, machine):
        with pytest.raises(ProtectionFault):
            machine.vm.page(0)

    def test_evicting_an_untouched_page_rejected(self, machine):
        from repro.common.errors import ConfigurationError
        heap = machine.test_regions["heap"].start
        with pytest.raises(ConfigurationError):
            machine.vm.evict(heap >> machine.page_bits)

    def test_evicting_twice_rejected(self, machine):
        from repro.common.errors import ConfigurationError
        heap = machine.test_regions["heap"].start
        machine.run([(WRITE, heap)])
        vpn = heap >> machine.page_bits
        machine.vm.evict(vpn)
        with pytest.raises(ConfigurationError):
            machine.vm.evict(vpn)

    def test_page_ins_count_residencies(self, machine):
        heap = machine.test_regions["heap"].start
        vpn = heap >> machine.page_bits
        machine.run([(WRITE, heap)])
        machine.vm.evict(vpn)
        machine.run([(READ, heap)])
        assert machine.vm.pages[vpn].page_ins == 2

    def test_resident_pages_lists_only_resident(self, machine):
        heap = machine.test_regions["heap"].start
        machine.run([(READ, heap), (READ, heap + TINY_PAGE)])
        first = heap >> machine.page_bits
        machine.vm.evict(first)
        assert machine.vm.resident_pages() == [first + 1]

    def test_fault_totals_match_the_counters(self):
        machine, regions = small_memory_machine()
        machine.run([
            (WRITE, regions["heap"].start + i * TINY_PAGE)
            for i in range(30)
        ])
        stats = machine.vm.stats
        assert stats.page_faults == machine.counters.read(
            Event.PAGE_FAULT
        )
        assert stats.page_faults == 30
        assert 0 < stats.daemon_cycles < stats.fault_cycles


class TestFaultCosts:
    def test_zero_fill_fault_cost(self, machine):
        vpn = machine.test_regions["heap"].start >> machine.page_bits
        cycles = machine.vm.handle_page_fault(vpn)
        assert cycles == (
            machine.fault_timing.page_fault_service
            + machine.zero_fill_cycles
        )
        assert machine.vm.stats.fault_cycles == cycles

    def test_file_fault_cost(self, machine):
        vpn = machine.test_regions["file"].start >> machine.page_bits
        cycles = machine.vm.handle_page_fault(vpn)
        assert cycles == (
            machine.fault_timing.page_fault_service
            + machine.swap.io_cycles
        )

    def test_fault_cycles_accumulate(self, machine):
        heap = machine.test_regions["heap"].start >> machine.page_bits
        file = machine.test_regions["file"].start >> machine.page_bits
        total = (machine.vm.handle_page_fault(heap)
                 + machine.vm.handle_page_fault(file))
        assert machine.vm.stats.fault_cycles == total

    def test_out_of_frames_when_the_daemon_reclaims_nothing(self, machine):
        from repro.vm.allocator import OutOfFramesError
        machine.vm.allocator.free_frames.clear()
        vpn = machine.test_regions["heap"].start >> machine.page_bits
        with pytest.raises(OutOfFramesError):
            machine.vm.handle_page_fault(vpn)

    def test_clean_eviction_costs_no_io(self, machine):
        file = machine.test_regions["file"].start
        machine.run([(READ, file)])
        cycles = machine.vm.evict(file >> machine.page_bits)
        assert cycles < machine.swap.io_cycles
        assert machine.swap.stats.page_outs == 0


class TestSwapRoundTrip:
    def test_clean_swapped_page_not_rewritten(self, machine):
        # A zero-fill page goes to swap on its first replacement even
        # when clean; once it has an image, a clean copy is dropped.
        heap = machine.test_regions["heap"].start
        vpn = heap >> machine.page_bits
        machine.run([(READ, heap)])
        machine.vm.evict(vpn)
        assert machine.swap.stats.page_outs == 1
        machine.run([(READ, heap)])
        assert machine.page_table.entry(vpn).kind is PageKind.SWAP
        machine.vm.evict(vpn)
        assert machine.swap.stats.page_outs == 1
        assert machine.swap.stats.page_ins == 1

    def test_dirtied_swapped_page_rewritten(self, machine):
        heap = machine.test_regions["heap"].start
        vpn = heap >> machine.page_bits
        machine.run([(READ, heap)])
        machine.vm.evict(vpn)
        machine.run([(WRITE, heap)])
        machine.vm.evict(vpn)
        assert machine.swap.stats.page_outs == 2

    def test_file_page_refaults_from_the_file(self, machine):
        file = machine.test_regions["file"].start
        vpn = file >> machine.page_bits
        machine.run([(READ, file)])
        machine.vm.evict(vpn)
        machine.run([(READ, file)])
        assert machine.swap.stats.page_ins == 2
        assert not machine.swap.has_image(vpn)
        assert machine.page_table.entry(vpn).kind is PageKind.FILE
