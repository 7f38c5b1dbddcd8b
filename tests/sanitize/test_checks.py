"""Each invariant check fires on hand-corrupted state.

Every test corrupts one array slot (or one record) the way a buggy
code path would, and asserts the matching check raises
``InvariantViolation`` with the documented invariant identifier.
"""

import pytest

from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection
from repro.sanitize import (
    InvariantViolation,
    check_cache_arrays,
    check_dirty_policy,
    check_line,
    check_vm,
)
from repro.workloads.base import READ, WRITE

from tests.conftest import make_machine, simple_space


def small_cache(name="c0"):
    return VirtualCache(
        CacheGeometry(size_bytes=1024, block_bytes=32),
        MemoryTiming(),
        name=name,
    )


def filled_line(cache, vaddr=0x400, by_write=False):
    cache.fill(vaddr, Protection.READ_WRITE, False, by_write)
    index = cache.probe(vaddr)
    assert index >= 0
    return index


def expect_violation(invariant, call, *args, **kwargs):
    with pytest.raises(InvariantViolation) as excinfo:
        call(*args, **kwargs)
    assert excinfo.value.invariant == invariant
    return excinfo.value


class TestLineChecks:
    def test_clean_line_passes(self):
        cache = small_cache()
        index = filled_line(cache)
        check_line(cache, index)
        check_cache_arrays(cache)

    def test_block_number_maps_to_another_line(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.line_block[index] ^= 1
        expect_violation(
            "cache.line-block-index", check_line, cache, index
        )

    def test_block_number_with_same_index_bits_passes(self):
        cache = small_cache()
        index = filled_line(cache)
        # Another tag, same index bits: a legal (if different) block.
        cache.line_block[index] += cache.num_lines
        check_line(cache, index)

    def test_invalid_line_with_stray_block_number(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.invalidate(index)
        cache.line_block[index] = -2
        expect_violation(
            "cache.invalid-quiescent", check_line, cache, index
        )

    def test_valid_line_with_invalid_state(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.state[index] = CoherencyState.INVALID
        expect_violation("cache.valid-state", check_line, cache, index)

    def test_invalid_line_with_residue(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.line_block[index] = -1
        expect_violation(
            "cache.invalid-quiescent", check_line, cache, index
        )

    @pytest.mark.parametrize("dirty", [False, True])
    def test_shared_owner(self, dirty):
        cache = small_cache()
        index = filled_line(cache, by_write=dirty)
        cache.state[index] = CoherencyState.OWNED_SHARED
        expect_violation(
            "cache.no-shared-owner", check_line, cache, index
        )

    def test_dirty_unowned_block(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.block_dirty[index] = True
        cache.state[index] = CoherencyState.UNOWNED
        expect_violation("cache.dirty-owned", check_line, cache, index)

    def test_protection_out_of_range(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.prot[index] = 7
        expect_violation(
            "cache.protection-encoding", check_line, cache, index
        )

    def test_truncated_parallel_array(self):
        # The flat columns are never resized in place, so the length
        # hazard is an attribute rebound to a shorter buffer.
        cache = small_cache()
        filled_line(cache)
        cache.holds_pte = cache.holds_pte[:-1]
        expect_violation(
            "cache.array-lengths", check_cache_arrays, cache
        )

    def test_violation_carries_context(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.line_block[index] ^= 1
        violation = expect_violation(
            "cache.line-block-index", check_line, cache, index, 41
        )
        text = str(violation)
        assert "cache.line-block-index" in text
        assert "c0" in text
        assert violation.ref_index == 41
        assert "line_block" in violation.state


class TestColumnStoreAgreement:
    def test_rebound_alias_same_length(self):
        # An equal-length copy passes the length check but detaches
        # the attribute from the buffer the store and the reference
        # loop share.
        cache = small_cache()
        filled_line(cache)
        cache.page_dirty = bytearray(cache.page_dirty)
        expect_violation(
            "cache.column-store-agreement", check_cache_arrays, cache
        )

    def test_rebound_word_column(self):
        cache = small_cache()
        filled_line(cache)
        cache.line_block = cache.line_block[:]
        expect_violation(
            "cache.column-store-agreement", check_cache_arrays, cache
        )

    def test_non_boolean_flag_byte(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.block_dirty[index] = 2
        expect_violation(
            "cache.column-store-agreement", check_cache_arrays, cache
        )


class TestDirtyPolicyChecks:
    def machine_with_line(self):
        space_map, regions = simple_space()
        machine = make_machine(space_map)
        heap = regions["heap"].start
        machine.run([(READ, heap), (WRITE, heap)])
        index = machine.cache.probe(heap)
        assert index >= 0
        return machine, heap, index

    def test_consistent_machine_passes(self):
        machine, _, _ = self.machine_with_line()
        check_dirty_policy(machine)

    def test_cached_dirty_without_pte_dirty(self):
        machine, heap, index = self.machine_with_line()
        pte = machine.page_table.entry(heap >> machine.page_bits)
        pte.dirty = False
        pte.software_dirty = False
        expect_violation(
            "dirty.copy-not-cleaner", check_dirty_policy, machine
        )

    def test_cached_prot_weaker_than_pte(self):
        machine, heap, index = self.machine_with_line()
        pte = machine.page_table.entry(heap >> machine.page_bits)
        pte.protection = Protection.READ_ONLY
        expect_violation(
            "dirty.protection-not-weaker", check_dirty_policy, machine
        )

    def test_resident_block_of_unmapped_page(self):
        machine, heap, index = self.machine_with_line()
        machine.page_table.entry(heap >> machine.page_bits).valid = False
        expect_violation(
            "dirty.resident-mapped", check_dirty_policy, machine
        )

    def test_write_policy_skips_dirty_copy_check(self):
        space_map, regions = simple_space()
        machine = make_machine(space_map, dirty_policy="WRITE")
        heap = regions["heap"].start
        machine.run([(READ, heap)])
        pte = machine.page_table.entry(heap >> machine.page_bits)
        index = machine.cache.probe(heap)
        # WRITE keeps the cached copy unconditionally set; a clean PTE
        # under a set copy is that policy's normal state, not a breach.
        machine.cache.page_dirty[index] = True
        pte.dirty = False
        pte.software_dirty = False
        check_dirty_policy(machine)


class TestVmChecks:
    def touched_vm(self):
        space_map, regions = simple_space()
        machine = make_machine(space_map)
        heap = regions["heap"].start
        machine.run([(WRITE, heap + i * 128) for i in range(8)])
        return machine.vm

    def test_consistent_vm_passes(self):
        check_vm(self.touched_vm())

    def test_lost_free_frame(self):
        vm = self.touched_vm()
        vm.allocator.free_frames.pop()
        expect_violation("vm.free-list-disjoint", check_vm, vm)

    def test_duplicate_free_frame(self):
        vm = self.touched_vm()
        vm.allocator.free_frames.append(vm.allocator.free_frames[0])
        expect_violation("vm.free-list-disjoint", check_vm, vm)

    def test_frame_double_booked(self):
        vm = self.touched_vm()
        pages = [p for p in vm.pages.values() if p.frame is not None]
        assert len(pages) >= 2
        pages[0].frame = pages[1].frame
        expect_violation("vm.frame-bijection", check_vm, vm)

    def test_pte_frame_disagreement(self):
        vm = self.touched_vm()
        vpn, page = next(
            (vpn, p) for vpn, p in vm.pages.items()
            if p.frame is not None
        )
        vm.page_table.entry(vpn).ppn = page.frame + 1
        expect_violation("vm.pte-frame-agreement", check_vm, vm)

    def test_clock_tracks_an_unmapped_page(self):
        # Unmapping a page without evicting it leaves it on the clock.
        vm = self.touched_vm()
        vpn = vm.daemon.resident_pages()[0]
        vm.page_table.entry(vpn).valid = False
        expect_violation("vm.clock-resident", check_vm, vm)

    def test_clock_tracks_a_page_never_mapped(self):
        vm = self.touched_vm()
        vpn = max(vm.pages) + 1
        assert vm.page_table.peek(vpn) is None
        vm.daemon.note_resident(vpn)
        expect_violation("vm.clock-resident", check_vm, vm)
