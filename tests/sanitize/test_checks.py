"""Each invariant check fires on hand-corrupted state.

Every test corrupts one array slot (or one record) the way a buggy
code path would, and asserts the matching check raises
``InvariantViolation`` with the documented invariant identifier.
"""

import pytest

from repro.cache.bus import SnoopyBus
from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection
from repro.sanitize import (
    InvariantViolation,
    check_block_ownership,
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

    def test_tag_disagreement(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.tags[index] ^= 1
        expect_violation("cache.tag-agreement", check_line, cache, index)

    def test_line_vaddr_maps_elsewhere(self):
        cache = small_cache()
        index = filled_line(cache)
        # Same tag, but recorded fill address indexes another line.
        cache.line_vaddr[index] += 32
        cache.tags[index] = cache.line_vaddr[index] >> cache.tag_shift
        expect_violation("cache.tag-agreement", check_line, cache, index)

    def test_valid_line_with_invalid_state(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.state[index] = CoherencyState.INVALID
        expect_violation("cache.valid-state", check_line, cache, index)

    def test_invalid_line_with_residue(self):
        cache = small_cache()
        index = filled_line(cache)
        cache.valid[index] = False
        expect_violation(
            "cache.invalid-quiescent", check_line, cache, index
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
        cache.tags[index] ^= 1
        violation = expect_violation(
            "cache.tag-agreement", check_line, cache, index, 41
        )
        text = str(violation)
        assert "cache.tag-agreement" in text
        assert "c0" in text
        assert violation.ref_index == 41
        assert "tags" in violation.state


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
        cache.tags = cache.tags[:]
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


class TestBusChecks:
    def build(self, num_caches=2):
        bus = SnoopyBus()
        caches = [small_cache(f"c{i}") for i in range(num_caches)]
        for cache in caches:
            bus.attach(cache)
        return bus, caches

    def test_coherent_sharing_passes(self):
        bus, (a, b) = self.build()
        a.fill(0x400, Protection.READ_WRITE, False, False)
        b.fill(0x400, Protection.READ_WRITE, False, False)
        check_block_ownership(bus, 0x400)

    def test_two_owners(self):
        bus, (a, b) = self.build()
        ia = filled_line(a)
        ib = filled_line(b)
        a.state[ia] = CoherencyState.OWNED_SHARED
        b.state[ib] = CoherencyState.OWNED_SHARED
        expect_violation(
            "bus.single-owner", check_block_ownership, bus, 0x400
        )

    def test_exclusive_with_other_copies(self):
        bus, (a, b) = self.build()
        ia = filled_line(a)
        filled_line(b)
        a.state[ia] = CoherencyState.OWNED_EXCLUSIVE
        expect_violation(
            "bus.exclusive-sole-copy", check_block_ownership, bus, 0x400
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
        vm.allocator._free.pop()
        expect_violation("vm.free-list-disjoint", check_vm, vm)

    def test_duplicate_free_frame(self):
        vm = self.touched_vm()
        vm.allocator._free.append(vm.allocator._free[0])
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
