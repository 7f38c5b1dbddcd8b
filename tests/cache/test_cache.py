"""Unit tests for the direct-mapped virtual-address cache."""

import pytest

from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection
from repro.counters.events import Event


def make_cache(size=1024, block=32):
    return VirtualCache(
        CacheGeometry(size_bytes=size, block_bytes=block),
        MemoryTiming(),
    )


class TestProbeAndFill:
    def test_empty_cache_misses(self):
        assert make_cache().probe(0x40) == -1

    def test_fill_then_hit(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_WRITE, False, False)
        assert cache.probe(0x45) == index
        # Same block, different offset: still a hit.
        assert cache.probe(0x5F) == index

    def test_fill_copies_pte_state_into_tag(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_ONLY, True, False)
        view = cache.view(index)
        assert view.protection is Protection.READ_ONLY
        assert view.page_dirty
        assert not view.block_dirty
        assert view.filled_by_read

    def test_write_fill_marks_block_dirty_and_owned(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_WRITE, True, True)
        view = cache.view(index)
        assert view.block_dirty
        assert not view.filled_by_read
        assert view.state is CoherencyState.OWNED_EXCLUSIVE

    def test_read_fill_is_unowned(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_WRITE, False, False)
        assert cache.view(index).state is CoherencyState.UNOWNED

    def test_conflicting_fill_evicts(self):
        cache = make_cache(size=1024)
        cache.fill(0x45, Protection.READ_WRITE, False, False)
        cache.fill(0x45 + 1024, Protection.READ_WRITE, False, False)
        assert cache.probe(0x45) == -1
        assert cache.probe(0x45 + 1024) >= 0

    def test_fill_cycles_include_transfer(self):
        cache = make_cache()
        _, cycles = cache.fill(0x45, Protection.READ_WRITE, False, False)
        assert cycles == cache.block_transfer_cycles

    def test_dirty_eviction_costs_write_back(self):
        cache = make_cache(size=1024)
        cache.fill(0x45, Protection.READ_WRITE, True, True)
        _, cycles = cache.fill(
            0x45 + 1024, Protection.READ_WRITE, False, False
        )
        assert cycles == 2 * cache.block_transfer_cycles
        assert cache.counters.read(Event.WRITE_BACK) == 1


class TestInvalidate:
    def test_invalidate_clean_line(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_WRITE, False, False)
        assert cache.invalidate(index) == 0
        assert cache.probe(0x45) == -1

    def test_invalidate_dirty_line_writes_back(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_WRITE, True, True)
        assert cache.invalidate(index) == cache.block_transfer_cycles

    def test_invalidate_dirty_without_write_back(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_WRITE, True, True)
        assert cache.invalidate(index, write_back=False) == 0

    def test_invalidate_empty_line_is_noop(self):
        cache = make_cache()
        assert cache.invalidate(3) == 0

    def test_clear_invalidates_everything_silently(self):
        cache = make_cache()
        cache.fill(0x45, Protection.READ_WRITE, True, True)
        before = cache.counters.snapshot()
        cache.clear()
        assert cache.probe(0x45) == -1
        assert cache.counters.snapshot().as_dict() == before.as_dict()


class TestOwnership:
    def test_write_hit_on_unowned_needs_bus(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_WRITE, False, False)
        assert cache.acquire_ownership(index) is True
        assert cache.view(index).state is CoherencyState.OWNED_EXCLUSIVE

    def test_write_hit_on_exclusive_is_silent(self):
        cache = make_cache()
        index, _ = cache.fill(0x45, Protection.READ_WRITE, True, True)
        assert cache.acquire_ownership(index) is False


class TestPageHelpers:
    def test_page_line_range_is_contiguous(self):
        cache = make_cache(size=1024)  # 32 lines
        frames = cache.page_line_range(0, 128)  # 4 blocks per page
        assert list(frames) == [0, 1, 2, 3]

    def test_page_line_range_wraps(self):
        cache = make_cache(size=1024)
        frames = cache.page_line_range(31 * 32, 128)
        assert list(frames) == [31, 0, 1, 2]

    def test_page_larger_than_cache_covers_all_lines(self):
        cache = make_cache(size=128)  # 4 lines
        assert list(cache.page_line_range(0, 256)) == [0, 1, 2, 3]

    def test_lines_of_page_filters_foreign_blocks(self):
        cache = make_cache(size=1024)
        page_base = 0x400  # maps to the same frames as page 0x0
        cache.fill(0x00, Protection.READ_WRITE, False, False)
        cache.fill(page_base + 32, Protection.READ_WRITE, False, False)
        lines = cache.lines_of_page(page_base, 128)
        assert len(lines) == 1
        assert cache.view(lines[0]).vaddr == page_base + 32

    def test_resident_lines(self):
        cache = make_cache()
        cache.fill(0x00, Protection.READ_WRITE, False, False)
        cache.fill(0x20, Protection.READ_WRITE, False, False)
        assert len(cache.resident_lines()) == 2


class TestCounters:
    def test_fill_and_eviction_counts(self):
        # Each fill is one bus transaction; evicting a clean block
        # writes nothing back.
        cache = make_cache(size=1024)
        cache.fill(0x45, Protection.READ_WRITE, False, False)
        cache.fill(0x45 + 1024, Protection.READ_WRITE, False, False)
        assert cache.probe(0x45) == -1
        assert cache.counters.read(Event.BUS_TRANSACTION) == 2
        assert Event.WRITE_BACK not in cache.counters.snapshot()
