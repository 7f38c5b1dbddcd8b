"""Unit tests for the in-cache translation algorithm."""

import pytest

from repro.cache.cache import VirtualCache
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import PageKind, Protection
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event
from repro.translation.incache import InCacheTranslator
from repro.translation.pagetable import PageTable, PageTableLayout


def make_translator():
    layout = PageTableLayout(page_bytes=128)
    table = PageTable(layout)
    counters = PerformanceCounters()
    cache = VirtualCache(
        CacheGeometry(size_bytes=1024, block_bytes=32), MemoryTiming(),
        counters=counters,
    )
    translator = InCacheTranslator(table, cache)
    return translator, table, cache, counters


class TestWalk:
    def test_cold_walk_goes_to_memory(self):
        translator, table, cache, counters = make_translator()
        result = translator.translate(0x100)
        assert not result.first_level_hit
        assert not result.second_level_hit
        assert result.went_to_memory
        assert counters.read(Event.SECOND_LEVEL_MEMORY_ACCESS) == 1

    def test_walk_installs_pte_block_in_cache(self):
        translator, table, cache, _ = make_translator()
        translator.translate(0x100)
        pte_vaddr = table.layout.pte_vaddr(0x100 >> 7)
        index = cache.probe(pte_vaddr)
        assert index >= 0
        assert cache.holds_pte[index]

    def test_second_walk_hits_in_cache(self):
        translator, _, _, counters = make_translator()
        translator.translate(0x100)
        result = translator.translate(0x100)
        assert result.first_level_hit
        assert counters.read(Event.PTE_CACHE_HIT) == 1

    def test_cached_walk_is_cheap(self):
        translator, _, _, _ = make_translator()
        translator.translate(0x100)
        result = translator.translate(0x100)
        assert result.cycles == translator.timing.pte_check_cycles

    def test_neighbouring_pages_share_a_pte_block(self):
        # Eight 4-byte PTEs per 32-byte block: translating page 0 warms
        # translation for pages 1..7 (the big-TLB effect).
        translator, _, _, counters = make_translator()
        translator.translate(0 << 7)
        result = translator.translate(3 << 7)
        assert result.first_level_hit

    def test_second_level_hit_without_first_level(self):
        translator, table, cache, counters = make_translator()
        # 0x800 is chosen so its first- and second-level PTE blocks do
        # not share a cache frame (they can, legitimately, for other
        # addresses — direct-mapped conflicts hit page tables too).
        translator.translate(0x800)
        # Evict only the first-level PTE block, keep the second level.
        pte_vaddr = table.layout.pte_vaddr(0x800 >> 7)
        cache.invalidate(cache.probe(pte_vaddr))
        result = translator.translate(0x800)
        assert not result.first_level_hit
        assert result.second_level_hit
        assert not result.went_to_memory

    def test_returns_live_pte_object(self):
        translator, table, _, _ = make_translator()
        result = translator.translate(0x100)
        assert result.pte is table.entry(0x100 >> 7)

    def test_invalid_pte_returned_for_unmapped_page(self):
        translator, _, _, _ = make_translator()
        assert not translator.translate(0x2000).pte.valid

    def test_translation_event_counted_per_walk(self):
        translator, _, _, counters = make_translator()
        translator.translate(0x100)
        translator.translate(0x100)
        assert counters.read(Event.TRANSLATION) == 2


class TestConflictBehaviour:
    def test_pte_fill_can_evict_data(self):
        # In-cache translation means PTE blocks compete with data: a
        # translation whose PTE maps to an occupied frame evicts it.
        translator, table, cache, _ = make_translator()
        pte_vaddr = table.layout.pte_vaddr(0x100 >> 7)
        index = cache.line_index(pte_vaddr)
        # Occupy that frame with a data block of the same index.
        conflicting = (index << cache.block_bits) | (1 << 20)
        assert cache.line_index(conflicting) == index
        cache.fill(conflicting, Protection.READ_WRITE, False, False)
        translator.translate(0x100)
        view = cache.view(index)
        assert view.holds_pte
        assert view.vaddr == cache.geometry.block_address(pte_vaddr)
