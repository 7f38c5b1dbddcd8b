"""Unit tests for the page-flush strategies."""

import pytest

from repro.cache.cache import VirtualCache
from repro.cache.flush import TagCheckedFlush, TaglessFlush
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection

PAGE = 128  # 4 blocks per page with 32-byte blocks


def make_cache():
    return VirtualCache(
        CacheGeometry(size_bytes=1024, block_bytes=32), MemoryTiming()
    )


def fill_page(cache, page_base, dirty_blocks=()):
    for block in range(4):
        vaddr = page_base + block * 32
        cache.fill(vaddr, Protection.READ_WRITE,
                   page_dirty=False, by_write=block in dirty_blocks)


class TestTagChecked:
    def test_flushes_only_target_page(self):
        cache = make_cache()
        fill_page(cache, 0x000)
        # A block from another page sharing the frame range would have
        # to conflict; instead fill a disjoint page and check survival.
        cache.fill(0x200, Protection.READ_WRITE, False, False)
        result = TagCheckedFlush().flush_page(cache, 0x000, PAGE)
        assert result.blocks_flushed == 4
        assert result.foreign_blocks_flushed == 0
        assert cache.probe(0x200) >= 0
        assert cache.probe(0x000) == -1

    def test_leaves_foreign_blocks_in_shared_frames(self):
        cache = make_cache()
        # 0x000 and 0x400 map to the same frames (cache is 1 KB).
        cache.fill(0x400, Protection.READ_WRITE, False, False)
        result = TagCheckedFlush().flush_page(cache, 0x000, PAGE)
        assert result.blocks_flushed == 0
        assert cache.probe(0x400) >= 0

    def test_dirty_blocks_cost_more_and_count_write_backs(self):
        cache = make_cache()
        fill_page(cache, 0x000, dirty_blocks={1, 2})
        flusher = TagCheckedFlush()
        result = flusher.flush_page(cache, 0x000, PAGE)
        assert result.write_backs == 2
        clean_cost = 4 * flusher.loop_cycles + 2 * flusher.check_cycles
        dirty_cost = 2 * flusher.flush_cycles
        transfers = 2 * cache.block_transfer_cycles
        assert result.cycles == clean_cost + dirty_cost + transfers

    def test_empty_page_costs_only_checks(self):
        cache = make_cache()
        flusher = TagCheckedFlush()
        result = flusher.flush_page(cache, 0x000, PAGE)
        assert result.blocks_flushed == 0
        assert result.cycles == 4 * (
            flusher.loop_cycles + flusher.check_cycles
        )

    def test_lines_checked_equals_blocks_per_page(self):
        cache = make_cache()
        result = TagCheckedFlush().flush_page(cache, 0x000, PAGE)
        assert result.lines_checked == 4


class TestTagless:
    def test_flushes_foreign_blocks_too(self):
        cache = make_cache()
        # Fill the frames with blocks from a different page that maps
        # to the same index range (0x400 vs 0x000 in a 1 KB cache).
        fill_page(cache, 0x400)
        result = TaglessFlush().flush_page(cache, 0x000, PAGE)
        assert result.blocks_flushed == 4
        assert result.foreign_blocks_flushed == 4
        assert cache.probe(0x400) == -1

    def test_costs_more_than_tag_checked_on_dirty_foreigners(self):
        tagless_cache = make_cache()
        checked_cache = make_cache()
        for cache in (tagless_cache, checked_cache):
            fill_page(cache, 0x400, dirty_blocks={0, 1, 2, 3})
        tagless = TaglessFlush().flush_page(tagless_cache, 0x000, PAGE)
        checked = TagCheckedFlush().flush_page(checked_cache, 0x000, PAGE)
        assert tagless.cycles > checked.cycles
        assert checked.write_backs == 0  # foreign blocks left alone

    def test_write_backs_counted(self):
        cache = make_cache()
        fill_page(cache, 0x000, dirty_blocks={0})
        result = TaglessFlush().flush_page(cache, 0x000, PAGE)
        assert result.write_backs == 1


class TestScaledCosts:
    def test_cost_scale_multiplies_cycle_prices(self):
        cheap_cache, priced_cache = make_cache(), make_cache()
        fill_page(cheap_cache, 0x000, dirty_blocks={1})
        fill_page(priced_cache, 0x000, dirty_blocks={1})
        cheap = TagCheckedFlush().flush_page(cheap_cache, 0x000, PAGE)
        priced = TagCheckedFlush(
            loop_cycles=16, check_cycles=8, flush_cycles=80
        ).flush_page(priced_cache, 0x000, PAGE)
        transfers = cheap_cache.block_transfer_cycles
        assert priced.cycles - transfers == 8 * (cheap.cycles - transfers)


class TestPageSpanningTheCache:
    """A page larger than the cache covers every frame exactly once."""

    def fill(self):
        cache = make_cache()  # 32 frames
        fill_page(cache, 0x000)
        cache.fill(0x1000 + 5 * 32, Protection.READ_WRITE, False, True)
        return cache

    def test_tag_checked_keeps_foreign_blocks(self):
        cache = self.fill()
        result = TagCheckedFlush().flush_page(cache, 0x000, 2048)
        assert result.lines_checked == 32
        assert result.blocks_flushed == 4
        assert cache.probe(0x1000 + 5 * 32) >= 0

    def test_tagless_drops_every_block(self):
        cache = self.fill()
        result = TaglessFlush().flush_page(cache, 0x000, 2048)
        assert result.lines_checked == 32
        assert (result.blocks_flushed, result.foreign_blocks_flushed) == (5, 1)
        assert result.write_backs == 1
        assert cache.resident_lines() == []
