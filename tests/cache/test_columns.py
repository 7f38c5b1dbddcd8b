"""The flat column store behind the cache's tag state.

Covers the storage contract the reference loop depends on: column
shapes and initial values, the cache's attributes aliasing the store,
and the bus transactions the cache's own mutators count.
"""

from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.cache.columns import (
    FLAG_COLUMNS,
    WORD_COLUMNS,
    ColumnStore,
)
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event


def small_cache(name="c0"):
    return VirtualCache(
        CacheGeometry(size_bytes=1024, block_bytes=32),
        MemoryTiming(),
        name=name,
    )


class TestColumnStore:
    def test_shapes_and_initial_values(self):
        store = ColumnStore(32)
        names = dict(store.columns())
        assert set(names) == (
            {name for name, _ in WORD_COLUMNS} | set(FLAG_COLUMNS)
        )
        for name, initial in WORD_COLUMNS:
            column = names[name]
            assert list(column) == [initial] * 32
        for name in FLAG_COLUMNS:
            column = names[name]
            assert isinstance(column, bytearray)
            assert len(column) == 32 and not any(column)

    def test_cache_attributes_alias_the_store(self):
        cache = small_cache()
        for name, column in cache.columns.columns():
            assert getattr(cache, name) is column

    def test_block_number_is_the_only_tag(self):
        cache = small_cache()
        assert {name for name, _ in cache.columns.columns()}.isdisjoint(
            {"valid", "tags", "line_vaddr"}
        )
        index, _ = cache.fill(0x1460, Protection.READ_WRITE, False,
                              False)
        assert cache.line_block[index] == 0x1460 >> cache.block_bits
        assert cache.line_address(index) == 0x1460 & ~31
        assert cache.view(index).valid and cache.view(index).vaddr == (
            0x1460 & ~31
        )
        assert cache.resident_lines() == [index]
        cache.invalidate(index)
        assert cache.line_block[index] == -1
        assert cache.probe(0x1460) < 0
        assert not cache.view(index).valid
        assert cache.resident_lines() == []


class TestBusAccounting:
    """A fill is one bus transaction and its write-back another; a
    write hit's ownership upgrade is one more, which the caller counts
    (the machine live or in its tally)."""

    def drive(self, cache):
        cache.fill(0x400, Protection.READ_WRITE, False, False)
        index = cache.probe(0x400)
        cache.block_dirty[index] = True
        assert cache.acquire_ownership(index) is True
        assert cache.acquire_ownership(index) is False
        assert cache.state[index] is CoherencyState.OWNED_EXCLUSIVE
        cache.fill(0x820, Protection.READ_WRITE, True, True)
        # Conflicts with 0x400's dirty line: eviction plus write-back.
        cache.fill(0x400 + 1024, Protection.KERNEL, True, False, True)

    def test_bare_cache_counts_in_stats(self):
        cache = small_cache()
        self.drive(cache)
        assert cache.stats["fills"] == 3
        assert cache.stats["write_backs"] == 1
        assert cache.stats["bus_transactions"] == 4

    def test_counter_bank_counts_the_event(self):
        cache = small_cache()
        cache.counters = PerformanceCounters()
        self.drive(cache)
        assert cache.counters.read(Event.BUS_TRANSACTION) == 4
        assert cache.counters.read(Event.WRITE_BACK) == 1
        assert cache.stats["bus_transactions"] == 0
