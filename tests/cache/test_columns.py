"""The flat column store behind the cache's tag state.

Covers the storage contract the reference loop depends on: column
shapes and initial values, the cache's attributes aliasing the store,
and the bus transactions the cache's own mutators count.
"""

from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.cache.columns import (
    BOOL_COLUMNS,
    FLAG_COLUMNS,
    TAG_ARRAYS,
    WORD_COLUMNS,
    ColumnStore,
)
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event
from repro.lint.findings import LintConfig
from repro.sanitize.checks import _line_state


def small_cache(name="c0", counters=None):
    return VirtualCache(
        CacheGeometry(size_bytes=1024, block_bytes=32),
        MemoryTiming(),
        name=name,
        counters=counters,
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


class TestTagArrayDeclaration:
    """``TAG_ARRAYS`` is the one list of tag arrays: the cache keeps
    exactly those per-line arrays, the sanitizer dumps and checks
    them, and the lint guards writes to them (R002)."""

    def test_cache_sanitizer_and_lint_agree(self):
        cache = small_cache()
        per_line = {
            name for name, value in vars(cache).items()
            if isinstance(value, (list, bytearray))
            and len(value) == cache.num_lines
        }
        assert per_line == set(TAG_ARRAYS)
        assert set(_line_state(cache, 0)) == set(TAG_ARRAYS)
        assert LintConfig().tag_arrays == frozenset(TAG_ARRAYS)
        assert len(set(TAG_ARRAYS)) == len(TAG_ARRAYS)

    def test_bool_columns_are_the_flags_but_protection(self):
        assert BOOL_COLUMNS == tuple(
            name for name in FLAG_COLUMNS if name != "prot"
        )


class TestBusAccounting:
    """A fill is one bus transaction and its write-back another; a
    write hit's ownership upgrade is one more, which the caller
    counts."""

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

    def test_bare_cache_counts_in_its_own_bank(self):
        cache = small_cache()
        self.drive(cache)
        # Three fills and one write-back; the upgrade is the caller's.
        assert cache.counters.read(Event.BUS_TRANSACTION) == 4
        assert cache.counters.read(Event.WRITE_BACK) == 1

    def test_counter_bank_counts_the_event(self):
        counters = PerformanceCounters()
        cache = small_cache(counters=counters)
        assert cache.counters is counters
        self.drive(cache)
        assert counters.read(Event.BUS_TRANSACTION) == 4
        assert counters.read(Event.WRITE_BACK) == 1
