"""The flat column store behind the cache's tag state.

Covers the storage contract the reference loop depends on: column
shapes and initial values, the cache's attributes aliasing the store,
and the fast ownership twin producing the same column state and
deferred bookkeeping as its legacy counterpart.
"""

from array import array

from repro.cache.cache import TALLY_BUS, TALLY_CACHE_SLOTS, VirtualCache
from repro.cache.columns import (
    FLAG_COLUMNS,
    WORD_COLUMNS,
    ColumnStore,
)
from repro.cache.bus import SnoopyBus
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection


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


class TestFastTwins:
    """acquire_ownership_fast mirrors acquire_ownership: identical
    column state, with the private-bus transaction deferred into the
    tally instead of the live bus count.  (Block installs have no fast
    twin: the reference loop inlines them and the scalar oracle checks
    them against ``fill``.)"""

    def tally(self):
        return array("q", [0]) * TALLY_CACHE_SLOTS

    def columns_state(self, cache):
        state = {name: list(col) for name, col in cache.columns.columns()}
        state["state"] = list(cache.state)
        return state

    def drive(self, cache, fast, tally):
        fills = [
            (0x400, int(Protection.READ_WRITE), False, False, False),
            (0x800, int(Protection.READ_WRITE), True, True, False),
            # Conflicts with 0x400's line after it was dirtied below,
            # forcing the eviction + write-back path.
            (0x400 + 1024, int(Protection.KERNEL), True, False, True),
        ]
        cycles = 0
        for step, (vaddr, prot, page_dirty, by_write, holds) in enumerate(
            fills
        ):
            _, fill_cycles = cache.fill(
                vaddr, Protection(prot), page_dirty=page_dirty,
                by_write=by_write, holds_pte=holds,
            )
            cycles += fill_cycles
            if step == 0:
                index = cache.probe(vaddr)
                cache.block_dirty[index] = True
                if fast:
                    cache.acquire_ownership_fast(index, tally)
                else:
                    cache.acquire_ownership(index)
        return cycles

    def test_fast_matches_legacy_columns_and_cycles(self):
        legacy = small_cache("legacy")
        SnoopyBus().attach(legacy)
        fast = small_cache("fast")
        SnoopyBus().attach(fast)
        tally = self.tally()

        legacy_cycles = self.drive(legacy, fast=False, tally=tally)
        fast_cycles = self.drive(fast, fast=True, tally=tally)

        assert fast_cycles == legacy_cycles
        assert self.columns_state(fast) == self.columns_state(legacy)

    def test_tally_carries_the_deferred_bookkeeping(self):
        legacy = small_cache("legacy")
        SnoopyBus().attach(legacy)
        fast = small_cache("fast")
        SnoopyBus().attach(fast)
        tally = self.tally()

        self.drive(legacy, fast=False, tally=tally)
        self.drive(fast, fast=True, tally=tally)

        assert fast.stats == legacy.stats
        # The ownership upgrade is the one tallied transaction.
        assert tally[TALLY_BUS] == 1
        assert fast.bus.transactions + 1 == legacy.bus.transactions

    def test_fast_ownership_broadcasts_live_with_peers(self):
        bus = SnoopyBus()
        a = small_cache("a")
        b = small_cache("b")
        bus.attach(a)
        bus.attach(b)
        assert a.has_peers and b.has_peers
        a.fill(0x400, Protection.READ_WRITE, False, False)
        b.fill(0x400, Protection.READ_WRITE, False, False)
        tally = self.tally()
        index = a.probe(0x400)
        a.acquire_ownership_fast(index, tally)
        # Live broadcast, not tallied: the peer must have snooped.
        assert tally[TALLY_BUS] == 0
        assert bus.transactions == 3  # two fills + the ownership op
        assert b.probe(0x400) < 0  # invalidated by the snoop
