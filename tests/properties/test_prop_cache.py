"""Property tests: cache consistency under arbitrary operation mixes."""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.cache.flush import TagCheckedFlush, TaglessFlush
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection
from repro.counters.events import Event

PAGE = 128
NUM_PAGES = 16


def make_cache():
    return VirtualCache(
        CacheGeometry(size_bytes=1024, block_bytes=32), MemoryTiming()
    )


operations = st.lists(
    st.tuples(
        st.sampled_from(["fill_read", "fill_write", "invalidate",
                         "flush_checked", "flush_tagless"]),
        st.integers(0, NUM_PAGES * PAGE - 1),
    ),
    max_size=60,
)


def apply_ops(cache, ops):
    for op, vaddr in ops:
        if op == "fill_read":
            cache.fill(vaddr, Protection.READ_WRITE, False, False)
        elif op == "fill_write":
            cache.fill(vaddr, Protection.READ_WRITE, True, True)
        elif op == "invalidate":
            index = cache.probe(vaddr)
            if index >= 0:
                cache.invalidate(index)
        elif op == "flush_checked":
            TagCheckedFlush().flush_page(
                cache, vaddr & ~(PAGE - 1), PAGE
            )
        elif op == "flush_tagless":
            TaglessFlush().flush_page(
                cache, vaddr & ~(PAGE - 1), PAGE
            )


@given(operations)
def test_valid_lines_sit_in_their_direct_mapped_frame(ops):
    cache = make_cache()
    apply_ops(cache, ops)
    for index in cache.resident_lines():
        assert cache.line_index(cache.line_address(index)) == index
        assert cache.line_block[index] & cache.index_mask == index


@given(operations)
def test_invalid_lines_are_fully_quiescent(ops):
    cache = make_cache()
    apply_ops(cache, ops)
    for index in range(cache.num_lines):
        if cache.line_block[index] < 0:
            assert cache.line_block[index] == -1
            assert cache.state[index] is CoherencyState.INVALID
            assert not cache.block_dirty[index]


@given(operations)
def test_dirty_blocks_are_owned(ops):
    cache = make_cache()
    apply_ops(cache, ops)
    for index in cache.resident_lines():
        if cache.block_dirty[index]:
            assert cache.state[index].is_owned


@given(operations)
def test_probe_agrees_with_line_state(ops):
    cache = make_cache()
    apply_ops(cache, ops)
    for index in range(cache.num_lines):
        vaddr = cache.line_address(index)
        if cache.line_block[index] >= 0:
            assert cache.probe(vaddr) == index


@given(operations, st.integers(0, NUM_PAGES - 1))
def test_flush_page_removes_exactly_that_page(ops, page_number):
    cache = make_cache()
    apply_ops(cache, ops)
    page_vaddr = page_number * PAGE
    survivors_before = {
        cache.line_address(i)
        for i in cache.resident_lines()
        if not page_vaddr <= cache.line_address(i) < page_vaddr + PAGE
    }
    TagCheckedFlush().flush_page(cache, page_vaddr, PAGE)
    assert cache.lines_of_page(page_vaddr, PAGE) == []
    survivors_after = {
        cache.line_address(i) for i in cache.resident_lines()
    }
    assert survivors_after == survivors_before


@given(operations)
def test_fill_counts_are_consistent(ops):
    cache = make_cache()
    fills = replaced = dirty_replaced = removed = 0
    for op, vaddr in ops:
        if op.startswith("fill"):
            index = cache.line_index(vaddr)
            fills += 1
            replaced += cache.line_block[index] >= 0
            dirty_replaced += cache.block_dirty[index]
        elif op == "invalidate":
            removed += cache.probe(vaddr) >= 0
        else:
            page = vaddr & ~(PAGE - 1)
            if op == "flush_checked":
                removed += len(cache.lines_of_page(page, PAGE))
            else:  # tagless: every valid line of the page's range
                removed += sum(
                    cache.line_block[index] >= 0
                    for index in cache.page_line_range(page, PAGE)
                )
        apply_ops(cache, [(op, vaddr)])
    # Every filled line is either still resident or was removed.
    assert fills - replaced - removed == len(cache.resident_lines())
    # A fill is one bus transaction, its dirty victim's write-back
    # another.
    assert cache.counters.read(Event.BUS_TRANSACTION) == (
        fills + dirty_replaced)
