"""Property tests: whole-machine invariants under random traffic.

A random access stream over a pressured tiny machine must never
violate the structural invariants: frame-table/page-table agreement,
bounded residency, dirty accounting, and cache-VM consistency.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.counters.events import Event
from repro.workloads.base import IFETCH, READ, WRITE

from tests.conftest import TINY_PAGE, make_machine, simple_space

HEAP_PAGES = 24


def build_machine(**overrides):
    space_map, regions = simple_space(heap_pages=HEAP_PAGES)
    machine = make_machine(
        space_map, memory_bytes=16 * TINY_PAGE, wired_frames=2,
        **overrides,
    )
    return machine, regions


#: Long enough that every example overflows the 14 allocatable frames
#: and the daemon evicts.
paging_traffic = st.lists(
    st.tuples(
        st.sampled_from([READ, WRITE]),
        st.integers(0, HEAP_PAGES * TINY_PAGE - 1),
    ),
    min_size=150,
    max_size=300,
)


@settings(max_examples=40, deadline=None)
@given(paging_traffic)
def test_frame_and_page_tables_agree(traffic):
    machine, regions = build_machine()
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])

    frame_table = machine.vm.frame_table
    page_table = machine.page_table
    for frame in range(frame_table.num_frames):
        vpn = frame_table.owner(frame)
        if vpn is not None:
            pte = page_table.lookup(vpn)
            assert pte.valid
            assert pte.ppn == frame
    for vpn, pte in page_table.items():
        if pte.valid:
            assert frame_table.owner(pte.ppn) == vpn


@settings(max_examples=40, deadline=None)
@given(paging_traffic)
def test_residency_bounded_and_counts_balance(traffic):
    machine, regions = build_machine()
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])

    frame_table = machine.vm.frame_table
    assert frame_table.resident_count() <= (
        frame_table.allocatable_frames
    )
    counters = machine.counters
    creations = (
        counters.read(Event.PAGE_IN)
        + counters.read(Event.ZERO_FILL_PAGE)
    )
    reclaims = counters.read(Event.PAGE_RECLAIM)
    assert creations - reclaims == frame_table.resident_count()


@pytest.mark.parametrize("policy", ["MISS", "NOREF"])
@settings(max_examples=40, deadline=None)
@given(paging_traffic)
def test_frames_conserved(policy, traffic):
    # Every allocatable frame is either held by exactly one page or
    # on the free list.
    machine, regions = build_machine(reference_policy=policy)
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])
    frame_table = machine.vm.frame_table
    held = sum(
        1 for page in machine.vm.pages.values()
        if page.frame is not None
    )
    assert held == frame_table.resident_count()
    assert held + machine.vm.allocator.free_count == (
        frame_table.allocatable_frames
    )


@pytest.mark.parametrize("policy", ["MISS", "NOREF"])
@settings(max_examples=40, deadline=None)
@given(paging_traffic)
def test_writes_never_lost_across_eviction(policy, traffic):
    # A page written during the run is, while resident, marked
    # modified or already on swap; once evicted, its data is on swap
    # (zero-fill pages always go out on first replacement).
    machine, regions = build_machine(reference_policy=policy)
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])
    written = {
        (heap + offset) >> machine.page_bits
        for kind, offset in traffic if kind == WRITE
    }
    for vpn in written:
        page = machine.vm.pages[vpn]
        if page.frame is not None:
            pte = machine.page_table.entry(vpn)
            assert pte.is_modified() or machine.swap.has_image(vpn)
        else:
            assert machine.swap.has_image(vpn)


@pytest.mark.parametrize("policy", ["MISS", "NOREF"])
@settings(max_examples=40, deadline=None)
@given(paging_traffic)
def test_page_states_are_disjoint(policy, traffic):
    # Every known page is either resident (its own frame, a valid PTE,
    # a live clock slot) or evicted (no frame, an invalid PTE, off the
    # clock).
    machine, regions = build_machine(reference_policy=policy)
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])
    on_clock = set(machine.vm.daemon.resident_pages())
    frames = set()
    for vpn, page in machine.vm.pages.items():
        pte = machine.page_table.lookup(vpn)
        if page.frame is not None:
            assert pte.valid and pte.ppn == page.frame
            assert vpn in on_clock
            assert page.frame not in frames
            frames.add(page.frame)
        else:
            assert not pte.valid
            assert vpn not in on_clock
    assert len(frames) == len(on_clock)


@pytest.mark.parametrize("policy", ["MISS", "NOREF"])
@settings(max_examples=40, deadline=None)
@given(paging_traffic)
def test_evicted_pages_have_no_cached_blocks(policy, traffic):
    # Eviction flushed them, and any later access would have faulted
    # the page back in first.
    machine, regions = build_machine(reference_policy=policy)
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])
    for vpn, page in machine.vm.pages.items():
        if page.frame is None:
            assert machine.cache.lines_of_page(
                vpn << machine.page_bits, machine.page_bytes
            ) == []


@settings(max_examples=40, deadline=None)
@given(paging_traffic)
def test_cached_blocks_belong_to_resident_or_flushed_pages(traffic):
    # Any valid heap block in the cache must belong to a currently
    # resident page: eviction always flushes the page's blocks.
    machine, regions = build_machine()
    heap = regions["heap"]
    machine.run([(kind, heap.start + offset)
                 for kind, offset in traffic])
    for index in machine.cache.resident_lines():
        vaddr = machine.cache.line_address(index)
        if heap.start <= vaddr < heap.end:
            vpn = vaddr >> machine.page_bits
            assert machine.page_table.lookup(vpn).valid


@settings(max_examples=40, deadline=None)
@given(paging_traffic)
def test_dirty_accounting_conservative(traffic):
    # A page counted as a clean writable replacement must never have
    # taken a dirty fault during that residency; globally, dirty
    # faults bound the number of dirty replacements, and every dirty
    # replacement was written to swap.
    machine, regions = build_machine()
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])
    stats = machine.swap.stats
    dirty_replacements = (
        stats.potentially_modified - stats.not_modified
    )
    assert dirty_replacements <= machine.counters.read(
        Event.DIRTY_FAULT
    )
    assert dirty_replacements <= machine.counters.read(Event.PAGE_OUT)


@settings(max_examples=30, deadline=None)
@given(paging_traffic, st.sampled_from(["MISS", "REF", "NOREF"]))
def test_invariants_hold_under_all_reference_policies(traffic,
                                                      policy):
    space_map, regions = simple_space(heap_pages=HEAP_PAGES)
    machine = make_machine(
        space_map, memory_bytes=16 * TINY_PAGE, wired_frames=2,
        reference_policy=policy,
    )
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])
    frame_table = machine.vm.frame_table
    assert frame_table.resident_count() <= (
        frame_table.allocatable_frames
    )


@settings(max_examples=30, deadline=None)
@given(
    paging_traffic,
    st.sampled_from(["MIN", "FAULT", "FLUSH", "SPUR", "WRITE"]),
)
def test_modified_state_matches_write_history(traffic, policy):
    # Under every dirty policy: a page is marked modified iff it was
    # written during its current residency (writes persist until the
    # page is evicted, which clears the bits).
    space_map, regions = simple_space(heap_pages=HEAP_PAGES)
    machine = make_machine(
        space_map, memory_bytes=16 * TINY_PAGE, wired_frames=2,
        dirty_policy=policy,
    )
    heap = regions["heap"].start
    machine.run([(kind, heap + offset) for kind, offset in traffic])

    written_vpns = {
        (heap + offset) >> machine.page_bits
        for kind, offset in traffic if kind == WRITE
    }
    for vpn, pte in machine.page_table.items():
        if pte.valid and pte.is_modified():
            assert vpn in written_vpns
