"""Property tests: Berkeley Ownership safety across multiple caches.

The protocol's safety invariants, checked after arbitrary interleaved
fill/write/invalidate traffic on 2-4 caches sharing a bus:

* at most one cache owns a block exclusively;
* an exclusive owner has no other valid copies anywhere;
* at most one *owner* of any kind per block;
* dirty data implies ownership.
"""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.cache.bus import SnoopyBus
from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection

NUM_BLOCKS = 24


def build_domain(num_caches):
    bus = SnoopyBus()
    caches = []
    for index in range(num_caches):
        cache = VirtualCache(
            CacheGeometry(size_bytes=1024, block_bytes=32),
            MemoryTiming(),
            name=f"c{index}",
        )
        bus.attach(cache)
        caches.append(cache)
    return bus, caches


operations = st.lists(
    st.tuples(
        st.integers(0, 3),                      # cache index (mod n)
        st.sampled_from(["read", "write", "write_hit", "drop"]),
        st.integers(0, NUM_BLOCKS - 1),         # block number
    ),
    max_size=80,
)


def apply_ops(caches, ops):
    for cache_index, op, block in ops:
        cache = caches[cache_index % len(caches)]
        vaddr = block * 32
        if op == "read":
            cache.fill(vaddr, Protection.READ_WRITE, False, False)
        elif op == "write":
            cache.fill(vaddr, Protection.READ_WRITE, True, True)
        elif op == "write_hit":
            index = cache.probe(vaddr)
            if index >= 0:
                cache.acquire_ownership(index)
                cache.block_dirty[index] = True
        elif op == "drop":
            index = cache.probe(vaddr)
            if index >= 0:
                cache.invalidate(index)


def copies_by_block(caches):
    holders = defaultdict(list)
    for cache in caches:
        for index in cache.resident_lines():
            holders[cache.line_address(index)].append(
                (cache, index, cache.state[index])
            )
    return holders


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), operations)
def test_single_owner_invariant(num_caches, ops):
    _, caches = build_domain(num_caches)
    apply_ops(caches, ops)
    for vaddr, holders in copies_by_block(caches).items():
        owners = [h for h in holders if h[2].is_owned]
        assert len(owners) <= 1, f"block {vaddr:#x} has two owners"


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), operations)
def test_exclusive_means_alone(num_caches, ops):
    _, caches = build_domain(num_caches)
    apply_ops(caches, ops)
    for vaddr, holders in copies_by_block(caches).items():
        exclusive = [
            h for h in holders
            if h[2] is CoherencyState.OWNED_EXCLUSIVE
        ]
        if exclusive:
            assert len(holders) == 1, (
                f"block {vaddr:#x} exclusive but shared"
            )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), operations)
def test_dirty_implies_owned_everywhere(num_caches, ops):
    _, caches = build_domain(num_caches)
    apply_ops(caches, ops)
    for cache in caches:
        for index in cache.resident_lines():
            if cache.block_dirty[index]:
                assert cache.state[index].is_owned
