"""Property tests: Berkeley Ownership on the one-board cache.

After arbitrary fill/write-hit/invalidate/page-drop traffic on a
single virtual cache, the protocol's uniprocessor invariants hold:

* no line is ever OWNED_SHARED (only another board's read shares an
  owned block);
* a valid line is owned exactly when its block is dirty;
* an invalid line is INVALID and clean;
* the cache's bus transactions are its fills, the write-backs of the
  dirty blocks those fills evict, and the write hits' ownership
  upgrades.

The last two properties are also drawn through a whole tiny machine,
under every dirty and reference policy.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection
from repro.counters.events import Event
from repro.machine.simulator import SpurMachine
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.workloads.base import READ, WRITE

from tests.conftest import simple_space, tiny_config
from tests.oracle import scalar_run

#: Twice the 32-line cache, so fills conflict and evict.
NUM_BLOCKS = 64
PAGE_BYTES = 128

operations = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "write_hit", "drop", "page"]),
        st.integers(0, NUM_BLOCKS - 1),         # block number
    ),
    max_size=120,
)


def apply_ops(ops):
    """Drive one bare cache; return it, the upgrades it reported, the
    write hits that found their block clean and the dirty blocks its
    fills evicted."""
    cache = VirtualCache(
        CacheGeometry(size_bytes=1024, block_bytes=32), MemoryTiming()
    )
    upgrades = clean_hits = fill_write_backs = 0
    for op, block in ops:
        vaddr = block * 32
        if op in ("read", "write"):
            fill_write_backs += cache.block_dirty[cache.line_index(vaddr)]
            by_write = op == "write"
            cache.fill(vaddr, Protection.READ_WRITE, by_write, by_write)
        elif op == "write_hit":
            index = cache.probe(vaddr)
            if index >= 0:
                clean_hits += not cache.block_dirty[index]
                upgrades += cache.acquire_ownership(index)
                cache.block_dirty[index] = True
        elif op == "drop":
            index = cache.probe(vaddr)
            if index >= 0:
                cache.invalidate(index)
        else:
            page = vaddr & ~(PAGE_BYTES - 1)
            cache.drop_page(page, PAGE_BYTES)
    return cache, upgrades, clean_hits, fill_write_backs


def assert_line_states(cache):
    for index in range(cache.num_lines):
        state = cache.state[index]
        assert state is not CoherencyState.OWNED_SHARED
        if cache.line_block[index] < 0:
            assert state is CoherencyState.INVALID
            assert not cache.block_dirty[index]
        else:
            assert state.is_owned == bool(cache.block_dirty[index])


@settings(max_examples=80, deadline=None)
@given(operations)
def test_single_owner_invariant(ops):
    cache, _, _, _ = apply_ops(ops)
    assert CoherencyState.OWNED_SHARED not in cache.state
    for index in cache.resident_lines():
        # Direct-mapped: a block is only ever in its own frame.
        assert cache.line_index(cache.line_address(index)) == index


@settings(max_examples=80, deadline=None)
@given(operations)
def test_dirty_implies_owned_everywhere(ops):
    cache, _, _, _ = apply_ops(ops)
    for index in cache.resident_lines():
        if cache.block_dirty[index]:
            assert cache.state[index] is CoherencyState.OWNED_EXCLUSIVE


@settings(max_examples=80, deadline=None)
@given(operations)
def test_owned_exactly_when_dirty(ops):
    cache, _, _, _ = apply_ops(ops)
    assert_line_states(cache)


@settings(max_examples=80, deadline=None)
@given(operations)
def test_bus_transactions_balance(ops):
    cache, upgrades, clean_hits, fill_write_backs = apply_ops(ops)
    # A bare cache counts its fills' transactions in its own bank; the
    # caller counts the upgrades acquire_ownership reports.
    fills = sum(op in ("read", "write") for op, _ in ops)
    assert cache.counters.read(Event.BUS_TRANSACTION) == (
        fills + fill_write_backs)
    # A clean valid block is UNOWNED, so exactly the write hits that
    # find their block clean upgrade.
    assert upgrades == clean_hits


streams = st.lists(
    st.tuples(st.sampled_from([READ, WRITE]), st.integers(0, 16 * 32 - 1)),
    min_size=1,
    max_size=200,
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DIRTY_POLICY_NAMES),
       st.sampled_from(REFERENCE_POLICY_NAMES), streams)
def test_machine_runs_keep_the_uniprocessor_states(dirty, ref, stream):
    space_map, regions = simple_space()
    heap = regions["heap"].start
    accesses = [(kind, heap + offset * 4) for kind, offset in stream]
    config = tiny_config(dirty_policy=dirty, reference_policy=ref)

    oracle = SpurMachine(config, space_map)
    fill = oracle.cache.fill
    acquire = oracle.cache.acquire_ownership
    fills = []
    upgrades = []

    def counting_fill(*args, **kwargs):
        fills.append(fill(*args, **kwargs))
        return fills[-1]

    def counting_acquire(index):
        upgrades.append(acquire(index))
        return upgrades[-1]

    oracle.cache.fill = counting_fill
    oracle.cache.acquire_ownership = counting_acquire
    scalar_run(oracle, accesses)
    assert oracle.counters.read(Event.BUS_TRANSACTION) == (
        len(fills) + oracle.counters.read(Event.WRITE_BACK)
        + sum(upgrades))

    chunked = SpurMachine(config, space_map)
    chunked.run(accesses)
    assert (chunked.counters.snapshot().as_dict()
            == oracle.counters.snapshot().as_dict())
    for machine in (oracle, chunked):
        assert_line_states(machine.cache)
