"""Bus-transaction accounting on the uniprocessor.

With one board on the bus, Berkeley Ownership puts exactly three kinds
of transaction there: a block fill (data or PTE block), the write-back
of the dirty block a fill evicts, and the ownership upgrade of a write
hit on an UNOWNED block.  ``Event.BUS_TRANSACTION`` must count those
and nothing else, in the chunk engine's per-segment adds as in the
scalar oracle's live ones.
"""

import pytest

from repro.cache.coherence import CoherencyState
from repro.counters.counters import PerformanceCounters
from repro.counters.events import MODE_SETS, Event
from repro.machine.simulator import SpurMachine
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.workloads.base import READ, WRITE

from tests.conftest import (
    TINY_CACHE,
    TINY_PAGE,
    TwoProcessMix,
    make_machine,
    simple_space,
    tiny_config,
)
from tests.oracle import scalar_run_chunks

POLICY_PAIRS = [
    (dirty, ref)
    for dirty in DIRTY_POLICY_NAMES
    for ref in REFERENCE_POLICY_NAMES
]


def bus(machine):
    return machine.counters.read(Event.BUS_TRANSACTION)


def installs(machine):
    """Blocks the misses brought in: data blocks plus the first- and
    second-level PTE blocks their walks installed."""
    read = machine.counters.read
    return (read(Event.BLOCK_FILL) + read(Event.PTE_CACHE_MISS)
            + read(Event.SECOND_LEVEL_MEMORY_ACCESS))


def heap_machine(**overrides):
    space_map, regions = simple_space()
    return make_machine(space_map, **overrides), regions["heap"].start


def delta(machine, accesses):
    """Run *accesses*; return the (bus, fills, write-backs) they add."""
    before = (bus(machine), installs(machine),
              machine.counters.read(Event.WRITE_BACK))
    machine.run(accesses)
    after = (bus(machine), installs(machine),
             machine.counters.read(Event.WRITE_BACK))
    return tuple(b - a for a, b in zip(before, after))


class TestScriptedTraffic:
    def test_every_fill_is_one_transaction(self):
        # The first touch walks the page table into the cache too: all
        # of those installs are fills, and each is one transaction.
        machine, heap = heap_machine()
        transactions, fills, write_backs = delta(machine, [(READ, heap)])
        assert fills >= 1 and write_backs == 0
        assert transactions == fills

    def test_write_hit_on_unowned_block_upgrades_once(self):
        machine, heap = heap_machine()
        machine.run([(READ, heap)])
        index = machine.cache.probe(heap)
        assert machine.cache.state[index] is CoherencyState.UNOWNED
        assert delta(machine, [(WRITE, heap)]) == (1, 0, 0)
        assert machine.cache.state[index] is CoherencyState.OWNED_EXCLUSIVE
        # Owned exclusive: later writes stay off the bus.
        assert delta(machine, [(WRITE, heap), (WRITE, heap + 4)]) == (
            0, 0, 0)

    def test_write_miss_loads_owned_and_needs_no_upgrade(self):
        machine, heap = heap_machine()
        machine.run([(READ, heap)])
        transactions, fills, _ = delta(machine, [(WRITE, heap + 32)])
        assert (transactions, fills) == (1, 1)
        index = machine.cache.probe(heap + 32)
        assert machine.cache.state[index] is CoherencyState.OWNED_EXCLUSIVE
        assert delta(machine, [(WRITE, heap + 32)]) == (0, 0, 0)

    def test_dirty_eviction_adds_a_write_back(self):
        machine, heap = heap_machine()
        other = heap + TINY_CACHE  # another page, the same frame
        machine.run([(READ, heap), (READ, other), (READ, heap)])
        assert delta(machine, [(WRITE, heap)]) == (1, 0, 0)
        # Fetching the conflicting block evicts the dirty one: a fill
        # and a write-back; evicting it again, clean, is a fill alone.
        assert delta(machine, [(READ, other)]) == (2, 1, 1)
        assert delta(machine, [(READ, heap)]) == (1, 1, 0)

    def test_hits_cost_no_transactions(self):
        machine, heap = heap_machine()
        machine.run([(WRITE, heap), (READ, heap + 32)])
        hits = [(READ, heap), (WRITE, heap), (READ, heap + 32)] * 20
        assert delta(machine, hits) == (0, 0, 0)


class TestBusCounterWiring:
    def test_mode_2_bank_measures_the_protocol(self):
        # The hardware methodology: a mode-2 run sees the coherency
        # events and drops everything outside the set.
        space_map, regions = simple_space()
        heap = regions["heap"].start
        accesses = [(READ, heap), (WRITE, heap), (WRITE, heap + 32),
                    (READ, heap + TINY_CACHE)]
        counters = PerformanceCounters(mode=2)
        moded = SpurMachine(tiny_config(), space_map, counters=counters)
        moded.run(accesses)
        assert counters.read(Event.BUS_TRANSACTION) > 0
        assert counters.read(Event.BLOCK_FILL) > 0
        assert counters.read(Event.WRITE_BACK) == 1
        # Mode 2 does not watch processor writes.
        assert counters.read(Event.PROCESSOR_WRITE) == 0

        omniscient = SpurMachine(tiny_config(), space_map)
        omniscient.run(accesses)
        for event in MODE_SETS[2]:
            assert counters.read(event) == (
                omniscient.counters.read(event)), event.name

    def test_bare_cache_and_machine_agree(self):
        # A machine's cache counts its fills' transactions in the
        # machine's own counter bank.
        machine, heap = heap_machine()
        assert machine.cache.counters is machine.counters
        machine.run([(READ, heap + n * TINY_PAGE) for n in range(12)])
        assert installs(machine) > 12
        assert bus(machine) == (installs(machine)
                                + machine.counters.read(Event.WRITE_BACK))


def counted_run(dirty, ref, oracle):
    """Run the two-process mix; return the machine and the
    ``(fills, upgrades)`` that ``VirtualCache.fill`` made and
    ``acquire_ownership`` reported (oracle runs only)."""
    instance = TwoProcessMix().instantiate(TINY_PAGE, seed=0)
    machine = SpurMachine(
        tiny_config(dirty_policy=dirty, reference_policy=ref,
                    daemon_poll_refs=500),
        instance.space_map,
    )
    counts = [0, 0]
    if oracle:
        fill = machine.cache.fill
        acquire = machine.cache.acquire_ownership

        def counting_fill(*args, **kwargs):
            counts[0] += 1
            return fill(*args, **kwargs)

        def counting_acquire(index):
            upgraded = acquire(index)
            counts[1] += upgraded
            return upgraded

        machine.cache.fill = counting_fill
        machine.cache.acquire_ownership = counting_acquire
        scalar_run_chunks(machine, instance.access_chunks(4096))
    else:
        machine.run_chunks(instance.access_chunks(4096))
    return machine, tuple(counts)


class TestBusIdentity:
    """Transactions = fills + fill write-backs + ownership upgrades,
    under every dirty and reference policy (FLUSH's refill of a
    flushed write-hit block is a fill, not an upgrade, and the only
    fill no miss counts)."""

    @pytest.mark.parametrize("dirty,ref", POLICY_PAIRS)
    def test_transactions_are_fills_write_backs_and_upgrades(self, dirty,
                                                             ref):
        oracle, (fills, upgrades) = counted_run(dirty, ref, oracle=True)
        assert upgrades > 0
        assert bus(oracle) == (
            fills + oracle.counters.read(Event.WRITE_BACK) + upgrades)
        if dirty == "FLUSH":
            assert fills > installs(oracle)
        else:
            assert fills == installs(oracle)

        chunked, _ = counted_run(dirty, ref, oracle=False)
        assert (chunked.counters.snapshot().as_dict()
                == oracle.counters.snapshot().as_dict())


class TestLineStatesAfterRun:
    """On one board a valid line is UNOWNED and clean, or
    OWNED_EXCLUSIVE and dirty; an invalid line is INVALID and clean."""

    @pytest.mark.parametrize("dirty,ref", POLICY_PAIRS)
    def test_owned_exactly_when_dirty(self, dirty, ref):
        machine, _ = counted_run(dirty, ref, oracle=False)
        cache = machine.cache
        owned = 0
        for index in range(cache.num_lines):
            state = cache.state[index]
            dirty_bit = bool(cache.block_dirty[index])
            if cache.line_block[index] < 0:
                assert state is CoherencyState.INVALID
                assert not dirty_bit
            elif state is CoherencyState.OWNED_EXCLUSIVE:
                assert dirty_bit
                owned += 1
            else:
                assert state is CoherencyState.UNOWNED
                assert not dirty_bit
        assert owned > 0
