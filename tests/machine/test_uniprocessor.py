"""The simulated machine is one SPUR board, as in every table measured.

Shared-memory semantics on that board: one page fault brings a page
in for all of its blocks, and each written page takes exactly one
necessary dirty fault — N_ds is the number of distinct pages written
(EXPERIMENTS.md's multiprocessor arithmetic rests on it), whatever
the dirty policy and however often the reference policy flushes the
page's blocks out of the cache in between.
"""

import inspect

import pytest

from repro.counters.events import Event
from repro.machine.simulator import SpurMachine
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.workloads.base import READ, WRITE

from tests.conftest import TINY_PAGE, make_machine, simple_space


class TestOneBoard:
    def test_constructor_takes_no_shared_components(self):
        # The page table, VM system and swap device are the machine's
        # own; there is no bus to attach to.
        params = list(inspect.signature(SpurMachine).parameters)
        assert params == ["config", "space_map", "counters", "name"]

    def test_one_page_fault_serves_every_block(self):
        space_map, regions = simple_space()
        machine = make_machine(space_map)
        heap = regions["heap"].start
        machine.run([(READ, heap), (READ, heap + 32), (WRITE, heap + 64),
                     (READ, heap + TINY_PAGE - 4)])
        assert machine.counters.read(Event.PAGE_FAULT) == 1


class TestDirtyFaultsPerWrittenPage:
    @pytest.mark.parametrize("ref", REFERENCE_POLICY_NAMES)
    @pytest.mark.parametrize("dirty", DIRTY_POLICY_NAMES)
    def test_one_dirty_fault_per_distinct_written_page(self, dirty, ref):
        space_map, regions = simple_space()
        # Poll the clock daemon often, so REF clears reference bits
        # and flushes written pages' blocks between their writes.
        machine = make_machine(space_map, dirty_policy=dirty,
                               reference_policy=ref, daemon_poll_refs=7)
        heap = regions["heap"].start
        written = (0, 3, 4, 9, 17)
        accesses = []
        for sweep in range(6):
            for page in range(20):
                base = heap + page * TINY_PAGE
                kind = WRITE if page in written and sweep % 2 else READ
                accesses += [(kind, base + block * 32)
                             for block in (sweep % 4, 3 - sweep % 4)]
        machine.run(accesses)
        assert machine.counters.read(Event.PAGE_OUT) == 0
        assert machine.counters.read(Event.DIRTY_FAULT) == len(written)
        for page in range(20):
            vpn = (heap >> machine.page_bits) + page
            assert machine.page_table.entry(vpn).is_modified() == (
                page in written)
