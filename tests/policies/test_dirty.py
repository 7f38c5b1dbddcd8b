"""Unit tests for the five dirty-bit policies, driven via the machine."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import Protection
from repro.counters.events import Event
from repro.policies.dirty import make_dirty_policy
from repro.workloads.base import READ, WRITE

from tests.conftest import make_machine, simple_space


def policy_machine(policy):
    space_map, regions = simple_space()
    machine = make_machine(space_map, dirty_policy=policy)
    return machine, regions["heap"].start


class TestFactory:
    def test_all_policies_constructible(self):
        for name in ("FAULT", "FLUSH", "SPUR", "WRITE", "MIN"):
            assert make_dirty_policy(name).name == name

    def test_case_insensitive(self):
        assert make_dirty_policy("spur").name == "SPUR"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_dirty_policy("NOPE")


class TestNecessaryFaults:
    @pytest.mark.parametrize(
        "policy", ["FAULT", "FLUSH", "SPUR", "WRITE", "MIN"]
    )
    def test_first_write_faults_once(self, policy):
        machine, heap = policy_machine(policy)
        machine.run([(WRITE, heap), (WRITE, heap), (WRITE, heap + 4)])
        assert machine.counters.read(Event.DIRTY_FAULT) == 1

    @pytest.mark.parametrize(
        "policy", ["FAULT", "FLUSH", "SPUR", "WRITE", "MIN"]
    )
    def test_zero_fill_faults_tagged(self, policy):
        machine, heap = policy_machine(policy)
        machine.run([(WRITE, heap)])
        assert machine.counters.read(
            Event.ZERO_FILL_DIRTY_FAULT
        ) == 1

    @pytest.mark.parametrize(
        "policy", ["FAULT", "FLUSH", "SPUR", "WRITE", "MIN"]
    )
    def test_page_marked_modified(self, policy):
        machine, heap = policy_machine(policy)
        machine.run([(WRITE, heap)])
        pte = machine.page_table.entry(heap >> machine.page_bits)
        assert pte.is_modified()


class TestProtectionEmulation:
    def test_fault_maps_writable_pages_read_only(self):
        machine, heap = policy_machine("FAULT")
        machine.run([(READ, heap)])
        pte = machine.page_table.entry(heap >> machine.page_bits)
        assert pte.protection is Protection.READ_ONLY

    def test_fault_promotes_on_first_write(self):
        machine, heap = policy_machine("FAULT")
        machine.run([(WRITE, heap)])
        pte = machine.page_table.entry(heap >> machine.page_bits)
        assert pte.protection is Protection.READ_WRITE
        assert pte.software_dirty
        assert not pte.dirty  # emulation never sets the hardware bit

    def test_hardware_policies_map_read_write(self):
        for policy in ("SPUR", "WRITE", "MIN"):
            machine, heap = policy_machine(policy)
            machine.run([(READ, heap)])
            pte = machine.page_table.entry(heap >> machine.page_bits)
            assert pte.protection is Protection.READ_WRITE


class TestExcessFaultsAndMisses:
    def read_then_write_two_blocks(self, machine, heap):
        """Fig. 3.1: cache two blocks of a clean page by read, then
        write them both."""
        machine.run([
            (READ, heap),          # block 0 cached, page clean
            (READ, heap + 32),     # block 1 cached, page clean
            (WRITE, heap),         # necessary fault
            (WRITE, heap + 32),    # stale copy -> excess / dirty miss
        ])

    def test_fault_policy_takes_excess_fault(self):
        machine, heap = policy_machine("FAULT")
        self.read_then_write_two_blocks(machine, heap)
        assert machine.counters.read(Event.DIRTY_FAULT) == 1
        assert machine.counters.read(Event.EXCESS_FAULT) == 1
        assert machine.counters.read(Event.DIRTY_BIT_MISS) == 0

    def test_spur_policy_takes_dirty_bit_miss(self):
        machine, heap = policy_machine("SPUR")
        self.read_then_write_two_blocks(machine, heap)
        assert machine.counters.read(Event.DIRTY_FAULT) == 1
        assert machine.counters.read(Event.DIRTY_BIT_MISS) == 1
        assert machine.counters.read(Event.EXCESS_FAULT) == 0

    def test_flush_policy_prevents_excess_faults(self):
        machine, heap = policy_machine("FLUSH")
        self.read_then_write_two_blocks(machine, heap)
        assert machine.counters.read(Event.EXCESS_FAULT) == 0
        # The second block was flushed by the fault handler, so the
        # write to it re-misses instead.
        assert machine.counters.read(Event.DIRTY_FAULT) == 1

    def test_min_policy_refreshes_for_free(self):
        machine, heap = policy_machine("MIN")
        self.read_then_write_two_blocks(machine, heap)
        assert machine.counters.read(Event.DIRTY_FAULT) == 1
        assert machine.counters.read(Event.EXCESS_FAULT) == 0
        assert machine.counters.read(Event.DIRTY_BIT_MISS) == 0

    def test_spur_dirty_miss_cheaper_than_fault_policy_fault(self):
        spur_machine, heap = policy_machine("SPUR")
        fault_machine, _ = policy_machine("FAULT")
        self.read_then_write_two_blocks(spur_machine, heap)
        self.read_then_write_two_blocks(fault_machine, heap)
        assert spur_machine.cycles < fault_machine.cycles
        # The gap is one excess fault versus one dirty-bit miss, less
        # the extra dirty-bit miss SPUR pays on the necessary fault
        # (the t_dm term of O(SPUR) in Section 3.2).
        t_ds = fault_machine.fault_timing.dirty_fault
        t_dm = spur_machine.fault_timing.dirty_bit_miss
        assert fault_machine.cycles - spur_machine.cycles == (
            t_ds - 2 * t_dm
        )


class TestWritePolicy:
    def test_checks_pte_on_first_write_to_read_filled_block(self):
        machine, heap = policy_machine("WRITE")
        machine.run([
            (WRITE, heap),        # write miss: free check + fault
            (READ, heap + 32),    # read fill
            (WRITE, heap + 32),   # first write to the block: t_dc
            (WRITE, heap + 32),   # block already dirty: free
        ])
        assert machine.counters.read(Event.DIRTY_CHECK) == 1

    def test_never_generates_excess_faults(self):
        machine, heap = policy_machine("WRITE")
        machine.run([
            (READ, heap), (READ, heap + 32),
            (WRITE, heap), (WRITE, heap + 32),
        ])
        assert machine.counters.read(Event.EXCESS_FAULT) == 0


class TestWriteHitFastPath:
    @pytest.mark.parametrize(
        "policy", ["FAULT", "FLUSH", "SPUR", "WRITE", "MIN"]
    )
    def test_settled_write_hits_cost_one_cycle(self, policy):
        machine, heap = policy_machine(policy)
        machine.run([(WRITE, heap)])  # settle the block
        before = machine.cycles
        machine.run([(WRITE, heap)] * 10)
        assert machine.cycles - before == 10

    @pytest.mark.parametrize(
        "policy", ["FAULT", "FLUSH", "SPUR", "WRITE", "MIN"]
    )
    def test_settled_implies_zero_cycle_no_op_handler(self, policy):
        # The contract the resolver's fast path relies on: once
        # write_hit_settled says True, the slow handler must be a
        # zero-cycle, zero-mutation no-op for that line.
        machine, heap = policy_machine(policy)
        machine.run([(WRITE, heap), (WRITE, heap)])
        cache = machine.cache
        index = cache.probe(heap)
        settled = machine.dirty_policy.write_hit_settled(cache, index)
        if policy == "WRITE":
            assert not settled  # WRITE always re-checks the PTE
            return
        assert settled
        vpn = heap >> machine.page_bits
        pte = machine._pte_peek(vpn)
        page = machine._page_peek(vpn)
        before_cols = {
            name: list(col) for name, col in cache.columns.columns()
        }
        before_pte = (pte.dirty, pte.referenced)
        cost = machine.dirty_policy.handle_write_hit(
            machine, index, heap, pte, page
        )
        assert cost == 0
        assert before_pte == (pte.dirty, pte.referenced)
        after_cols = {
            name: list(col) for name, col in cache.columns.columns()
        }
        assert after_cols == before_cols
