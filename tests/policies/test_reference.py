"""Unit tests for the three reference-bit policies."""

import pytest

from repro.common.errors import ConfigurationError
from repro.counters.events import Event
from repro.policies.reference import (
    REFERENCE_POLICY_NAMES,
    make_reference_policy,
)
from repro.workloads.base import READ

from tests.conftest import make_machine, simple_space


def policy_machine(policy):
    space_map, regions = simple_space()
    machine = make_machine(space_map, reference_policy=policy)
    return machine, regions["heap"].start


class TestFactory:
    def test_names(self):
        assert REFERENCE_POLICY_NAMES == ("MISS", "REF", "NOREF")
        for name in REFERENCE_POLICY_NAMES:
            assert make_reference_policy(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_reference_policy("CLOCKPRO")

    def test_maintains_bits_flags(self):
        assert make_reference_policy("MISS").maintains_bits
        assert make_reference_policy("REF").maintains_bits
        assert not make_reference_policy("NOREF").maintains_bits


class TestMiss:
    def test_page_fault_sets_bit_for_free(self):
        machine, heap = policy_machine("MISS")
        machine.run([(READ, heap)])
        pte = machine.page_table.entry(heap >> machine.page_bits)
        assert pte.referenced
        assert machine.counters.read(Event.REFERENCE_FAULT) == 0

    def test_miss_on_cleared_bit_faults(self):
        machine, heap = policy_machine("MISS")
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        pte = machine.page_table.entry(vpn)
        machine.reference_policy.clear_reference(machine, vpn, pte)
        machine.cache.clear()
        machine.run([(READ, heap)])
        assert machine.counters.read(Event.REFERENCE_FAULT) == 1
        assert pte.referenced

    def test_hit_on_cleared_bit_does_not_fault(self):
        # The MISS approximation's defining gap: references that hit
        # in the cache never set the bit.
        machine, heap = policy_machine("MISS")
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        pte = machine.page_table.entry(vpn)
        machine.reference_policy.clear_reference(machine, vpn, pte)
        machine.run([(READ, heap)])  # cache hit
        assert not pte.referenced
        assert machine.counters.read(Event.REFERENCE_FAULT) == 0

    def test_clear_is_free(self):
        machine, heap = policy_machine("MISS")
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        pte = machine.page_table.entry(vpn)
        assert machine.reference_policy.clear_reference(
            machine, vpn, pte
        ) == 0


class TestRef:
    def test_clear_flushes_page_from_cache(self):
        machine, heap = policy_machine("REF")
        machine.run([(READ, heap), (READ, heap + 32)])
        vpn = heap >> machine.page_bits
        pte = machine.page_table.entry(vpn)
        cycles = machine.reference_policy.clear_reference(
            machine, vpn, pte
        )
        assert cycles > 0
        assert machine.cache.lines_of_page(heap, machine.page_bytes) == []

    def test_next_reference_after_clear_always_faults(self):
        # The flush guarantees the next reference misses, making the
        # bit exact — the whole point of the REF policy.
        machine, heap = policy_machine("REF")
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        pte = machine.page_table.entry(vpn)
        machine.reference_policy.clear_reference(machine, vpn, pte)
        machine.run([(READ, heap)])
        assert pte.referenced
        assert machine.counters.read(Event.REFERENCE_FAULT) == 1


class TestNoref:
    def test_daemon_reads_every_page_as_unreferenced(self):
        machine, heap = policy_machine("NOREF")
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        assert machine.page_table.entry(vpn).referenced
        # The free pool is full, so one run evicts nothing unless the
        # scan reclaims the page it reads as unreferenced.
        machine.vm.daemon.high_water = machine.vm.allocator.free_count + 1
        machine.vm.daemon.run()
        assert not machine.page_table.entry(vpn).valid
        assert machine.counters.read(Event.REFERENCE_CLEAR) == 0

    def test_clear_has_no_effect(self):
        machine, heap = policy_machine("NOREF")
        machine.run([(READ, heap)])
        vpn = heap >> machine.page_bits
        pte = machine.page_table.entry(vpn)
        assert machine.reference_policy.clear_reference(
            machine, vpn, pte
        ) == 0
        # The hardware bit stays set, preventing reference faults.
        assert pte.referenced

    def test_never_reference_faults(self):
        machine, heap = policy_machine("NOREF")
        machine.run([(READ, heap)])
        machine.cache.clear()
        machine.run([(READ, heap)])
        assert machine.counters.read(Event.REFERENCE_FAULT) == 0
