"""Unit tests for the clock page daemon and its policy interplay."""

import pytest

from repro.counters.events import Event
from repro.workloads.base import READ, WRITE

from tests.conftest import TINY_PAGE, make_machine, simple_space


def pressured_machine(reference_policy="MISS", **overrides):
    space_map, regions = simple_space(heap_pages=40)
    machine = make_machine(
        space_map, memory_bytes=16 * TINY_PAGE, wired_frames=2,
        reference_policy=reference_policy, **overrides,
    )
    return machine, regions


def touch(machine, region, count, op=READ, stride=1):
    machine.run([
        (op, region.start + i * stride * TINY_PAGE)
        for i in range(count)
    ])


class TestClock:
    def test_daemon_runs_under_pressure_only(self):
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 4)
        assert machine.vm.daemon.runs == 0
        touch(machine, regions["heap"], 30)
        assert machine.vm.daemon.runs > 0

    def test_reclaims_to_high_water(self):
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 35)
        free = machine.vm.allocator.free_count
        assert free >= machine.vm.daemon.low_water - 1

    def test_second_chance_spares_referenced_pages(self):
        machine, regions = pressured_machine()
        heap = regions["heap"]
        hot = heap.start
        # Keep the hot page referenced by touching it between sweeps.
        for wave in range(6):
            machine.run([(READ, hot)])
            touch(machine, heap, 8, stride=1)
            # Re-reference so the daemon sees the bit set.
            machine.run([(READ, hot + 32 * (wave % 4))])
        vpn = hot >> machine.page_bits
        # The hot page has survived several daemon passes.
        assert machine.page_table.lookup(vpn).valid

    def test_reference_clear_counted(self):
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 40)
        touch(machine, regions["heap"], 40)
        assert machine.counters.read(Event.REFERENCE_CLEAR) > 0

    def test_daemon_cycles_accounted(self):
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 40)
        assert machine.vm.stats.daemon_cycles > 0


class TestPolicyInterplay:
    def test_noref_never_clears(self):
        machine, regions = pressured_machine(reference_policy="NOREF")
        touch(machine, regions["heap"], 40)
        touch(machine, regions["heap"], 40)
        assert machine.counters.read(Event.REFERENCE_CLEAR) == 0
        assert machine.counters.read(Event.REFERENCE_FAULT) == 0

    def test_ref_policy_flushes_on_clear(self):
        machine, regions = pressured_machine(reference_policy="REF")
        touch(machine, regions["heap"], 40)
        touch(machine, regions["heap"], 40)
        if machine.counters.read(Event.REFERENCE_CLEAR) == 0:
            pytest.skip("no clears happened; enlarge the test")
        assert machine.counters.read(Event.FLUSH_OPERATION) > 0

    def test_miss_policy_reference_faults_after_clear(self):
        # The MISS mechanism end to end: clear the bit as the daemon
        # would, evict the page's blocks from the cache, and the next
        # reference misses and takes a reference fault to re-set it.
        machine, regions = pressured_machine(reference_policy="MISS")
        heap = regions["heap"]
        machine.run([(READ, heap.start)])
        vpn = heap.start >> machine.page_bits
        pte = machine.page_table.entry(vpn)
        assert pte.referenced
        machine.reference_policy.clear_reference(machine, vpn, pte)
        machine.cache.clear()
        machine.run([(READ, heap.start)])
        assert machine.counters.read(Event.REFERENCE_FAULT) == 1
        assert pte.referenced


class TestPoll:
    def test_poll_scans_at_most_one_lap(self):
        # A poll visits max(16, resident / 6) slots, but never the
        # same slot twice: with 5 resident pages it scans 5, not 16.
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 5)
        assert len(machine.vm.daemon.resident_pages()) == 5
        cycles = machine.vm.daemon.poll()
        assert machine.counters.read(Event.DAEMON_PAGE_SCAN) == 5
        assert machine.counters.read(Event.REFERENCE_CLEAR) == 5
        assert cycles == 5 * machine.fault_timing.daemon_page_scan

    def test_poll_clears_without_reclaiming(self):
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 8)
        reclaims_before = machine.counters.read(Event.PAGE_RECLAIM)
        cycles = machine.vm.daemon.poll()
        assert cycles > 0
        assert machine.counters.read(Event.PAGE_RECLAIM) == (
            reclaims_before
        )

    def test_poll_is_free_under_noref(self):
        machine, regions = pressured_machine(reference_policy="NOREF")
        touch(machine, regions["heap"], 8)
        assert machine.vm.daemon.poll() == 0

    def test_poll_on_empty_clock(self):
        machine, _ = pressured_machine()
        assert machine.vm.daemon.poll() == 0

    def test_periodic_poll_wired_into_run(self):
        space_map, regions = simple_space(heap_pages=8)
        machine = make_machine(space_map, daemon_poll_refs=1024)
        refs = [(READ, regions["heap"].start)] * 4096
        machine.run(refs)
        assert machine.vm.daemon.polls >= 3


class TestWatermarkValidation:
    def test_bad_watermarks_rejected(self):
        from repro.vm.pagedaemon import ClockPageDaemon
        with pytest.raises(ValueError):
            ClockPageDaemon(None, low_water=5, high_water=2)
        with pytest.raises(ValueError):
            ClockPageDaemon(None, low_water=0, high_water=2)
