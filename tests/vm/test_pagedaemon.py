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
        daemon_run = machine.vm.daemon.run
        cycles = []

        def counting_run():
            cycles.append(daemon_run())
            return cycles[-1]

        machine.vm.daemon.run = counting_run
        touch(machine, regions["heap"], 40)
        assert sum(cycles) >= (
            machine.counters.read(Event.DAEMON_PAGE_SCAN)
            * machine.fault_timing.daemon_page_scan
        ) > 0


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


def heap_vpns(machine, region, count):
    return [
        (region.start >> machine.page_bits) + i for i in range(count)
    ]


class TestConstruction:
    def test_vm_builds_a_clock_daemon(self):
        from repro.vm.pagedaemon import ClockPageDaemon
        machine, _ = pressured_machine()
        assert isinstance(machine.vm.daemon, ClockPageDaemon)
        assert machine.vm.daemon.vm is machine.vm

    def test_default_watermarks(self):
        # About 3% and 6% of the allocatable frames, at least 2 and 4.
        machine, _ = pressured_machine()
        assert machine.vm.frame_table.allocatable_frames == 14
        assert machine.vm.daemon.low_water == 2
        assert machine.vm.daemon.high_water == 4
        space_map, _ = simple_space()
        large = make_machine(space_map)   # 126 allocatable frames
        assert large.vm.daemon.low_water == 3
        assert large.vm.daemon.high_water == 6

    def test_configured_watermarks_reach_the_daemon(self):
        machine, _ = pressured_machine(low_water=3, high_water=7)
        assert machine.vm.daemon.low_water == 3
        assert machine.vm.daemon.high_water == 7

    def test_high_water_leaving_no_memory_rejected(self):
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            pressured_machine(low_water=2, high_water=14)


class TestClockOrder:
    def test_noref_clock_is_fifo(self):
        # With every bit reading clear, the hand reclaims pages in the
        # order they became resident: what stays is the newest pages.
        machine, regions = pressured_machine(reference_policy="NOREF")
        touch(machine, regions["heap"], 30)
        order = heap_vpns(machine, regions["heap"], 30)
        resident = machine.vm.daemon.resident_pages()
        assert resident == order[len(order) - len(resident):]
        assert machine.counters.read(Event.PAGE_RECLAIM) == (
            30 - len(resident)
        )

    def test_first_lap_clears_before_reclaiming(self):
        # Under MISS every freshly faulted page is referenced, so the
        # first run clears the 13 resident pages' bits on one lap and
        # reclaims the oldest three on the next.
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 14)
        assert machine.vm.daemon.runs == 1
        assert machine.counters.read(Event.REFERENCE_CLEAR) == 13
        assert machine.counters.read(Event.PAGE_RECLAIM) == 3
        vpns = heap_vpns(machine, regions["heap"], 14)
        assert machine.vm.daemon.resident_pages() == vpns[3:]

    def test_second_chance_at_the_hand(self):
        # A page re-referenced after its bit was cleared is passed
        # over once; the unreferenced pages behind it go instead.
        machine, regions = pressured_machine(low_water=2, high_water=12)
        heap = regions["heap"]
        touch(machine, heap, 5)
        v = heap_vpns(machine, heap, 5)
        machine.vm.daemon.poll()   # clears all five bits
        machine.cache.clear()      # so the next read misses (MISS)
        machine.run([(READ, heap.start)])
        assert machine.page_table.lookup(v[0]).referenced
        machine.vm.daemon.run()
        assert machine.vm.daemon.resident_pages() == [v[0], v[4]]

    def test_run_on_empty_clock_returns_zero(self):
        machine, _ = pressured_machine()
        assert machine.vm.daemon.run() == 0
        assert machine.vm.daemon.runs == 1
        assert Event.PAGE_RECLAIM not in machine.counters.snapshot()


class TestClockBookkeeping:
    def test_evicted_page_leaves_the_clock(self):
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 3)
        v = heap_vpns(machine, regions["heap"], 3)
        machine.vm.evict(v[0])
        assert machine.vm.daemon.resident_pages() == v[1:]

    def test_refault_rejoins_the_clock_at_the_tail(self):
        machine, regions = pressured_machine()
        heap = regions["heap"]
        touch(machine, heap, 3)
        v = heap_vpns(machine, heap, 3)
        machine.vm.evict(v[0])
        machine.run([(READ, heap.start)])
        resident = machine.vm.daemon.resident_pages()
        assert set(resident) == set(v)
        assert resident[-1] == v[0]

    def test_stale_slots_cost_no_scan(self):
        # Slots of pages evicted outside the daemon are skipped without
        # a scan charge; the first live page is the one reclaimed.
        machine, regions = pressured_machine(
            reference_policy="NOREF", low_water=2, high_water=12,
        )
        touch(machine, regions["heap"], 5)
        v = heap_vpns(machine, regions["heap"], 5)
        machine.vm.evict(v[0])
        machine.vm.evict(v[1])
        reclaims = machine.counters.read(Event.PAGE_RECLAIM)
        cycles = machine.vm.daemon.run()
        assert machine.counters.read(Event.DAEMON_PAGE_SCAN) == 1
        assert machine.counters.read(Event.PAGE_RECLAIM) == reclaims + 1
        assert machine.vm.daemon.resident_pages() == v[3:]
        assert cycles >= machine.fault_timing.daemon_page_scan

    def test_totals_match_the_event_counters(self):
        machine, regions = pressured_machine()
        # Every eviction here is the daemon's, and with polling off
        # every page it scans it either clears or reclaims.
        vm = machine.vm
        evict = vm.evict
        evicted = []

        def counting_evict(vpn):
            evicted.append(vpn)
            return evict(vpn)

        vm.evict = counting_evict
        touch(machine, regions["heap"], 40)
        touch(machine, regions["heap"], 40, op=WRITE)
        read = machine.counters.read
        assert len(evicted) == read(Event.PAGE_RECLAIM) > 0
        assert read(Event.DAEMON_PAGE_SCAN) == (
            read(Event.REFERENCE_CLEAR) + len(evicted)
        )

    def test_second_poll_finds_the_bits_clear(self):
        machine, regions = pressured_machine()
        touch(machine, regions["heap"], 5)
        machine.vm.daemon.poll()
        assert machine.vm.daemon.poll() == (
            5 * machine.fault_timing.daemon_page_scan
        )
        assert machine.vm.daemon.polls == 2
        assert machine.counters.read(Event.DAEMON_PAGE_SCAN) == 10
        assert machine.counters.read(Event.REFERENCE_CLEAR) == 5

    def test_noref_polls_are_not_counted(self):
        machine, regions = pressured_machine(reference_policy="NOREF")
        touch(machine, regions["heap"], 5)
        machine.vm.daemon.poll()
        assert machine.vm.daemon.polls == 0
        assert machine.counters.read(Event.DAEMON_PAGE_SCAN) == 0
