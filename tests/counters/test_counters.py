"""Unit tests for the performance-counter bank."""

import pytest

from repro.counters.counters import (
    COUNTER_MODULUS,
    CounterSnapshot,
    PerformanceCounters,
)
from repro.counters.events import Event, MODE_SETS, NUM_COUNTERS


class TestOmniscientMode:
    def test_counts_everything(self):
        counters = PerformanceCounters()
        counters.increment(Event.DIRTY_FAULT)
        counters.increment(Event.PAGE_IN, 3)
        assert counters.read(Event.DIRTY_FAULT) == 1
        assert counters.read(Event.PAGE_IN) == 3

    def test_unincremented_reads_zero(self):
        assert PerformanceCounters().read(Event.PAGE_RECLAIM) == 0

    def test_reset(self):
        counters = PerformanceCounters()
        counters.increment(Event.PAGE_OUT)
        counters.reset()
        assert counters.read(Event.PAGE_OUT) == 0

    def test_no_register_layout(self):
        with pytest.raises(ValueError):
            PerformanceCounters().register_layout()


class TestHardwareModes:
    def test_mode_filters_events(self):
        counters = PerformanceCounters(mode=0)
        counters.increment(Event.DIRTY_FAULT)  # not in mode 0
        counters.increment(Event.READ_MISS)    # in mode 0
        assert counters.read(Event.DIRTY_FAULT) == 0
        assert counters.read(Event.READ_MISS) == 1

    def test_mode_change_preserves_counts(self):
        counters = PerformanceCounters(mode=0)
        counters.increment(Event.READ_MISS)
        counters.set_mode(3)
        assert counters.read(Event.READ_MISS) == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PerformanceCounters(mode=4)

    def test_register_layout_shape(self):
        counters = PerformanceCounters(mode=2)
        layout = counters.register_layout()
        assert len(layout) == NUM_COUNTERS
        assigned = [event for _, event in layout if event is not None]
        assert tuple(assigned) == MODE_SETS[2]

    def test_visible_events(self):
        counters = PerformanceCounters(mode=1)
        assert counters.visible_events() == MODE_SETS[1]
        counters.set_mode(None)
        assert len(counters.visible_events()) == len(tuple(Event))

    def test_agrees_with_omniscient_on_shared_events(self):
        moded = PerformanceCounters(mode=3)
        omni = PerformanceCounters()
        for _ in range(5):
            for bank in (moded, omni):
                bank.increment(Event.DIRTY_FAULT)
                bank.increment(Event.BUS_TRANSACTION)  # not in mode 3
        assert moded.read(Event.DIRTY_FAULT) == omni.read(
            Event.DIRTY_FAULT
        )


class TestSlots:
    """The in-place primitive: ``bank.slots[int(event)] += n``."""

    def test_moded_bank_drops_invisible_slot_adds(self):
        counters = PerformanceCounters(mode=0)
        counters.slots[int(Event.DIRTY_FAULT)] += 1  # not in mode 0
        counters.slots[int(Event.READ_MISS)] += 2    # in mode 0
        assert counters.read(Event.DIRTY_FAULT) == 0
        assert Event.DIRTY_FAULT not in counters.snapshot()
        counters.set_mode(3)  # DIRTY_FAULT visible from here on
        assert counters.read(Event.DIRTY_FAULT) == 0
        counters.slots[int(Event.DIRTY_FAULT)] += 1
        assert counters.read(Event.DIRTY_FAULT) == 1
        assert counters.read(Event.READ_MISS) == 2

    def test_set_mode_keeps_slot_counts(self):
        counters = PerformanceCounters(mode=1)
        counters.slots[int(Event.TRANSLATION)] += 4
        counters.set_mode(0)
        counters.slots[int(Event.TRANSLATION)] += 1  # hidden now
        counters.set_mode(None)
        assert counters.read(Event.TRANSLATION) == 4
        assert counters.snapshot()[Event.TRANSLATION] == 4

    def test_slot_counts_wrap_at_32_bits(self):
        counters = PerformanceCounters()
        counters.slots[int(Event.PAGE_IN)] += COUNTER_MODULUS - 1
        counters.slots[int(Event.PAGE_IN)] += 3
        assert counters.read(Event.PAGE_IN) == 2
        assert counters.snapshot()[Event.PAGE_IN] == 2

    def test_add_of_zero_makes_the_event_appear(self):
        counters = PerformanceCounters()
        counters.slots[int(Event.FLUSH_WRITE_BACK)] += 0
        counters.increment(Event.PAGE_OUT, 0)
        snapshot = counters.snapshot()
        assert snapshot.as_dict() == {
            Event.PAGE_OUT: 0, Event.FLUSH_WRITE_BACK: 0,
        }
        assert Event.PAGE_IN not in snapshot

    def test_reset_clears_slots_in_place(self):
        counters = PerformanceCounters()
        slots = counters.slots
        slots[int(Event.PAGE_IN)] += 1
        counters.reset()
        assert counters.slots is slots
        assert counters.snapshot().as_dict() == {}


class TestWraparound:
    def test_increment_wraps_at_32_bits(self):
        counters = PerformanceCounters()
        counters.increment(Event.PAGE_IN, COUNTER_MODULUS - 1)
        counters.increment(Event.PAGE_IN, 2)
        assert counters.read(Event.PAGE_IN) == 1

    def test_snapshot_delta_across_wrap(self):
        counters = PerformanceCounters()
        counters.increment(Event.PAGE_IN, COUNTER_MODULUS - 10)
        before = counters.snapshot()
        counters.increment(Event.PAGE_IN, 25)
        delta = counters.snapshot() - before
        assert delta[Event.PAGE_IN] == 25


class TestSnapshot:
    def test_snapshot_is_immutable_copy(self):
        counters = PerformanceCounters()
        counters.increment(Event.PAGE_IN)
        snap = counters.snapshot()
        counters.increment(Event.PAGE_IN)
        assert snap[Event.PAGE_IN] == 1
        assert counters.read(Event.PAGE_IN) == 2

    def test_delta_subtraction(self):
        counters = PerformanceCounters()
        counters.increment(Event.PAGE_OUT, 5)
        first = counters.snapshot()
        counters.increment(Event.PAGE_OUT, 7)
        delta = counters.snapshot() - first
        assert delta[Event.PAGE_OUT] == 7

    def test_subtracting_non_snapshot_is_not_implemented(self):
        snap = CounterSnapshot({})
        with pytest.raises(TypeError):
            snap - 3

    def test_as_dict_copy(self):
        counters = PerformanceCounters()
        counters.increment(Event.PAGE_IN)
        data = counters.snapshot().as_dict()
        data[Event.PAGE_IN] = 99
        assert counters.read(Event.PAGE_IN) == 1
