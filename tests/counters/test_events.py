"""Unit tests for the counter event taxonomy and mode sets."""

from repro.counters.events import Event, MODE_SETS, NUM_COUNTERS, NUM_MODES


def test_four_modes_exist():
    assert set(MODE_SETS) == set(range(NUM_MODES))


def test_mode_sets_fit_the_sixteen_registers():
    for events in MODE_SETS.values():
        assert len(events) <= NUM_COUNTERS


def test_mode_sets_have_no_duplicates():
    for events in MODE_SETS.values():
        assert len(set(events)) == len(events)


def test_dirty_bit_mode_covers_the_paper_events():
    # Mode 3 must count everything Table 3.3 needs in one run.
    needed = {
        Event.DIRTY_FAULT,
        Event.ZERO_FILL_DIRTY_FAULT,
        Event.EXCESS_FAULT,
        Event.DIRTY_BIT_MISS,
        Event.WRITE_TO_READ_FILLED_BLOCK,
        Event.WRITE_MISS_FILL,
    }
    assert needed <= set(MODE_SETS[3])


def test_reference_mix_mode_covers_processor_events():
    needed = {
        Event.INSTRUCTION_FETCH,
        Event.PROCESSOR_READ,
        Event.PROCESSOR_WRITE,
        Event.IFETCH_MISS,
        Event.READ_MISS,
        Event.WRITE_MISS,
    }
    assert needed <= set(MODE_SETS[0])


def test_translation_mode_covers_walk_events():
    needed = {
        Event.TRANSLATION,
        Event.PTE_CACHE_HIT,
        Event.PTE_CACHE_MISS,
        Event.SECOND_LEVEL_MEMORY_ACCESS,
    }
    assert needed <= set(MODE_SETS[1])


def test_every_event_has_unique_value():
    values = [int(e) for e in Event]
    assert len(values) == len(set(values))


def test_numbering_is_dense():
    # Counter banks size their slot lists with len(Event).
    assert sorted(int(e) for e in Event) == list(range(len(Event)))


def test_every_event_is_counted_in_some_mode():
    counted = set()
    for events in MODE_SETS.values():
        counted.update(events)
    assert counted == set(Event)


def test_coherency_mode_counts_the_bus_traffic():
    # Mode 2 sees every transaction the one board puts on the bus.
    needed = {
        Event.BUS_TRANSACTION,
        Event.BLOCK_FILL,
        Event.WRITE_BACK,
        Event.FLUSH_OPERATION,
        Event.FLUSH_WRITE_BACK,
    }
    assert needed <= set(MODE_SETS[2])
