"""Unit tests for the whole-machine simulator's reference handling."""

import pytest

from repro.counters.events import Event
from repro.workloads.base import IFETCH, READ, WRITE

from tests.conftest import TINY_PAGE, make_machine, simple_space


@pytest.fixture
def rig():
    space_map, regions = simple_space()
    machine = make_machine(space_map)
    return machine, regions


class TestHitsAndMisses:
    def test_hit_costs_one_cycle(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        machine.run([(READ, heap)])
        before = machine.cycles
        machine.run([(READ, heap), (READ, heap + 4), (IFETCH, heap)])
        assert machine.cycles - before == 3

    def test_miss_counted_by_kind(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        code = regions["code"].start
        machine.run([
            (IFETCH, code), (READ, heap), (WRITE, heap + TINY_PAGE),
        ])
        assert machine.counters.read(Event.IFETCH_MISS) == 1
        assert machine.counters.read(Event.READ_MISS) == 1
        assert machine.counters.read(Event.WRITE_MISS) == 1

    def test_reference_mix_counted(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        code = regions["code"].start
        machine.run([(IFETCH, code)] * 3 + [(READ, heap)] * 2
                    + [(WRITE, heap)])
        assert machine.counters.read(Event.INSTRUCTION_FETCH) == 3
        assert machine.counters.read(Event.PROCESSOR_READ) == 2
        assert machine.counters.read(Event.PROCESSOR_WRITE) == 1

    def test_kind_counts_appear_even_at_zero(self, rig):
        # A run counts all three kinds, so a kind it never saw still
        # reads 0 in the snapshot rather than being absent.
        machine, regions = rig
        machine.run([(IFETCH, regions["code"].start)] * 2)
        snapshot = machine.counters.snapshot()
        assert snapshot[Event.INSTRUCTION_FETCH] == 2
        assert Event.PROCESSOR_READ in snapshot
        assert Event.PROCESSOR_WRITE in snapshot
        assert snapshot[Event.PROCESSOR_WRITE] == 0
        # Miss-path events are added only when they occurred.
        assert Event.WRITE_MISS not in snapshot
        assert Event.WRITE_BACK not in snapshot

    def test_events_appear_only_when_they_occur(self, rig):
        # Two instruction misses on one code page: the first faults
        # (the translator walks it, missing both PTE levels), the
        # second walks inline and hits the PTE block.  No other miss
        # path event may appear, not even at 0.
        machine, regions = rig
        code = regions["code"].start
        machine.run([(IFETCH, code), (IFETCH, code + 32)])
        snapshot = machine.counters.snapshot()
        assert snapshot.as_dict() == {
            Event.INSTRUCTION_FETCH: 2,
            Event.PROCESSOR_READ: 0,
            Event.PROCESSOR_WRITE: 0,
            Event.IFETCH_MISS: 2,
            Event.BLOCK_FILL: 2,
            Event.TRANSLATION: 2,
            Event.PTE_CACHE_HIT: 1,
            Event.PTE_CACHE_MISS: 1,
            Event.SECOND_LEVEL_LOOKUP: 1,
            Event.SECOND_LEVEL_MEMORY_ACCESS: 1,
            Event.BUS_TRANSACTION: 4,
            Event.PAGE_FAULT: 1,
            Event.PAGE_IN: 1,
        }
        # Nor does a run of reads add an instruction-miss event.
        space_map, regions = simple_space()
        reads = make_machine(space_map)
        reads.run([(READ, regions["heap"].start)])
        assert Event.IFETCH_MISS not in reads.counters.snapshot()

    def test_miss_fills_block(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        machine.run([(READ, heap)])
        assert machine.cache.probe(heap) >= 0
        assert machine.counters.read(Event.BLOCK_FILL) >= 1

    def test_translation_happens_on_miss_only(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        machine.run([(READ, heap), (READ, heap + 4)])
        assert machine.counters.read(Event.TRANSLATION) == 1

    def test_w_hit_and_w_miss_events(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        machine.run([
            (WRITE, heap),          # write miss fill
            (READ, heap + 32),      # read fill
            (WRITE, heap + 32),     # write to read-filled block
            (WRITE, heap + 32),     # repeat: not counted again
        ])
        assert machine.counters.read(Event.WRITE_MISS_FILL) == 1
        assert machine.counters.read(
            Event.WRITE_TO_READ_FILLED_BLOCK
        ) == 1


class TestCycleAccounting:
    def test_elapsed_seconds_uses_prototype_clock(self, rig):
        machine, regions = rig
        machine.run([(READ, regions["heap"].start)])
        assert machine.elapsed_seconds == pytest.approx(
            machine.cycles * 150e-9
        )

    def test_cycles_accumulate_across_runs(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        machine.run([(READ, heap)])
        first = machine.cycles
        machine.run([(READ, heap)])
        assert machine.cycles == first + 1

    def test_references_accumulate(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        machine.run([(READ, heap)] * 5)
        machine.run([(READ, heap)] * 3)
        assert machine.references == 8


class TestDeterminism:
    def test_identical_traces_identical_results(self):
        results = []
        for _ in range(2):
            space_map, regions = simple_space()
            machine = make_machine(space_map)
            heap = regions["heap"].start
            trace = [
                (WRITE if i % 3 == 0 else READ,
                 heap + (i * 52) % (8 * TINY_PAGE))
                for i in range(2000)
            ]
            machine.run(trace)
            results.append(
                (machine.cycles, machine.counters.snapshot().as_dict())
            )
        assert results[0] == results[1]


class TestSnapshotDelta:
    def test_interval_measurement(self, rig):
        machine, regions = rig
        heap = regions["heap"].start
        machine.run([(WRITE, heap)])
        before = machine.snapshot()
        machine.run([(WRITE, heap + TINY_PAGE)])
        delta = machine.snapshot() - before
        assert delta[Event.DIRTY_FAULT] == 1
