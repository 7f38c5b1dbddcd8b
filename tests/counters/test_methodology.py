"""Tests for the multi-run measurement campaign."""

import pytest

from repro.counters.events import Event, MODE_SETS
from repro.counters.methodology import (
    InconsistentRunsError,
    MeasurementCampaign,
)
from repro.machine.config import scaled_config
from repro.workloads.slc import SlcWorkload


def make_campaign(modes=None):
    return MeasurementCampaign(
        scaled_config(memory_ratio=48),
        SlcWorkload(length_scale=0.01),
        modes=modes,
    )


class TestCampaign:
    def test_all_modes_execute(self):
        campaign = make_campaign()
        events = campaign.execute(max_references=20_000)
        assert set(campaign.runs) == {0, 1, 2, 3}
        assert events[Event.INSTRUCTION_FETCH] > 0

    def test_assembled_covers_table_3_3_events(self):
        campaign = make_campaign(modes=(0, 3))
        events = campaign.execute(max_references=20_000)
        for event in (Event.DIRTY_FAULT, Event.WRITE_MISS_FILL,
                      Event.PAGE_IN):
            assert event in events

    def test_shared_events_consistent_across_modes(self):
        # READ_MISS appears in modes 0 and 1: assemble() must accept
        # (and deduplicate) the agreeing values.
        campaign = make_campaign(modes=(0, 1))
        events = campaign.execute(max_references=20_000)
        assert events[Event.READ_MISS] == campaign.runs[0].read(
            Event.READ_MISS
        )

    def test_inconsistency_detected(self):
        campaign = make_campaign(modes=(0, 1))
        campaign.execute(max_references=10_000)
        # Sabotage one bank to simulate a non-repeatable workload.
        campaign.runs[1].increment(Event.READ_MISS, 999)
        with pytest.raises(InconsistentRunsError):
            campaign.assemble()

    def test_matches_omniscient_single_run(self):
        from repro.machine.simulator import SpurMachine

        campaign = make_campaign(modes=(3,))
        events = campaign.execute(max_references=20_000)

        config = scaled_config(memory_ratio=48)
        workload = SlcWorkload(length_scale=0.01)
        instance = workload.instantiate(config.page_bytes, seed=0)
        machine = SpurMachine(config, instance.space_map)
        import itertools
        machine.run(itertools.islice(instance.accesses(), 20_000))

        for event in MODE_SETS[3]:
            assert events[event] == machine.counters.read(event), event


class TestPlanning:
    def test_coverage_union(self):
        campaign = make_campaign(modes=(0,))
        assert campaign.coverage() == set(MODE_SETS[0])

    def test_runs_needed_greedy_cover(self):
        campaign = make_campaign()
        modes = campaign.runs_needed_for(
            [Event.DIRTY_FAULT, Event.BUS_TRANSACTION]
        )
        covered = set()
        for mode in modes:
            covered.update(MODE_SETS[mode])
        assert {Event.DIRTY_FAULT, Event.BUS_TRANSACTION} <= covered
        assert len(modes) <= 2

    def test_single_mode_suffices_for_mode_subset(self):
        campaign = make_campaign()
        modes = campaign.runs_needed_for(
            [Event.DIRTY_FAULT, Event.EXCESS_FAULT]
        )
        assert modes == (3,)

    def test_every_event_is_measurable_in_some_mode(self):
        campaign = make_campaign()
        for event in Event:
            assert campaign.runs_needed_for([event])

    def test_unmeasurable_event_rejected(self):
        import enum

        class PhantomEvent(enum.IntEnum):
            NOT_ON_THE_CHIP = 999

        campaign = make_campaign()
        with pytest.raises(ValueError):
            campaign.runs_needed_for([PhantomEvent.NOT_ON_THE_CHIP])
