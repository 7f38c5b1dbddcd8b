"""Unit tests for the experiment runner."""

import pytest

from repro.counters.events import Event
from repro.machine.runner import ExperimentRunner
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

from tests.conftest import tiny_config


TINY_SCALE = 0.004


def quick_config(**overrides):
    from repro.machine.config import scaled_config
    return scaled_config(memory_ratio=40, **overrides)


class TestRun:
    def test_result_fields_populated(self):
        runner = ExperimentRunner()
        result = runner.run(
            quick_config(), SlcWorkload(length_scale=TINY_SCALE)
        )
        assert result.workload == "SLC"
        assert result.references > 0
        assert result.cycles > result.references
        assert result.dirty_policy == "SPUR"
        assert result.reference_policy == "MISS"
        assert result.elapsed_seconds > 0
        assert result.cycles_per_reference > 1

    def test_events_snapshot_included(self):
        runner = ExperimentRunner()
        result = runner.run(
            quick_config(), SlcWorkload(length_scale=TINY_SCALE)
        )
        assert result.event(Event.INSTRUCTION_FETCH) > 0
        # Fills and write-backs are bus transactions.
        assert result.event(Event.BUS_TRANSACTION) > 0

    def test_max_references_caps_the_run(self):
        runner = ExperimentRunner()
        result = runner.run(
            quick_config(), Workload1(length_scale=1.0),
            max_references=5000,
        )
        assert result.references == 5000
        # A negative cap is an error, not "almost a whole chunk".
        with pytest.raises(ValueError, match="max_references"):
            runner.run(
                quick_config(), SlcWorkload(length_scale=0.01),
                max_references=-5,
            )

    def test_same_seed_is_deterministic(self):
        runner = ExperimentRunner()
        results = [
            runner.run(quick_config(),
                       SlcWorkload(length_scale=TINY_SCALE), seed=3)
            for _ in range(2)
        ]
        assert results[0].cycles == results[1].cycles
        assert results[0].page_ins == results[1].page_ins

    def test_different_seeds_differ(self):
        runner = ExperimentRunner()
        a = runner.run(quick_config(),
                       SlcWorkload(length_scale=TINY_SCALE), seed=0)
        b = runner.run(quick_config(),
                       SlcWorkload(length_scale=TINY_SCALE), seed=1)
        assert a.cycles != b.cycles


class TestRepetitions:
    def test_distinct_seeds_used(self):
        runner = ExperimentRunner()
        results = runner.run_repetitions(
            quick_config(), SlcWorkload(length_scale=TINY_SCALE),
            repetitions=3,
        )
        assert [r.seed for r in results] == [0, 1, 2]

    def test_repetition_r_runs_at_seed_r(self):
        runner = ExperimentRunner()
        results = runner.run_repetitions(
            quick_config(), SlcWorkload(length_scale=TINY_SCALE),
            repetitions=2,
        )
        assert results[1] == runner.run(
            quick_config(), SlcWorkload(length_scale=TINY_SCALE), seed=1,
        )


class TestHostSeconds:
    def test_excluded_from_equality(self):
        """Wall-clock noise must not fail result comparisons."""
        runner = ExperimentRunner()
        workload = SlcWorkload(length_scale=TINY_SCALE)
        a = runner.run(quick_config(), workload, seed=3)
        b = runner.run(quick_config(),
                       SlcWorkload(length_scale=TINY_SCALE), seed=3)
        # Identical simulations with (forced) different wall-clock
        # timings still compare equal: host_seconds is compare=False.
        import dataclasses
        assert a == dataclasses.replace(b, host_seconds=999.0)


class TestMasterSeedMixing:
    def test_master_seed_alone_does_not_change_results(self):
        """The master seed orders cells; it never changes a result."""
        a = ExperimentRunner(master_seed=1).run_repetitions(
            quick_config(), SlcWorkload(length_scale=TINY_SCALE),
            repetitions=2,
        )
        b = ExperimentRunner(master_seed=2).run_repetitions(
            quick_config(), SlcWorkload(length_scale=TINY_SCALE),
            repetitions=2,
        )
        assert a == b
        assert [r.seed for r in a] == [0, 1]


class TestMatrix:
    def test_duplicate_labels_rejected(self):
        """Two points under one label used to silently collide: the
        dict comprehension kept a single result list and the second
        point's repetitions overwrote the first's.  Now it raises."""
        runner = ExperimentRunner()
        points = [
            ("same", quick_config(),
             SlcWorkload(length_scale=TINY_SCALE)),
            ("same", quick_config(reference_policy="NOREF"),
             SlcWorkload(length_scale=TINY_SCALE)),
        ]
        with pytest.raises(ValueError, match="duplicate point labels"):
            runner.run_matrix(points, repetitions=1)

    def test_old_silent_collision_shape(self):
        """Proof of the old bug's shape: distinct configs under one
        label can only produce one result list, so one point's data
        is necessarily lost.  The ValueError above is what prevents
        this from happening silently."""
        points = [
            ("same", quick_config(),
             SlcWorkload(length_scale=TINY_SCALE)),
            ("same", quick_config(reference_policy="NOREF"),
             SlcWorkload(length_scale=TINY_SCALE)),
        ]
        # The old implementation's result dict: one slot for two points.
        results = {label: [None] * 1 for label, _, _ in points}
        assert len(results) == 1 < len(points)
    def test_randomised_matrix_returns_seed_order(self):
        runner = ExperimentRunner(master_seed=7)
        points = [
            ("a", quick_config(), SlcWorkload(length_scale=TINY_SCALE)),
            ("b", quick_config(reference_policy="NOREF"),
             SlcWorkload(length_scale=TINY_SCALE)),
        ]
        results = runner.run_matrix(points, repetitions=2)
        assert set(results) == {"a", "b"}
        for label in ("a", "b"):
            assert [r.seed for r in results[label]] == [0, 1]

    def test_randomisation_does_not_change_results(self):
        def build_points():
            return [
                ("a", quick_config(),
                 SlcWorkload(length_scale=TINY_SCALE)),
            ]
        ordered = ExperimentRunner().run_matrix(
            build_points(), repetitions=2, randomize=False
        )
        shuffled = ExperimentRunner(master_seed=123).run_matrix(
            build_points(), repetitions=2, randomize=True
        )
        for rep in range(2):
            assert (
                ordered["a"][rep].cycles == shuffled["a"][rep].cycles
            )
