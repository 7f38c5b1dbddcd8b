"""Observation is provably inert: observed == unobserved, bitwise.

The tentpole contract of the observe layer, asserted across the same
workload x dirty-policy x reference-policy grid the chunked-equivalence
suite uses: attaching a RunObserver (which re-segments the reference
stream at epoch boundaries) must leave every counter, cycle count, and
VM total of the RunResult exactly as an unobserved run produces
them.  Where noted, the unobserved
side is the frozen scalar oracle of ``tests/oracle.py``.
"""

import dataclasses

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.simulator import SpurMachine
from repro.options import RunOptions

from tests.machine.test_chunked_equivalence import (
    DIRTY_POLICIES,
    REFERENCE_POLICIES,
    make_workload,
    recorded_stream,  # noqa: F401  (fixture re-export)
)
from tests.oracle import scalar_run_chunks

#: Epoch deliberately *not* a poll multiple: 500 rounds up to 512
#: against daemon_poll_refs=256, exercising the alignment rule.
EPOCH_REFS = 500


def grid_config(dirty, ref):
    return dataclasses.replace(
        scaled_config(memory_ratio=24, scale=8, dirty_policy=dirty,
                      reference_policy=ref),
        daemon_poll_refs=256,
    )


def check_observation(result):
    observation = result.observation
    assert observation is not None
    assert observation.epoch_refs == 512
    assert observation.is_monotone()
    assert observation.references == result.references
    last = observation.samples[-1]
    assert last.cycles == result.cycles
    for event, count in last.events.items():
        assert result.event(event) == count


class TestObservedEqualsUnobserved:
    @pytest.mark.parametrize("dirty,ref", [
        (dirty, ref)
        for dirty in DIRTY_POLICIES
        for ref in REFERENCE_POLICIES
    ])
    @pytest.mark.parametrize("workload_name", [
        "workload1", "slc", "devsystem", "scripted", "recorded",
    ])
    def test_grid(self, workload_name, dirty, ref, recorded_stream):
        config = grid_config(dirty, ref)
        plain = ExperimentRunner().run(
            config, make_workload(workload_name, recorded_stream),
            seed=1, max_references=2000,
        )
        observed = ExperimentRunner(options=RunOptions(
            observe=True, epoch_refs=EPOCH_REFS,
        )).run(
            config, make_workload(workload_name, recorded_stream),
            seed=1, max_references=2000,
        )
        assert observed == plain
        assert plain.observation is None
        check_observation(observed)

    def test_legacy_tuple_path(self, monkeypatch):
        # Observed engine run against the unobserved scalar oracle.
        config = grid_config("SPUR", "MISS")
        observed = ExperimentRunner(options=RunOptions(
            observe=True, epoch_refs=EPOCH_REFS,
        )).run(
            config, make_workload("slc"),
            seed=1, max_references=2000,
        )
        monkeypatch.setattr(SpurMachine, "run_chunks", scalar_run_chunks)
        plain = ExperimentRunner().run(
            config, make_workload("slc"),
            seed=1, max_references=2000,
        )
        assert observed == plain
        check_observation(observed)

    def test_epoch_cadence_one_poll_interval(self):
        # The tightest legal cadence: one sample per poll interval.
        config = grid_config("SPUR", "MISS")
        plain = ExperimentRunner().run(
            config, make_workload("workload1"),
            seed=1, max_references=2000,
        )
        observed = ExperimentRunner(options=RunOptions(
            observe=True, epoch_refs=1,
        )).run(
            config, make_workload("workload1"),
            seed=1, max_references=2000,
        )
        assert observed == plain
        assert observed.observation.epoch_refs == 256
        # WORKLOAD1 fills the 2000-ref cap: a baseline, seven full
        # 256-ref epochs and the final partial one.
        samples = observed.observation.samples
        assert len(samples) == 9
        assert [sample.references for sample in samples] == [
            *range(0, 2000, 256), 2000,
        ]

