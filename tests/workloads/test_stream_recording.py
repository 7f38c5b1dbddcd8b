"""An in-memory stream recording replays exactly what it recorded.

A :class:`~repro.workloads.synthetic.StreamRecording` lets later runs
of one stream replay the generator segments the first run kept.  The
replay must be the recorded stream reference for reference, for every
generator family and chunk size, must not run the generators again,
and must leave simulation results unchanged.
"""

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.workloads.base import count_refs
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.slc import SlcWorkload
from repro.workloads.synthetic import PhasedProcess, StreamRecording
from repro.workloads.workload1 import Workload1

from tests.conftest import ReplayedWorkload, TwoProcessMix, record_stream
from tests.oracle import pairs

PAGE_BYTES = scaled_config(scale=8).page_bytes

FAMILIES = {
    "workload1": lambda: Workload1(length_scale=0.01),
    "slc": lambda: SlcWorkload(length_scale=0.01),
    "devsystem": lambda: DevSystemWorkload(DEV_SYSTEM_PROFILES[0],
                                           length_scale=0.01),
    "scripted": TwoProcessMix,
}


def live_stream(workload, seed=3):
    """The stream generated with no recording active."""
    return list(workload.instantiate(PAGE_BYTES, seed).accesses())


def forbid_generation(monkeypatch):
    """Make any further generator run fail the test."""
    def generate(self):
        raise AssertionError("a replayed run generated its stream")
        yield  # pragma: no cover

    monkeypatch.setattr(PhasedProcess, "_generate", generate)


@pytest.mark.parametrize("family", FAMILIES)
def test_replay_reproduces_the_stream(family, monkeypatch):
    recording = StreamRecording()
    recorded = record_stream(recording, FAMILIES[family](), PAGE_BYTES,
                             seed=3)
    assert recording.complete
    assert recorded == live_stream(FAMILIES[family]())
    forbid_generation(monkeypatch)
    replayed = record_stream(recording, FAMILIES[family](), PAGE_BYTES,
                             seed=3)
    assert replayed == recorded


@pytest.mark.parametrize("family", FAMILIES)
def test_replay_is_independent_of_chunk_size(family):
    recording = StreamRecording()
    recorded = record_stream(recording, FAMILIES[family](), PAGE_BYTES,
                             seed=3, chunk_refs=4096)
    with recording.active():
        instance = FAMILIES[family]().instantiate(PAGE_BYTES, 3)
        chunks = list(instance.access_chunks(333))
    sizes = [count_refs(chunk) for chunk in chunks]
    assert all(size == 333 for size in sizes[:-1])
    assert 0 < sizes[-1] <= 333
    assert list(pairs(chunks)) == recorded


def test_last_run_replays_then_drops_the_recording(monkeypatch):
    recording = StreamRecording()
    recorded = record_stream(recording, TwoProcessMix(), PAGE_BYTES)
    assert recording.nbytes > 0
    forbid_generation(monkeypatch)
    assert record_stream(recording, TwoProcessMix(), PAGE_BYTES,
                         last=True) == recorded
    assert not recording.complete
    assert recording.nbytes == 0


def test_last_run_of_a_stream_records_nothing():
    recording = StreamRecording()
    recorded = record_stream(recording, TwoProcessMix(), PAGE_BYTES,
                             last=True)
    assert recorded == live_stream(TwoProcessMix(), seed=0)
    assert not recording.complete
    assert recording.nbytes == 0


@pytest.mark.parametrize("dirty", ["SPUR", "FAULT", "FLUSH", "WRITE"])
def test_replayed_run_matches_live_run(dirty, monkeypatch):
    recording = StreamRecording()
    recorded = record_stream(recording, TwoProcessMix(), PAGE_BYTES,
                             seed=5)
    config = scaled_config(memory_ratio=24, scale=8, dirty_policy=dirty)
    live = ExperimentRunner().run(config, TwoProcessMix(), seed=5)
    forbid_generation(monkeypatch)
    replayed = ExperimentRunner().run(
        config, ReplayedWorkload(TwoProcessMix(), recording), seed=5,
    )
    assert replayed == live
    assert replayed.references == len(recorded)
