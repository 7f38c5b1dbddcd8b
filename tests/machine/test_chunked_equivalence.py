"""The chunk engine is bit-identical to the frozen scalar oracle.

The contract behind ``run_chunks``: for any workload, policy pair, and
chunk size, the engine produces exactly the same RunResult — counters,
cycles, paging totals — and the same machine state as the per-tuple
loops frozen in ``tests/oracle.py``.
"""

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.simulator import SpurMachine
from repro.workloads.base import IFETCH, READ, WRITE, chunk_accesses
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.slc import SlcWorkload
from repro.workloads.synthetic import StreamRecording
from repro.workloads.workload1 import Workload1

from tests.conftest import (
    ReplayedWorkload,
    TwoProcessMix,
    record_stream,
    simple_space,
    tiny_config,
)
from tests.oracle import scalar_run, scalar_run_chunks

DIRTY_POLICIES = ("SPUR", "FAULT", "FLUSH", "WRITE")
REFERENCE_POLICIES = ("MISS", "REF", "NOREF")

PAGE_BYTES = scaled_config(scale=8).page_bytes


@pytest.fixture(scope="module")
def recorded_stream():
    """A finished in-memory recording of the two-process mix."""
    recording = StreamRecording()
    record_stream(recording, TwoProcessMix(), PAGE_BYTES, seed=9)
    return recording


def make_workload(name, recording=None):
    if name == "workload1":
        return Workload1(length_scale=0.01)
    if name == "slc":
        return SlcWorkload(length_scale=0.01)
    if name == "devsystem":
        return DevSystemWorkload(DEV_SYSTEM_PROFILES[0],
                                 length_scale=0.01)
    if name == "scripted":
        return TwoProcessMix()
    if name == "recorded":
        return ReplayedWorkload(TwoProcessMix(), recording)
    raise AssertionError(name)


class TestRunResultCrossProduct:
    @pytest.mark.parametrize("dirty,ref", [
        (dirty, ref)
        for dirty in DIRTY_POLICIES
        for ref in REFERENCE_POLICIES
    ])
    @pytest.mark.parametrize("workload_name", [
        "workload1", "slc", "devsystem", "scripted", "recorded",
    ])
    def test_chunked_equals_legacy(self, workload_name, dirty, ref,
                                   recorded_stream, monkeypatch):
        config = scaled_config(
            memory_ratio=24, scale=8,
            dirty_policy=dirty, reference_policy=ref,
        )
        chunked = ExperimentRunner().run(
            config, make_workload(workload_name, recorded_stream),
            seed=1, max_references=2000,
        )
        monkeypatch.setattr(SpurMachine, "run_chunks", scalar_run_chunks)
        legacy = ExperimentRunner().run(
            config, make_workload(workload_name, recorded_stream),
            seed=1, max_references=2000,
        )
        assert chunked == legacy


def machine_state(machine):
    """Everything observable about a machine after a run."""
    cache = machine.cache
    return {
        "cycles": machine.cycles,
        "references": machine.references,
        "events": machine.counters.snapshot().as_dict(),
        "line_block": list(cache.line_block),
        "prot": list(cache.prot),
        "page_dirty": list(cache.page_dirty),
        "block_dirty": list(cache.block_dirty),
        "state": list(cache.state),
        "holds_pte": list(cache.holds_pte),
        "swap": (machine.swap.stats.page_ins,
                 machine.swap.stats.page_outs,
                 machine.swap.stats.zero_fills),
    }


def mixed_trace(regions, count):
    heap = regions["heap"].start
    code = regions["code"].start
    refs = []
    for i in range(count):
        if i % 5 == 0:
            refs.append((IFETCH, code + (i % 3) * 32))
        elif i % 3 == 0:
            refs.append((WRITE, heap + (i * 13 % 96) * 32))
        else:
            refs.append((READ, heap + (i * 37 % 96) * 32))
    return refs


class TestMachineStatePollSchedule:
    # ``None`` feeds the tuple convenience ``SpurMachine.run``.
    @pytest.mark.parametrize("chunk_refs", [1, 7, 96, 256, None])
    def test_poll_schedule_preserved(self, chunk_refs):
        space_map, regions = simple_space()
        config = tiny_config(daemon_poll_refs=64)
        trace = mixed_trace(regions, 3000)

        legacy = SpurMachine(config, space_map)
        scalar_run(legacy, trace)

        space_map2, regions2 = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=64),
                              space_map2)
        if chunk_refs is None:
            chunked.run(trace)
        else:
            chunked.run_chunks(chunk_accesses(iter(trace), chunk_refs))

        assert machine_state(chunked) == machine_state(legacy)

    def test_poll_every_reference(self):
        # daemon_poll_refs=1 polls before every reference: the
        # segmented path's inline handler carries the whole chunk.

        space_map, regions = simple_space()
        trace = mixed_trace(regions, 500)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=1),
                             space_map)
        scalar_run(legacy, trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=1),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), 64))
        assert machine_state(chunked) == machine_state(legacy)

    def test_state_carries_across_calls(self):
        # `processed` restarts per call; the poll schedule must too,
        # exactly like consecutive legacy run() calls.

        space_map, regions = simple_space()
        trace = mixed_trace(regions, 1000)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=64),
                             space_map)
        scalar_run(legacy, trace[:400])
        scalar_run(legacy, trace[400:])

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=64),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace[:400]), 96))
        chunked.run_chunks(chunk_accesses(iter(trace[400:]), 96))
        assert machine_state(chunked) == machine_state(legacy)


def conflict_trace(regions, count):
    """Read stream striding over 3x the cache's line count: nearly
    every reference misses, exercising the inline miss path."""
    heap = regions["heap"].start
    return [(READ, heap + (i * 37 % 96) * 32) for i in range(count)]


def write_pair_trace(regions, count):
    """Read-then-write pairs: every write is a clean-block write hit,
    exercising the write-hit resolver."""
    heap = regions["heap"].start
    refs = []
    for i in range(count // 2):
        vaddr = heap + (i % 64) * 32
        refs.append((READ, vaddr))
        refs.append((WRITE, vaddr))
    return refs


def stale_pair_trace(regions, count):
    """Stable hits interleaved with a conflicting block pair.

    Once the cache is warm, each pair member's miss evicts the other,
    so every inline install replaces a line a later reference in the
    same segment reads."""
    heap = regions["heap"].start
    a, b = heap, heap + 32 * 32          # same line, different blocks
    stable = [heap + line * 32 for line in range(1, 9)]
    refs = []
    for i in range(count // 4):
        refs.append((READ, a))
        refs.append((READ, stable[i % 8]))
        refs.append((READ, b))
        refs.append((READ, stable[(i + 3) % 8]))
    return refs


class TestNonPowerOfTwoPoll:
    """daemon_poll_refs was once restricted to powers of two; the
    arithmetic segmentation must handle any positive interval."""

    def test_poll_1000_matches_legacy(self):
        space_map, regions = simple_space()
        trace = mixed_trace(regions, 3500)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=1000),
                             space_map)
        scalar_run(legacy, trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=1000),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), 256))
        assert machine_state(chunked) == machine_state(legacy)

    @pytest.mark.parametrize("chunk_refs", [1, 63, 64, 65,
                                            255, 256, 257])
    def test_chunk_size_poll_interval_edges(self, chunk_refs):
        # Chunk sizes of exactly the poll interval and one either
        # side hit every boundary case of the segment arithmetic, at
        # a 64- and a 256-reference interval.

        poll_refs = 64 if chunk_refs < 128 else 256
        space_map, regions = simple_space()
        trace = mixed_trace(regions, 700)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=poll_refs),
                             space_map)
        scalar_run(legacy, trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=poll_refs),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), chunk_refs))
        assert machine_state(chunked) == machine_state(legacy)

    def test_trace_ends_on_poll_boundary(self):
        # The final reference is itself a poll boundary: the schedule
        # must not fire a trailing poll the legacy loop would skip.

        space_map, regions = simple_space()
        trace = mixed_trace(regions, 200)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=100),
                             space_map)
        scalar_run(legacy, trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=100),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), 128))
        assert machine_state(chunked) == machine_state(legacy)


class TestResolverDominatedTraces:
    """Miss- and write-dominated streams, chunked under the full
    invariant sanitizer (including the column-store-agreement check),
    stay bit-identical to the legacy loop."""

    @pytest.mark.parametrize("builder", [conflict_trace,
                                         write_pair_trace,
                                         stale_pair_trace])
    def test_dominated_trace_sanitized(self, builder):
        from repro.sanitize import sanitizer as sanitize_mod

        space_map, regions = simple_space()
        trace = builder(regions, 3000)
        legacy = SpurMachine(tiny_config(), space_map)
        scalar_run(legacy, trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(), space_map2)
        guard = sanitize_mod.attach(chunked, mode="full")
        try:
            chunked.run_chunks(chunk_accesses(iter(trace), 512))
            guard.check_now()
        finally:
            guard.detach()
        assert machine_state(chunked) == machine_state(legacy)

