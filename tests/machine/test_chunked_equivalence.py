"""The chunk engine is bit-identical to the frozen scalar oracle.

The contract behind ``run_chunks``: for any workload, policy pair, and
chunk size, the engine produces exactly the same RunResult — counters,
cycles, paging totals — and the same machine state as the per-tuple
loops frozen in ``tests/oracle.py``.
"""

from array import array
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import CacheGeometry
from repro.common.rng import DeterministicRng
from repro.counters.events import Event
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.simulator import SpurMachine
from repro.options import RunOptions
from repro.sanitize.sanitizer import Sanitizer
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import (
    IFETCH,
    READ,
    WRITE,
    Workload,
    WorkloadInstance,
    chunk_accesses,
    counted,
    run_kind,
)
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.mix import RoundRobinScheduler, serial
from repro.workloads.slc import SlcWorkload
from repro.workloads.synthetic import (
    Phase,
    PhasedProcess,
    ProcessImage,
    StreamRecording,
)
from repro.workloads.workload1 import Workload1

from tests.conftest import (
    ReplayedWorkload,
    TwoProcessMix,
    record_stream,
    simple_space,
    tiny_config,
)
from tests.oracle import pairs, scalar_run, scalar_run_chunks

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


# -- cuts inside fetch runs ---------------------------------------------


def run_interiors(segments):
    """The reference offsets of counted *segments* that fall strictly
    inside a fetch run: a cut there splits the run."""
    inside = set()
    at = 0
    for segment, _ in segments:
        it = iter(segment)
        for kind, _ in zip(it, it):
            refs = (kind >> 2) + 1 if kind > WRITE else 1
            inside.update(range(at + 1, at + refs))
            at += refs
    return inside


class PhasedPair(Workload):
    """Two phased processes composed by *compose* (a
    ``RoundRobinScheduler`` or ``serial``), chunked at *chunk_refs*
    whatever size the runner asks for."""

    name = "phased-pair"

    def __init__(self, compose, chunk_refs=4096):
        self.compose = compose
        self.chunk_refs = chunk_refs

    def build(self, page_bytes, seed=1):
        """``(space_map, composition, [process, process])``."""
        space_map = AddressSpaceMap(page_bytes)
        processes = []
        for pid in range(2):
            space = ProcessAddressSpace(
                pid, (pid + 1) << 24, 1 << 24, space_map
            )
            image = ProcessImage(space, code_pages=4, heap_pages=32,
                                 file_pages=8)
            processes.append(PhasedProcess(
                image,
                [Phase(duration=3000 + 700 * pid, ws_pages=12,
                       write_frac=0.3, alloc_pages=4, scan_pages=4)],
                DeterministicRng(seed).substream(f"p{pid}"),
            ))
        space_map.seal()
        return space_map, self.compose(processes), processes

    def instantiate(self, page_bytes, seed=0):
        space_map, composition, _ = self.build(page_bytes, seed)
        return WorkloadInstance(
            self.name, space_map,
            lambda _: composition.access_chunks(self.chunk_refs), 6700,
        )


def quantum_5(processes):
    return RoundRobinScheduler(processes, quantum=5)


def boundary_case(case):
    """``(config, workload, max_references, options, segments, cuts)``
    of one cut case: *cuts* are the reference offsets at which the
    case cuts the counted *segments*."""
    config = scaled_config(memory_ratio=24, scale=8)
    page_bytes = config.page_bytes
    if case in ("poll7", "poll1000", "cap", "observe"):
        workload = Workload1(length_scale=0.01)
        segments = list(counted(
            workload.instantiate(page_bytes, seed=1).access_chunks()
        ))
        if case == "cap":
            cap = min(at for at in run_interiors(segments) if at > 2000)
            return config, workload, cap, None, segments, [cap]
        if case == "observe":
            # With polling off, epochs need no alignment.
            return (replace(config, daemon_poll_refs=0), workload,
                    20_000, RunOptions(observe=True, epoch_refs=333),
                    segments, range(333, 20_000, 333))
        interval = 7 if case == "poll7" else 1000
        # A poll falls before every interval-th reference.  Under REF
        # it flushes the pages whose reference bits it clears, so the
        # fetch after it may miss.
        config = replace(config, daemon_poll_refs=interval,
                         reference_policy="REF")
        return (config, workload, 20_000, None, segments,
                range(interval - 1, 20_000, interval))
    if case == "quantum5":
        # The quanta cut each process's own stream.
        workload = PhasedPair(quantum_5)
        _, _, processes = workload.build(page_bytes)
        return (config, workload, None, None,
                list(processes[0].segments()), range(5, 3000, 5))
    if case == "job-boundary":
        # One reference past the first job: the first chunk ends after
        # the first fetch of the second job's first run.
        _, _, processes = PhasedPair(serial).build(page_bytes)
        first_job = sum(refs for _, refs in processes[0].segments())
        _, chain, _ = PhasedPair(serial).build(page_bytes)
        return (config, PhasedPair(serial, first_job + 1), None, None,
                list(chain.segments()), [first_job + 1])
    if case == "sanitize-full":
        workload = PhasedPair(quantum_5, 777)
        _, scheduler, _ = workload.build(page_bytes)
        return (config, workload, None, RunOptions(sanitize="full"),
                list(scheduler.segments()), range(777, 7000, 777))
    raise AssertionError(case)


class TestRunBoundaries:
    """Every place that cuts a stream at a reference offset may land
    inside a fetch run; the run must split there exactly, whichever
    cut it is, and the engine stay bit-identical to the oracle."""

    @pytest.mark.parametrize("case", [
        "poll7", "poll1000", "cap", "observe", "quantum5",
        "job-boundary", "sanitize-full",
    ])
    def test_cut_inside_a_run_matches_oracle(self, case, monkeypatch):
        config, workload, cap, options, segments, cuts = (
            boundary_case(case)
        )
        assert run_interiors(segments) & set(cuts)

        chunked = ExperimentRunner().run(
            config, workload, seed=1, max_references=cap,
            options=options,
        )
        monkeypatch.setattr(SpurMachine, "run_chunks", scalar_run_chunks)
        legacy = ExperimentRunner().run(
            config, workload, seed=1, max_references=cap,
            options=options,
        )
        assert chunked == legacy
        if cap is not None:
            assert chunked.references == cap
        if case == "observe":
            def epochs(result):
                return [(sample.references, sample.cycles, sample.events)
                        for sample in result.observation.samples]
            assert epochs(chunked) == epochs(legacy)
            # Sample 0 is the attach-time baseline, the last one the
            # stream end; every epoch between ends on its boundary.
            cuts = [refs for refs, _, _ in epochs(chunked)[1:-1]]
            assert cuts == list(range(333, 20_000, 333))

    def test_full_sanitizer_counts_every_fetch_of_a_run(self, monkeypatch):
        config, workload, _, _, _, _ = boundary_case("sanitize-full")
        instance = workload.instantiate(config.page_bytes, seed=1)
        machine = SpurMachine(config, instance.space_map)
        # Runs here are at most three fetches, so an interval of 2 has
        # runs that pass two sweeps.
        guard = Sanitizer(mode="full", sweep_interval=2).attach(machine)
        swept = []
        sweep = guard.check_now

        def check_now(ref_index=None):
            swept.append(ref_index)
            sweep(ref_index=ref_index)

        monkeypatch.setattr(guard, "check_now", check_now)
        chunks = list(instance.access_chunks())
        machine.run_chunks(chunks)
        refs = machine.references
        assert refs > sum(len(chunk) >> 1 for chunk in chunks)
        assert guard.references_seen == refs
        # One sweep at each multiple of 2, in order, and one at the
        # stream's end.
        assert swept == list(range(2, refs + 1, 2)) + [refs]

    def test_poll_inside_a_run_checks_the_next_fetch(self):
        # A poll that falls inside a run may flush its block; the
        # fetches after it must miss again, as one by one they would.
        space_map, regions = simple_space()
        code = regions["code"].start
        run = [(run_kind(8), code), (READ, regions["heap"].start)] * 40
        config = tiny_config(daemon_poll_refs=5, reference_policy="REF")
        legacy = SpurMachine(config, space_map)
        scalar_run(legacy, list(pairs(chunk_accesses(iter(run)))))

        space_map2, _ = simple_space()
        chunked = SpurMachine(config, space_map2)
        chunked.run_chunks(chunk_accesses(iter(run), 3))
        assert chunked.references == 360
        # Under REF a poll that clears the code page's reference bit
        # flushes the page, so fetches after it miss.
        assert chunked.counters.read(Event.IFETCH_MISS) > 1
        assert machine_state(chunked) == machine_state(legacy)

    def test_small_block_rejects_runs(self):
        space_map, regions = simple_space()
        config = tiny_config(
            cache=CacheGeometry(size_bytes=1024, block_bytes=16)
        )
        machine = SpurMachine(config, space_map)
        code = regions["code"].start
        # Single references still run on a 16-byte block.
        assert machine.run([(IFETCH, code), (READ, code + 4)]) == 2
        with pytest.raises(ConfigurationError):
            machine.run_chunks([array("q", [run_kind(2), code])])
