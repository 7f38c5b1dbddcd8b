"""The flat-buffer chunk protocol carries each stream exactly.

Every generator family is checked against an independent reference
sequence: the raw generator segments or a per-tuple round-robin loop.
The chunk stream must flatten to that sequence, and chunk sizing must
follow the protocol — exactly ``chunk_refs`` references per chunk,
except a short final chunk.
"""

import itertools

from array import array

import pytest

from repro.common.rng import DeterministicRng
from repro.machine.config import scaled_config
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import (
    DEFAULT_CHUNK_REFS,
    IFETCH,
    READ,
    WRITE,
    WorkloadInstance,
    chunk_accesses,
    count_refs,
    run_kind,
    split_refs,
    take_chunks,
)
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.mix import RoundRobinScheduler, serial
from repro.workloads.slc import SlcWorkload
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage
from repro.workloads.workload1 import Workload1

from tests.conftest import TwoProcessMix
from tests.oracle import pairs

PAGE = 512


def flatten(chunks):
    """The ``(kind, vaddr)`` sequence a chunk stream encodes, one
    tuple per reference."""
    return list(pairs(chunks))


def chunk_ref_counts(chunks):
    return [count_refs(chunk) for chunk in chunks]


def segment_refs(process):
    """A phased process's references straight from its generator
    segments, before any re-chunking."""
    return flatten(segment for segment, _ in process.segments())


def round_robin_refs(entries):
    """The scheduler's interleave as a per-tuple loop.

    ``entries`` holds ``(refs, slice_size)`` pairs; each round takes
    up to ``slice_size`` references from every live stream and drops a
    stream once a slice comes up short.
    """
    streams = [(iter(refs), size) for refs, size in entries]
    out = []
    while streams:
        finished = []
        for entry in streams:
            stream, size = entry
            batch = list(itertools.islice(stream, size))
            out.extend(batch)
            if len(batch) < size:
                finished.append(entry)
        for entry in finished:
            streams.remove(entry)
    return out


class TestChunkAccessesAdapter:
    def test_preserves_sequence_and_sizes(self):
        refs = [(i % 3, i * 32) for i in range(1000)]
        chunks = list(chunk_accesses(iter(refs), 256))
        assert flatten(chunks) == refs
        assert chunk_ref_counts(chunks) == [256, 256, 256, 232]
        assert all(isinstance(chunk, array) for chunk in chunks)
        assert all(chunk.typecode == "q" for chunk in chunks)

    def test_exact_multiple_has_no_empty_tail(self):
        refs = [(READ, i) for i in range(512)]
        chunks = list(chunk_accesses(iter(refs), 256))
        assert chunk_ref_counts(chunks) == [256, 256]

    def test_empty_stream_yields_nothing(self):
        assert list(chunk_accesses(iter([]), 64)) == []

    def test_rejects_nonpositive_chunk_refs(self):
        with pytest.raises(ValueError):
            list(chunk_accesses(iter([]), 0))

    def test_consumes_lazily(self):
        # Pulling one chunk must not drain the whole source; the
        # remainder stays available to the underlying iterator.
        source = iter([(READ, i) for i in range(100)])
        stream = chunk_accesses(source, 10)
        next(stream)
        assert len(list(source)) == 90


class TestWorkloadInstanceProtocol:
    def make_instance(self, chunk_factory=None):
        refs = [(i % 3, i * 64) for i in range(300)]
        if chunk_factory is None:
            def chunk_factory(chunk_refs):
                return chunk_accesses(iter(refs), chunk_refs)
        return refs, WorkloadInstance("T", None, chunk_factory, len(refs))

    def test_fallback_adapter_matches_accesses(self):
        refs, instance = self.make_instance()
        assert list(instance.accesses()) == refs
        _, instance = self.make_instance()
        assert flatten(instance.access_chunks(128)) == refs

    def test_one_shot_across_protocols(self):
        _, instance = self.make_instance()
        instance.accesses()
        with pytest.raises(RuntimeError):
            instance.access_chunks()

    def test_one_shot_other_direction(self):
        _, instance = self.make_instance()
        instance.access_chunks()
        with pytest.raises(RuntimeError):
            instance.accesses()

    def test_accesses_expand_runs_to_word_addresses(self):
        chunk = array("q", [run_kind(3), 0x1004, READ, 0x2000,
                            IFETCH, 0x3000, run_kind(8), 0x4000])
        instance = WorkloadInstance("T", None, lambda _: iter([chunk]), 13)
        assert list(instance.accesses()) == (
            [(IFETCH, 0x1004), (IFETCH, 0x1008), (IFETCH, 0x100C),
             (READ, 0x2000), (IFETCH, 0x3000)]
            + [(IFETCH, 0x4000 + 4 * word) for word in range(8)]
        )

    def test_native_chunk_factory_preferred(self):
        marker = [array("q", [READ, 0x40])]
        _, instance = self.make_instance(
            chunk_factory=lambda chunk_refs: iter(marker)
        )
        assert list(instance.access_chunks(32)) == marker


def phased_process(seed=0, duration=4000):
    space_map = AddressSpaceMap(PAGE)
    space = ProcessAddressSpace(0, PAGE, 1 << 24, space_map)
    image = ProcessImage(space, code_pages=4, heap_pages=32,
                         file_pages=8, data_pages=0)
    space_map.seal()
    phases = [
        Phase(duration=duration, ws_pages=12, write_frac=0.3,
              alloc_pages=4, scan_pages=4),
        Phase(duration=duration // 2, ws_start=8, ws_pages=8,
              write_frac=0.1),
    ]
    return PhasedProcess(image, phases, DeterministicRng(seed))


class TestNativeChunkStreams:
    def test_phased_process_chunks_match_accesses(self):
        legacy = segment_refs(phased_process(seed=3))
        chunks = list(phased_process(seed=3).access_chunks(512))
        assert flatten(chunks) == legacy
        counts = chunk_ref_counts(chunks)
        assert all(count == 512 for count in counts[:-1])
        assert 0 < counts[-1] <= 512

    @pytest.mark.parametrize("chunk_refs", [1, 7, 512, 100_000])
    def test_phased_process_any_chunk_size(self, chunk_refs):
        legacy = segment_refs(phased_process(seed=5))
        chunks = list(
            phased_process(seed=5).access_chunks(chunk_refs)
        )
        assert flatten(chunks) == legacy

    # ``None``: one reference past the first job, so the first chunk
    # ends inside the second job's first fetch run.
    @pytest.mark.parametrize("chunk_refs", [768, None])
    def test_serial_chain_rechunks_across_jobs(self, chunk_refs):
        first_job = segment_refs(phased_process(seed=1))
        legacy = first_job + segment_refs(phased_process(seed=2))
        if chunk_refs is None:
            chunk_refs = len(first_job) + 1
        chain = serial(
            [phased_process(seed=1), phased_process(seed=2)]
        )
        chunks = list(chain.access_chunks(chunk_refs))
        assert flatten(chunks) == legacy
        counts = chunk_ref_counts(chunks)
        # Exact chunking even across the job boundary.
        assert all(count == chunk_refs for count in counts[:-1])

    @pytest.mark.parametrize("quantum", [640, 5])
    def test_scheduler_chunks_match_accesses(self, quantum):
        def build():
            return RoundRobinScheduler(
                [(phased_process(seed=1), 1.0),
                 (phased_process(seed=2), 0.5)],
                quantum=quantum,
            )

        legacy = round_robin_refs([
            (segment_refs(phased_process(seed=1)), quantum),
            (segment_refs(phased_process(seed=2)), max(1, quantum // 2)),
        ])
        chunks = list(build().access_chunks(500))
        assert flatten(chunks) == legacy
        counts = chunk_ref_counts(chunks)
        assert all(count == 500 for count in counts[:-1])

    def test_scheduler_exact_slice_boundary_process(self):
        # A process whose length is an exact multiple of its slice
        # size retires cleanly (full last chunk, then empty round).
        refs_a = [(READ, i * 32) for i in range(200)]
        refs_b = [(WRITE, i * 32) for i in range(70)]

        def build():
            return RoundRobinScheduler(
                [iter(list(refs_a)), iter(list(refs_b))], quantum=50
            )

        legacy = round_robin_refs([(refs_a, 50), (refs_b, 50)])
        chunks = list(build().access_chunks(64))
        assert flatten(chunks) == legacy

    @pytest.mark.parametrize("factory", [
        lambda: Workload1(length_scale=0.01),
        lambda: SlcWorkload(length_scale=0.01),
        lambda: DevSystemWorkload(DEV_SYSTEM_PROFILES[0],
                                  length_scale=0.01),
    ], ids=["workload1", "slc", "devsystem"])
    def test_top_level_workloads_match(self, factory):
        page_bytes = scaled_config(scale=8).page_bytes
        cap = 20_000
        legacy = list(itertools.islice(
            factory().instantiate(page_bytes, seed=2).accesses(), cap
        ))
        chunked = []
        for chunk in factory().instantiate(
            page_bytes, seed=2
        ).access_chunks(1024):
            chunked.extend(flatten([chunk]))
            if len(chunked) >= cap:
                break
        assert chunked[:cap] == legacy

    def test_scripted_workload_matches(self):
        page_bytes = scaled_config(scale=8).page_bytes
        legacy = list(TwoProcessMix().instantiate(
            page_bytes, seed=4
        ).accesses())
        chunks = list(TwoProcessMix().instantiate(
            page_bytes, seed=4
        ).access_chunks(333))
        assert flatten(chunks) == legacy


class TestFetchRuns:
    """The element format's helpers count and cut runs exactly."""

    CHUNK = array("q", [READ, 0x2000, run_kind(3), 0x1004,
                        WRITE, 0x2020, run_kind(8), 0x4000])

    def test_counts_every_fetch(self):
        assert count_refs(self.CHUNK) == 13
        assert count_refs(array("q")) == 0

    @pytest.mark.parametrize("refs", range(0, 15))
    def test_split_at_every_offset(self, refs):
        head, tail = split_refs(self.CHUNK, refs)
        assert count_refs(head) == min(refs, 13)
        assert flatten([head]) + flatten([tail]) == flatten([self.CHUNK])

    def test_split_inside_a_run_makes_two_runs(self):
        head, tail = split_refs(self.CHUNK, 6)
        assert list(head) == [READ, 0x2000, run_kind(3), 0x1004,
                              WRITE, 0x2020, IFETCH, 0x4000]
        assert list(tail) == [run_kind(7), 0x4004]

    def test_take_chunks_cuts_a_run(self):
        chunks = list(take_chunks(iter([self.CHUNK, self.CHUNK]), 15))
        assert chunk_ref_counts(chunks) == [13, 2]
        assert list(chunks[1]) == [READ, 0x2000, IFETCH, 0x1004]

    def test_bursts_fetch_in_runs(self):
        # Each op fetches three words; a run ends at its block's end.
        process = phased_process(seed=3)
        burst = process._make_burst(process.phases[0])
        kinds = set(burst[0::2])
        assert {run_kind(2), run_kind(3)} <= kinds
        assert count_refs(burst) > len(burst) >> 1


class TestLengthHint:
    @pytest.mark.parametrize("factory", [
        lambda: Workload1(length_scale=0.01),
        lambda: SlcWorkload(length_scale=0.01),
    ], ids=["workload1", "slc"])
    def test_hint_within_25_percent(self, factory):
        page_bytes = scaled_config(scale=8).page_bytes
        instance = factory().instantiate(page_bytes, seed=1)
        hint = instance.length_hint
        actual = sum(
            count_refs(chunk)
            for chunk in instance.access_chunks(DEFAULT_CHUNK_REFS)
        )
        assert hint > 0
        assert abs(actual - hint) <= 0.25 * hint
