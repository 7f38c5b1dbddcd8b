"""Shared fixtures: tiny machines and address spaces for fast tests.

The test machine is a radically shrunken SPUR — 1 KB cache (32 lines),
128-byte pages (4 blocks each), 16 KB of memory (128 frames) — so unit
and integration tests run in microseconds while exercising the same
code paths as the full configurations.
"""

import pytest

from repro.common.params import CacheGeometry, FaultTiming
from repro.machine.config import MachineConfig
from repro.machine.simulator import SpurMachine
from repro.sanitize.sanitizer import Sanitizer
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace, RegionKind
from repro.workloads.base import (
    DEFAULT_CHUNK_REFS, Workload, WorkloadInstance)
from repro.workloads.mix import RoundRobinScheduler
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage
from tests.oracle import pairs

#: Geometry constants for the tiny test machine.
TINY_PAGE = 128
TINY_CACHE = 1024
TINY_MEMORY = 16 * 1024
BLOCK = 32


def tiny_config(**overrides):
    """A MachineConfig small enough for exhaustive unit tests."""
    values = dict(
        name="tiny",
        cache=CacheGeometry(size_bytes=TINY_CACHE, block_bytes=BLOCK),
        page_bytes=TINY_PAGE,
        memory_bytes=TINY_MEMORY,
        wired_frames=2,
        fault_timing=FaultTiming(page_io=5_000),
        dirty_policy="SPUR",
        reference_policy="MISS",
        daemon_poll_refs=0,
    )
    values.update(overrides)
    return MachineConfig(**values)


def simple_space(page_bytes=TINY_PAGE, code_pages=4, heap_pages=32,
                 stack_pages=2, file_pages=4, data_pages=4):
    """One-process address space map with every region kind.

    Returns ``(space_map, regions)`` where regions is a dict by kind
    name for direct address arithmetic in tests.
    """
    space_map = AddressSpaceMap(page_bytes)
    space = ProcessAddressSpace(0, page_bytes, 1 << 24, space_map)
    regions = {
        "code": space.add_region("code", RegionKind.CODE,
                                 code_pages * page_bytes),
        "data": space.add_region("data", RegionKind.DATA,
                                 data_pages * page_bytes),
        "heap": space.add_region("heap", RegionKind.HEAP,
                                 heap_pages * page_bytes),
        "stack": space.add_region("stack", RegionKind.STACK,
                                  stack_pages * page_bytes),
        "file": space.add_region("file", RegionKind.FILE,
                                 file_pages * page_bytes),
    }
    space_map.seal()
    return space_map, regions


class TwoProcessMix(Workload):
    """A hand-scripted two-process mix built from the generator parts.

    Unlike the catalog families it weights its processes unequally,
    switches every 256 references, and mixes read-modify-write
    traffic, zero-fill allocation and a file scan in one phase, so the
    engine sees a stream shape WORKLOAD1, SLC and the dev hosts do not
    produce.
    """

    name = "two-process-mix"

    #: Global-space slice reserved per process image.
    SLICE = 0x0100_0000

    def instantiate(self, page_bytes, seed=0):
        """Build both process images and their scheduler."""
        rng = self._rng(seed)
        space_map = AddressSpaceMap(page_bytes)
        script = (
            (dict(code_pages=4, heap_pages=32, file_pages=8),
             Phase(duration=3000, ws_pages=12, write_frac=0.4,
                   rmw_frac=0.3, alloc_pages=4, scan_pages=4), 1.0),
            (dict(code_pages=2, heap_pages=16),
             Phase(duration=1500, ws_pages=8, write_frac=0.2), 0.5),
        )
        scheduled = []
        for pid, (regions, phase, weight) in enumerate(script):
            space = ProcessAddressSpace(
                pid, (pid + 1) * self.SLICE, self.SLICE, space_map
            )
            process = PhasedProcess(
                ProcessImage(space, **regions), [phase],
                rng.substream(f"p{pid}"),
            )
            scheduled.append((process, weight))
        space_map.seal()
        scheduler = RoundRobinScheduler(scheduled, quantum=256)
        return WorkloadInstance(
            self.name, space_map, scheduler.access_chunks,
            sum(phase.duration for _, phase, _ in script),
        )


class ReplayedWorkload(Workload):
    """Replays *workload*'s stream from a finished *recording*.

    Every process of *workload* must be built by ``instantiate``: a
    process claims its tape when it is constructed.
    """

    def __init__(self, workload, recording):
        assert recording.complete
        self.workload = workload
        self.recording = recording
        self.name = workload.name

    def instantiate(self, page_bytes, seed=0):
        """Instantiate the wrapped workload with its tapes replayed."""
        with self.recording.active():
            return self.workload.instantiate(page_bytes, seed)


def record_stream(recording, workload, page_bytes, seed=0, last=False,
                  chunk_refs=DEFAULT_CHUNK_REFS):
    """Drain one *workload* stream under *recording*; returns its
    ``(kind, vaddr)`` sequence."""
    refs = []
    with recording.active(last=last):
        instance = workload.instantiate(page_bytes, seed)
        refs.extend(pairs(instance.access_chunks(chunk_refs)))
    return refs


def make_machine(space_map=None, **overrides):
    """A tiny SpurMachine over ``space_map`` (a default one if None)."""
    if space_map is None:
        space_map, _ = simple_space(
            overrides.get("page_bytes", TINY_PAGE)
        )
    return SpurMachine(tiny_config(**overrides), space_map)


@pytest.fixture
def space_and_regions():
    return simple_space()


@pytest.fixture
def machine(space_and_regions):
    space_map, regions = space_and_regions
    m = make_machine(space_map)
    m.test_regions = regions
    return m


@pytest.fixture
def sanitizer():
    """Factory fixture: attach sanitizers, sweep them at teardown.

    Call it with any simulator object (machine, SMP system, cache,
    bus, or VM system) and an optional mode to get an attached
    :class:`~repro.sanitize.sanitizer.Sanitizer`.  Everything attached
    through the factory is swept once more at test teardown, so a test
    that ends with latent corruption fails even if it never ran
    another reference.
    """
    created = []

    def _attach(obj, mode="full", **kwargs):
        instance = Sanitizer(mode=mode, **kwargs)
        instance.attach(obj)
        created.append(instance)
        return instance

    yield _attach
    for instance in created:
        instance.check_now()
        instance.detach()


@pytest.fixture
def sanitized_machine(space_and_regions, sanitizer):
    """A tiny machine running under the full-mode invariant sanitizer.

    Every reference the test pushes through ``run()`` is checked, and
    the teardown sweep (from the ``sanitizer`` factory fixture) fails
    the test if it left latent corruption behind.
    """
    space_map, regions = space_and_regions
    m = make_machine(space_map)
    m.test_regions = regions
    m.sanitizer = sanitizer(m, mode="full")
    return m
