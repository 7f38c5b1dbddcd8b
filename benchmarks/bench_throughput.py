"""Simulator throughput: the one bench about the simulator itself.

Tracks simulated references per second of host time for the hot-loop
paths (hit-dominated, miss-heavy, and policy-slow-path traffic) with
real pytest-benchmark statistics, so hot-loop regressions show up as
numbers rather than as mysteriously slow experiment suites.

Each trace shape runs in two modes: ``legacy`` feeds the per-tuple
stream to the frozen scalar oracle (:func:`tests.oracle.scalar_run`,
the simulator's pre-batching loop); ``chunked`` feeds pre-built flat
``array('q')`` buffers to :meth:`SpurMachine.run_chunks`.  Both
payloads are materialised *outside* the timed region, so the numbers
measure the simulator, not trace generation.
"""

import pytest

from repro.common.params import CacheGeometry, FaultTiming
from repro.machine.config import MachineConfig
from repro.machine.simulator import SpurMachine
from repro.vm.segments import (
    AddressSpaceMap,
    ProcessAddressSpace,
    RegionKind,
)
from repro.workloads.base import READ, WRITE, chunk_accesses
from tests.oracle import scalar_run

TINY_PAGE = 128
CHUNK_REFS = 4096


def tiny_machine(heap_pages=32):
    space_map = AddressSpaceMap(TINY_PAGE)
    space = ProcessAddressSpace(0, TINY_PAGE, 1 << 24, space_map)
    heap = space.add_region("heap", RegionKind.HEAP,
                            heap_pages * TINY_PAGE)
    space_map.seal()
    config = MachineConfig(
        name="throughput",
        cache=CacheGeometry(size_bytes=1024, block_bytes=32),
        page_bytes=TINY_PAGE,
        memory_bytes=16 * 1024,
        wired_frames=2,
        fault_timing=FaultTiming(page_io=5_000),
        daemon_poll_refs=0,
    )
    return SpurMachine(config, space_map), heap


def hit_trace(heap, count=20_000):
    # Two blocks, all hits after warmup.
    return [(READ, heap + (i & 1) * 32) for i in range(count)]


def conflict_trace(heap, count=20_000):
    # Stride through 3 pages' worth of blocks: heavy miss traffic in
    # the 32-line tiny cache.
    return [
        (READ, heap + (i * 37 % 96) * 32) for i in range(count)
    ]


def write_trace(heap, count=20_000):
    # Read-then-write pairs: the dirty-policy slow path.
    trace = []
    for i in range(count // 2):
        addr = heap + (i * 13 % 64) * 32
        trace.append((READ, addr))
        trace.append((WRITE, addr))
    return trace


TRACES = [
    ("hits", hit_trace),
    ("misses", conflict_trace),
    ("writes", write_trace),
]


@pytest.mark.parametrize("shape,builder", TRACES)
@pytest.mark.parametrize("mode", ["legacy", "chunked"])
def test_throughput(benchmark, shape, builder, mode):
    machine, heap = tiny_machine()
    trace = builder(heap.start)
    scalar_run(machine, trace)  # warm the machine once

    if mode == "chunked":
        # Materialise the flat buffers up front: the timed region is
        # pure simulation, the same refs the legacy mode replays.
        chunks = list(chunk_accesses(iter(trace), CHUNK_REFS))
        benchmark(machine.run_chunks, chunks)
    else:
        benchmark(scalar_run, machine, trace)
    # Sanity floor: even the slowest path should exceed 50k refs/s
    # of host time on any modern machine.
    refs_per_second = len(trace) / benchmark.stats.stats.mean
    assert refs_per_second > 50_000, (shape, mode)
