"""Shared fixtures: tiny machines and address spaces for fast tests.

The test machine is a radically shrunken SPUR — 1 KB cache (32 lines),
128-byte pages (4 blocks each), 16 KB of memory (128 frames) — so unit
and integration tests run in microseconds while exercising the same
code paths as the full configurations.
"""

import pytest

from repro.common.params import CacheGeometry, FaultTiming
from repro.sanitize.pytest_plugin import sanitizer  # noqa: F401
from repro.machine.config import MachineConfig
from repro.machine.simulator import SpurMachine
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace, RegionKind

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
