"""Absolute stream goldens and a guard on the burst builder's draws.

The table goldens pin results; these pin the reference streams
themselves, so a generator change that alters any reference fails
here even where no table cell moves.  Each digest is the SHA-256 of
the stream's ``kind, vaddr`` words, one pair per reference (fetch runs
expanded), as little-endian 64-bit words.

The burst builder draws from ``random.Random`` through
``repro.common.rng.randbelow`` and two written-out copies of it; the
guard test replays the same draw sequence with the standard library,
so an interpreter whose ``randrange`` consumes the generator
differently fails here instead of silently changing every stream.
"""

import hashlib
import itertools
import random
import sys
from array import array

import pytest

from repro.common.rng import DeterministicRng
from repro.workloads.base import READ
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.slc import SlcWorkload
from repro.workloads.synthetic import (
    BLOCK_BYTES,
    WORD_BYTES,
    Phase,
    PhasedProcess,
)
from repro.workloads.workload1 import Workload1
from tests.oracle import pairs
from tests.workloads.test_synthetic import make_image

PAGE = 512
LENGTH = 0.25

WORKLOADS = {
    "SLC": lambda: SlcWorkload(length_scale=LENGTH),
    "WORKLOAD1": lambda: Workload1(length_scale=LENGTH),
    "DEV-mace": lambda: DevSystemWorkload(
        DEV_SYSTEM_PROFILES[0], length_scale=LENGTH
    ),
}

#: ``(workload, seed) -> (sha256, references)``.
GOLDEN = {
    ("SLC", 0): ("6bf71417a283457f6c99dcbe0cf0d496"
                 "415ab9d2dd492082811aa7e8f8adb263", 461979),
    ("SLC", 1): ("981158f7badcff85162bc8a723b4a8f6"
                 "982a0fcb943f35163372cb36a4ab3ba3", 461497),
    ("WORKLOAD1", 0): ("dc22bcfc11f8e1f97be0ffa1caaa34e0"
                       "c378be682c263667684cfe69d3e15be7", 602423),
    ("WORKLOAD1", 1): ("cff5ee716d88d690b4981602962e9141"
                       "dfe8db1d5d6c8e501f917a14e9ee46a5", 602959),
    ("DEV-mace", 0): ("4dc5da1fddcd2cc1e640011f172ccb8f"
                      "b5a15fa472672524fa33fb3df2930692", 417386),
    ("DEV-mace", 1): ("9d8ebd196430c7b48e224bfc1dbf6c3b"
                      "a9f8f56236ea8a18408bd28b54fde001", 417345),
}


def stream_digest(workload, seed):
    digest = hashlib.sha256()
    refs = 0
    for chunk in workload.instantiate(PAGE, seed=seed).access_chunks():
        words = array("q", itertools.chain.from_iterable(pairs([chunk])))
        refs += len(words) >> 1
        if sys.byteorder != "little":
            words.byteswap()
        digest.update(words.tobytes())
    return digest.hexdigest(), refs


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_stream_matches_golden(name, seed):
    assert stream_digest(WORKLOADS[name](), seed) == GOLDEN[name, seed]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_inlined_randrange_matches_stdlib(seed):
    """Each heap operation of a uniform (``data_skew=0``) read-only
    burst draws ``random()``, ``randrange(ws_pages)``,
    ``randrange(blocks)``, ``randrange(8)`` and ``random()``, after a
    preamble of ``random()`` and ``randrange(blocks)``; the addresses
    it emits must be the ones the standard library's draws give."""
    for n in (1, 2, 3, 8, 16, 100, 1650):
        image, _ = make_image(code=2, heap=n)
        phase = Phase(duration=1000, code_hot_pages=1, ws_pages=n,
                      ifetch_per_op=0, write_frac=0.0, stack_frac=0.0,
                      data_skew=0.0)
        process = PhasedProcess(image, [phase], DeterministicRng(seed),
                                burst_ops=64)
        burst = process._make_burst(phase)

        reference = random.Random(seed)
        blocks = image.blocks_per_page
        reference.random()
        reference.randrange(blocks)
        expected = []
        for _ in range(64):
            reference.random()
            page = reference.randrange(n)
            block = reference.randrange(blocks)
            word = reference.randrange(BLOCK_BYTES // WORD_BYTES)
            reference.random()
            expected += [READ, image.heap.start + page * PAGE
                         + block * BLOCK_BYTES + word * WORD_BYTES]
        assert list(burst) == expected, n
        # Both generators are in the same state afterwards.
        assert process.rng.random() == reference.random()
