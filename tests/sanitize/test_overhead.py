"""Overhead acceptance: the sanitizer must stay affordable.

The budgets: full mode under 3x the bare hot loop, sampled mode under
15% overhead.  Every round times one run of each mode back to back on
an identical pre-generated reference stream, and a mode's overhead is
the median over the rounds of its time divided by the same round's
bare time.  Runs that are adjacent in time share the load other
processes put on a shared host, so the per-round ratio cancels that
load where a best-of-N time per mode does not; the median then drops
the rounds a burst of load hit mid-round.  The order of the modes
rotates from round to round, and garbage from the previous machine is
collected before the clock starts, so no mode pays for another's
cycles.  The measured ratios are ~1.35x (full) and ~1.0x (sampled).
"""

import gc
import random
import statistics
import time

from repro.sanitize import Sanitizer
from repro.workloads.base import IFETCH, READ, WRITE

from tests.conftest import make_machine, simple_space

NUM_REFS = 40_000
ROUNDS = 9
MODES = (None, "full", "sampled")


def reference_stream(regions, num_refs=NUM_REFS, seed=7):
    rng = random.Random(seed)
    heap = regions["heap"].start
    span = 32 * 128                     # heap pages the tiny VM holds
    refs = []
    for _ in range(num_refs):
        draw = rng.random()
        kind = IFETCH if draw < 0.5 else (READ if draw < 0.8 else WRITE)
        refs.append((kind, heap + rng.randrange(0, span, 4)))
    return refs


def timed_run(space_map, refs, mode):
    """Seconds one fresh machine takes to run *refs* under *mode*."""
    machine = make_machine(space_map)
    sanitizer = None
    if mode is not None:
        sanitizer = Sanitizer(mode=mode)
        sanitizer.attach(machine)
    gc.collect()
    started = time.perf_counter()
    machine.run(refs)
    if sanitizer is not None:
        sanitizer.check_now()
    return time.perf_counter() - started


def overhead_ratios(space_map, refs):
    """Median per-round time ratio of each sanitizer mode to bare."""
    ratios = {mode: [] for mode in MODES[1:]}
    for round_number in range(ROUNDS):
        shift = round_number % len(MODES)
        order = MODES[shift:] + MODES[:shift]
        times = {mode: timed_run(space_map, refs, mode) for mode in order}
        for mode in ratios:
            ratios[mode].append(times[mode] / times[None])
    return {mode: statistics.median(values)
            for mode, values in ratios.items()}


def test_overhead_within_budget():
    space_map, regions = simple_space()
    refs = reference_stream(regions)
    ratios = overhead_ratios(space_map, refs)
    assert ratios["full"] < 3.0, (
        f"full mode {ratios['full']:.2f}x exceeds the 3x budget"
    )
    assert ratios["sampled"] < 1.15, (
        f"sampled mode {ratios['sampled']:.2f}x exceeds the "
        f"15% overhead budget"
    )
