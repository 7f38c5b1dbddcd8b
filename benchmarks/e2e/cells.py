"""The four benchmark workloads, and one run of one of them.

A workload is a fixed list of simulation cells handed to a single
``ExperimentRunner.run_many`` call, built from the public API only
(``RunOptions``, ``scaled_config`` and the workload classes).  Every
cell runs at full length (``length_scale`` 1.0).

:func:`run_workload` runs one workload once in the calling process and
returns a JSON-ready record: host timings, peak memory, and one
:func:`cell_record` per cell, which pins the cell's simulated output
for the golden and agreement checks.
"""

import hashlib
import json
import os
import pathlib
import resource
import shutil
import sys
import tempfile
import time

import spans

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN_DIR = HERE / "golden"

LENGTH_SCALE = 1.0

#: (paper MB label, memory-to-cache ratio) points of Table 4.1.
MEMORY_POINTS = ((5, 40), (6, 48), (8, 64))
REFERENCE_POLICIES = ("MISS", "REF", "NOREF")
DIRTY_POLICIES = ("MIN", "FAULT", "FLUSH", "SPUR", "PROTMISS", "WRITE")
#: A memory 256 times the cache holds either workload's whole
#: footprint, so nothing is ever paged out.
RESIDENT_RATIO = 256

#: workload name -> (cell grid, whether the grid runs on a pool).  The
#: two Table 4.1 workloads share one grid and so one set of goldens.
WORKLOADS = {
    "table41": ("table41", False),
    "table41-pool": ("table41", True),
    "dirty-write": ("dirty-write", False),
    "resident": ("resident", False),
}
GRIDS = ("table41", "dirty-write", "resident")

#: The RunResult fields a cell record pins, besides the event hash.
RESULT_FIELDS = (
    "references", "cycles", "page_ins", "page_outs", "zero_fills",
    "potentially_modified", "not_modified",
)


def use_checkout_source():
    """Import ``repro`` from this checkout's ``src``, never from an
    installed copy."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def nproc():
    """Processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pool_workers():
    return min(2, nproc())


def grid_cells(grid, seed):
    """``[(label, config, workload recipe, run seed)]`` of one grid."""
    from repro.api import SlcWorkload, Workload1, scaled_config

    programs = (("SLC", SlcWorkload), ("WORKLOAD1", Workload1))
    cells = []
    if grid == "table41":
        # Exactly `repro table 4.1 --reps 1`: SPUR dirty bits, every
        # reference policy, the paper's three memory sizes.
        for name, recipe in programs:
            for memory_mb, ratio in MEMORY_POINTS:
                for policy in REFERENCE_POLICIES:
                    config = scaled_config(
                        memory_ratio=ratio, dirty_policy="SPUR",
                        reference_policy=policy,
                    )
                    cells.append((
                        f"{name}/{memory_mb}MB/{policy}", config,
                        recipe(length_scale=LENGTH_SCALE), seed,
                    ))
    elif grid == "dirty-write":
        for policy in DIRTY_POLICIES:
            config = scaled_config(
                memory_ratio=MEMORY_POINTS[0][1], dirty_policy=policy,
                reference_policy="MISS",
            )
            cells.append((
                f"WORKLOAD1/5MB/{policy}", config,
                Workload1(length_scale=LENGTH_SCALE), seed,
            ))
    elif grid == "resident":
        config = scaled_config(
            memory_ratio=RESIDENT_RATIO, dirty_policy="SPUR",
            reference_policy="MISS",
        )
        for name, recipe in programs:
            for offset in range(3):
                cells.append((
                    f"{name}/r{RESIDENT_RATIO}/seed{seed + offset}",
                    config, recipe(length_scale=LENGTH_SCALE),
                    seed + offset,
                ))
    else:
        raise ValueError(f"unknown grid {grid!r}")
    return cells


def cell_record(result):
    """The simulated output of one cell that goldens pin.

    Host fields (``host_seconds``, ``scalar_bailouts``) are left out:
    they may change under a change that leaves the simulation alone.
    """
    record = {field: getattr(result, field) for field in RESULT_FIELDS}
    events = sorted((event.name, count)
                    for event, count in result.events.items())
    record["events_sha256"] = hashlib.sha256(
        json.dumps(events).encode()
    ).hexdigest()
    return record


def cell_problems(result):
    """Identities every correct run satisfies, whatever its seed.

    They check outputs at seeds that have no golden file: the kind
    counters sum to the references, every miss is translated and
    filled exactly once, and the swap statistics match the paging
    counters.
    """
    from repro.api import Event

    event = result.event
    problems = []
    kinds = (event(Event.INSTRUCTION_FETCH) + event(Event.PROCESSOR_READ)
             + event(Event.PROCESSOR_WRITE))
    if kinds != result.references:
        problems.append(f"kind counters {kinds} != references "
                        f"{result.references}")
    misses = (event(Event.IFETCH_MISS) + event(Event.READ_MISS)
              + event(Event.WRITE_MISS))
    for name in ("TRANSLATION", "BLOCK_FILL"):
        if event(Event[name]) != misses:
            problems.append(f"{name} {event(Event[name])} != misses "
                            f"{misses}")
    for name, value in (("PAGE_IN", result.page_ins),
                        ("PAGE_OUT", result.page_outs),
                        ("ZERO_FILL_PAGE", result.zero_fills)):
        if event(Event[name]) != value:
            problems.append(f"{name} {event(Event[name])} != swap "
                            f"statistic {value}")
    return problems


def load_golden(seed):
    """``{grid: {label: cell record}}`` for *seed*, or ``None``."""
    path = GOLDEN_DIR / f"seed-{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["grids"]


def write_golden(seed, grids):
    """Write *seed*'s golden file: one cell record per line."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    lines = ["{", f' "seed": {seed},',
             f' "length_scale": {LENGTH_SCALE},', ' "grids": {']
    for g, grid in enumerate(GRIDS):
        lines.append(f'  "{grid}": {{')
        cells = sorted(grids[grid].items())
        for c, (label, record) in enumerate(cells):
            comma = "," if c < len(cells) - 1 else ""
            lines.append(f"   {json.dumps(label)}: "
                         f"{json.dumps(record, sort_keys=True)}{comma}")
        lines.append("  }" + ("," if g < len(GRIDS) - 1 else ""))
    lines += [" }", "}"]
    path = GOLDEN_DIR / f"seed-{seed}.json"
    path.write_text("\n".join(lines) + "\n")
    return path


def peak_rss_kb():
    """This process's peak RSS plus its largest reaped child's (a pool
    worker), in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + children


def run_workload(name, seed, traced=False, setup_only=False):
    """Run workload *name* once at *seed* in this process.

    Returns a JSON-ready dict.  ``call_at`` is ``time.monotonic()``
    just before the ``run_many`` call, so a parent that stamped the
    clock before starting this process gets the set-up time by
    subtraction (both read the system-wide monotonic clock).  With
    ``setup_only`` the function returns right there.
    """
    from repro.api import Event, ExperimentRunner, RunOptions

    grid, pooled = WORKLOADS[name]
    plan = grid_cells(grid, seed)
    workers = pool_workers() if pooled else 1
    runner = ExperimentRunner(options=RunOptions(workers=workers))
    specs = [(config, recipe, run_seed, None)
             for _, config, recipe, run_seed in plan]
    labels = [label for label, _, _, _ in plan]
    if setup_only:
        return {"workload": name, "call_at": time.monotonic()}

    tracer = spool = None
    if traced:
        if workers > 1:
            spool = tempfile.mkdtemp(prefix="spool-", dir=HERE)
        tracer = spans.Tracer(spool)
        tracer.install()
    try:
        call_at = time.monotonic()
        started = time.perf_counter()
        results = runner.run_many(specs, labels=labels)
        wall = time.perf_counter() - started
        if spool is not None:
            tracer.merge_spool()
    finally:
        if tracer is not None:
            tracer.restore()
        if spool is not None:
            shutil.rmtree(spool)
    misses = (Event.IFETCH_MISS, Event.READ_MISS, Event.WRITE_MISS)
    record = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "workers": workers,
        "call_at": call_at,
        "wall_s": wall,
        "rss_kb": peak_rss_kb(),
        "references": sum(r.references for r in results),
        "cells": {label: cell_record(r)
                  for label, r in zip(labels, results)},
        "problems": {label: cell_problems(r)
                     for label, r in zip(labels, results)},
        "host_seconds": [r.host_seconds for r in results],
        "scalar_bailouts": sum(r.scalar_bailouts for r in results),
        "misses": sum(r.event(event) for r in results for event in misses),
    }
    if tracer is not None:
        record["spans"] = tracer.rows()
    return record
