"""Extension bench: prompt process teardown versus lazy reclamation.

Sprite frees a dead process's pages at exit; a VM without teardown
leaves them for the page daemon, which cannot know the contents are
garbage and dutifully writes the dirty ones to swap.  This bench runs
a chain of short-lived compile-like jobs both ways and measures the
wasted page-outs and the page-ins their pollution causes.
"""

import pytest

from repro.analysis.tables import Table
from repro.common.rng import DeterministicRng
from repro.machine.config import scaled_config
from repro.machine.simulator import SpurMachine
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage

from conftest import bench_scale, once, shape_asserts_enabled

NUM_JOBS = 6


def build_jobs(config):
    space_map = AddressSpaceMap(config.page_bytes)
    jobs = []
    rng = DeterministicRng(11)
    for pid in range(NUM_JOBS):
        space = ProcessAddressSpace(
            pid, (pid + 1) * 0x0100_0000, 0x0100_0000, space_map
        )
        image = ProcessImage(space, code_pages=6, heap_pages=420,
                             file_pages=24)
        jobs.append((pid, PhasedProcess(
            image,
            [Phase(
                duration=max(
                    2048, int(60_000 * min(bench_scale(), 1.0))
                ),
                code_hot_pages=3, ws_start=0, ws_pages=170,
                write_frac=0.45, rmw_frac=0.15,
                alloc_pages=300, alloc_write_frac=0.85,
                scan_pages=20, data_skew=0.8,
            )],
            rng.substream(f"job{pid}"),
        )))
    space_map.seal()
    return space_map, jobs


def run_chain(teardown):
    config = scaled_config(memory_ratio=40)
    space_map, jobs = build_jobs(config)
    machine = SpurMachine(config, space_map)
    for pid, job in jobs:
        machine.run_chunks(job.access_chunks())
        if teardown:
            machine.vm.teardown_process(pid)
    return machine


def run_comparison():
    table = Table(
        "Extension: prompt teardown vs lazy reclamation "
        "(6 serial jobs, 5 MB equivalent)",
        ["Mode", "Page-outs", "Page-ins", "Cycles"],
    )
    results = {}
    for label, teardown in (("lazy", False), ("teardown", True)):
        machine = run_chain(teardown)
        results[label] = machine
        table.add_row(label, machine.swap.stats.page_outs,
                      machine.swap.stats.page_ins, machine.cycles)
    saved = (results["lazy"].swap.stats.page_outs
             - results["teardown"].swap.stats.page_outs)
    table.add_note(
        f"teardown avoided {saved} dead-page swap writes"
    )
    return results, table


def test_teardown_ablation(benchmark, record_result):
    results, table = once(benchmark, run_comparison)
    record_result("extension_teardown", table.render())
    lazy = results["lazy"]
    prompt = results["teardown"]
    # Prompt teardown must eliminate dead-page swap writes...
    assert prompt.swap.stats.page_outs < lazy.swap.stats.page_outs
    # ...and never cost more total time.
    assert prompt.cycles <= lazy.cycles
