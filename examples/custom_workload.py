#!/usr/bin/env python3
"""Build your own workload and machine: the extension points.

Shows the full user-facing API surface for studying a new scenario:

1. define a process with :class:`ProcessImage` + :class:`Phase`
   scripts (here: a database-like server with an index working set,
   a log writer, and table scans);
2. pick a machine — geometry, memory, dirty/reference policies,
   replacement daemon;
3. run and compare configurations.

Run:
    python examples/custom_workload.py
"""

from repro.counters.events import Event
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.mix import RoundRobinScheduler
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage


class DatabaseWorkload(Workload):
    """A transaction-processing caricature.

    One server process alternates between index lookups (hot, skewed
    reads over a small region) and checkpoint sweeps (RMW over the
    buffer pool), while a log writer appends sequentially (pure
    write-first pages — dirty-fault territory) and a reporting query
    scans a large mapped file.
    """

    name = "TPC-ish"

    def __init__(self, length_scale=1.0):
        self.length_scale = length_scale

    def instantiate(self, page_bytes, seed=0):
        rng = self._rng(seed)
        space_map = AddressSpaceMap(page_bytes)

        def proc_space(pid):
            return ProcessAddressSpace(
                pid, (pid + 1) * 0x0100_0000, 0x0100_0000, space_map
            )

        def duration(base):
            return max(1024, int(base * self.length_scale))

        server = ProcessImage(
            proc_space(0), code_pages=10, heap_pages=900,
            file_pages=64,
        )
        server_phases = []
        for round_number in range(6):
            server_phases.append(Phase(      # OLTP: hot index reads
                duration=duration(70_000),
                code_hot_pages=5, ws_start=0, ws_pages=160,
                write_frac=0.22, rmw_frac=0.30, data_skew=1.6,
                alloc_pages=8,
            ))
            server_phases.append(Phase(      # checkpoint sweep
                duration=duration(30_000),
                code_hot_pages=3,
                ws_start=(round_number * 120) % (900 - 420),
                ws_pages=420,
                write_frac=0.50, rmw_frac=0.45, data_skew=0.2,
            ))
        log_writer = ProcessImage(
            proc_space(1), code_pages=3, heap_pages=400,
        )
        log_phases = [Phase(
            duration=duration(160_000),
            code_hot_pages=2, ws_start=0, ws_pages=8,
            write_frac=0.85, rmw_frac=0.0,
            alloc_pages=300, alloc_write_frac=1.0, data_skew=2.0,
        )]
        reporter = ProcessImage(
            proc_space(2), code_pages=4, heap_pages=64,
            file_pages=200,
        )
        report_phases = [Phase(
            duration=duration(120_000),
            code_hot_pages=2, ws_start=0, ws_pages=48,
            write_frac=0.10, rmw_frac=0.1, scan_pages=200,
            data_skew=0.8,
        )]

        space_map.seal()
        scheduler = RoundRobinScheduler([
            (PhasedProcess(server, server_phases,
                           rng.substream("server")), 1.0),
            (PhasedProcess(log_writer, log_phases,
                           rng.substream("log")), 0.5),
            (PhasedProcess(reporter, report_phases,
                           rng.substream("report")), 0.5),
        ], quantum=8192)
        return WorkloadInstance(
            self.name, space_map, scheduler.access_chunks,
            int(500_000 * self.length_scale),
        )


def main():
    runner = ExperimentRunner()
    workload = DatabaseWorkload(length_scale=0.6)

    print(f"custom workload {workload.name!r}: dirty-bit policies at "
          f"the 6 MB-equivalent point\n")
    print(f"{'policy':>10} {'cycles':>12} {'N_ds':>6} {'stale':>6} "
          f"{'page-ins':>9}")
    for policy in ("MIN", "SPUR", "FAULT", "FLUSH"):
        config = scaled_config(memory_ratio=48, dirty_policy=policy)
        result = runner.run(config, DatabaseWorkload(0.6))
        stale = (result.event(Event.EXCESS_FAULT)
                 + result.event(Event.DIRTY_BIT_MISS))
        print(f"{policy:>10} {result.cycles:>12,} "
              f"{result.event(Event.DIRTY_FAULT):>6} {stale:>6} "
              f"{result.page_ins:>9,}")

    print("\nthe log writer's append-only pages fault exactly once "
          "each (pure N_zfod);\nthe checkpoint sweeps generate the "
          "read-then-write traffic that separates\nFAULT from SPUR. "
          "Swap in your own phases to study your own system.")


if __name__ == "__main__":
    main()
