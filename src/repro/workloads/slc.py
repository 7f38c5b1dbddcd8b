"""SLC: the SPUR Common Lisp compiler workload (paper, Section 2).

The original ran the SPUR Lisp system [Zorn87] and its compiler over a
set of benchmark programs.  Lisp's memory behaviour is dominated by
allocation: cons cells are created at a furious rate into fresh
zero-fill heap pages (written before ever being read — prime
:math:`N_{zfod}` territory), followed by garbage-collection sweeps
that read-modify-write the surviving data.  The paper's SLC numbers
show exactly this signature: zero-fill faults are a large,
memory-size-independent share of dirty faults (905 of 1661-2349), and
behaviour is more uniform across policies than WORKLOAD1's.

The synthetic equivalent compiles eight "benchmarks" in sequence
inside one big-heap Lisp process — each benchmark an allocation phase
followed by a GC/compile sweep over a wider survivor region — with a
small driver process alongside.  The heap is sized past the largest
memory configuration, so allocation keeps cycling through pages the
daemon evicted (the total-footprint pressure that gives the paper its
1056 page-ins even at 8 MB), while the sweep working set squeezes the
smaller memories much harder (the 4647 page-ins at 5 MB).
"""

from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.mix import RoundRobinScheduler
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage

_SLICE = 0x0100_0000


class SlcWorkload(Workload):
    """The paper's SLC workload, reconstructed synthetically."""

    name = "SLC"

    def __init__(self, length_scale=1.0, benchmarks=8):
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        if benchmarks < 1:
            raise ValueError("need at least one benchmark")
        self.length_scale = length_scale
        self.benchmarks = benchmarks

    def instantiate(self, page_bytes, seed=0):
        rng = self._rng(seed)
        space_map = AddressSpaceMap(page_bytes)
        scale = self.length_scale

        def duration(base):
            return max(1024, int(base * scale))

        # -- the Lisp system: one large heap, allocation + GC phases -----
        lisp_space = ProcessAddressSpace(
            0, page_bytes, _SLICE - page_bytes, space_map
        )
        lisp = ProcessImage(
            lisp_space, code_pages=14, heap_pages=2400, file_pages=64
        )
        phases = []
        region = 0
        for bench in range(self.benchmarks):
            # Allocation: cons into fresh pages; the benchmark also
            # reads its own recent structures (write-first dominates).
            phases.append(Phase(
                duration=duration(115_000),
                code_hot_pages=8,
                ws_start=region,
                ws_pages=440,
                write_frac=0.46,
                rmw_frac=0.06,
                alloc_pages=85,
                alloc_write_frac=0.85,
                scan_pages=6,
                data_skew=0.9,
            ))
            # GC / compile pass: sweep the survivors, RMW-heavy.
            phases.append(Phase(
                duration=duration(85_000),
                code_hot_pages=6,
                ws_start=region,
                ws_pages=1150,
                write_frac=0.36,
                rmw_frac=0.26,
                alloc_pages=12,
                data_skew=0.35,
            ))
            region = (region + 300) % (2400 - 1150)
        lisp_proc = PhasedProcess(lisp, phases, rng.substream("lisp"))

        # -- the compiler driver: small, steady ---------------------------
        driver_space = ProcessAddressSpace(
            1, _SLICE + page_bytes, _SLICE - page_bytes, space_map
        )
        driver = ProcessImage(
            driver_space, code_pages=6, heap_pages=72, file_pages=20
        )
        driver_proc = PhasedProcess(
            driver,
            [
                Phase(
                    duration=duration(240_000),
                    code_hot_pages=3, ws_start=0, ws_pages=48,
                    write_frac=0.24, rmw_frac=0.15,
                    alloc_pages=16, scan_pages=16, data_skew=1.0,
                ),
            ],
            rng.substream("driver"),
        )

        space_map.seal()
        scheduler = RoundRobinScheduler(
            [(lisp_proc, 1.0), (driver_proc, 0.35)], quantum=8192
        )
        hint = int(1_900_000 * scale)
        return WorkloadInstance(
            self.name, space_map, scheduler.access_chunks, hint,
        )
