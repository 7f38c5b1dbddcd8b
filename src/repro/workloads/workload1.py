"""WORKLOAD1: the CAD-tool developer's day (paper, Section 2).

The original script compiled several modules, linked and debugged a
12,000-line CAD tool (espresso), ran the same tool in the background
optimising a large PLA, performed edit/compile/miscellaneous file
commands, and ran two small performance monitors.  (The paper notes it
lacked window-system activity; so does this stand-in.)

The synthetic equivalent is a multiprogrammed mix with the same cast:

* a long-running background *espresso* with a large heap whose working
  set oscillates across the PLA data structures (iterative
  expand/reduce passes revisit earlier regions, which is what makes
  evicted pages come back — the paging traffic the paper measures),
* a serial chain of *compile* jobs — parse (file scan + fresh heap),
  optimise (read-modify-write over the middle end's structures),
  code generation (write-heavy output building),
* a *linker* pass scanning many object pages and writing a large
  output image,
* an *editor* with a small, read-mostly working set,
* two tiny periodic *monitor* programs.

Footprints are expressed in pages, which makes the workload
scale-invariant: at paper scale (4 KB pages, 5-8 MB memory) and at the
default bench scale (512 B pages, memory shrunk by the same factor)
the ratio of working set to memory — what the paging results depend
on — is identical.  The aggregate active working set is sized to
exceed memory at the 5 MB-equivalent point and approach it at the
8 MB-equivalent point, reproducing the paper's heavy-to-light paging
gradient.
"""

from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.mix import RoundRobinScheduler, serial
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage

#: Global-space slice reserved per process image.
_SLICE = 0x0100_0000

#: Espresso pass working-set origins: expand/reduce iterations sweep
#: forward then fall back, so previously evicted regions are revisited.
_ESPRESSO_WALK = (0, 240, 480, 240, 0, 240, 480, 700, 480, 240)


class Workload1(Workload):
    """The paper's WORKLOAD1, reconstructed synthetically."""

    name = "WORKLOAD1"

    def __init__(self, length_scale=1.0):
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        self.length_scale = length_scale

    def instantiate(self, page_bytes, seed=0):
        rng = self._rng(seed)
        space_map = AddressSpaceMap(page_bytes)
        scale = self.length_scale

        def duration(base):
            return max(1024, int(base * scale))

        processes = []
        next_pid = [0]

        def new_space():
            pid = next_pid[0]
            next_pid[0] += 1
            return ProcessAddressSpace(
                pid, pid * _SLICE + page_bytes, _SLICE - page_bytes,
                space_map,
            )

        # -- background espresso: iterative passes over a big PLA ------
        espresso = ProcessImage(
            new_space(), code_pages=12, heap_pages=1650, file_pages=96
        )
        espresso_phases = [
            Phase(
                duration=duration(115_000),
                code_hot_pages=6,
                ws_start=start,
                ws_pages=900,
                write_frac=0.34,
                rmw_frac=0.16,
                alloc_pages=24,
                scan_pages=6,
                data_skew=0.45,
            )
            for start in _ESPRESSO_WALK
        ]
        processes.append((PhasedProcess(
            espresso, espresso_phases, rng.substream("espresso")
        ), 1.0))

        # -- serial compile jobs (four modules) --------------------------
        compile_jobs = []
        for job in range(4):
            image = ProcessImage(
                new_space(), code_pages=10, heap_pages=460,
                file_pages=40, data_pages=8,
            )
            compile_jobs.append(PhasedProcess(
                image,
                [
                    Phase(  # parse: scan source, build fresh AST pages
                        duration=duration(60_000),
                        code_hot_pages=4, ws_start=0, ws_pages=150,
                        write_frac=0.42, rmw_frac=0.08,
                        alloc_pages=64, scan_pages=36, data_skew=0.6,
                    ),
                    Phase(  # optimise: RMW over the middle end
                        duration=duration(80_000),
                        code_hot_pages=6, ws_start=20, ws_pages=330,
                        write_frac=0.34, rmw_frac=0.20,
                        alloc_pages=48, data_skew=0.8,
                    ),
                    Phase(  # code generation: write-heavy output
                        duration=duration(60_000),
                        code_hot_pages=5, ws_start=140, ws_pages=300,
                        write_frac=0.52, rmw_frac=0.07,
                        alloc_pages=56, scan_pages=4, data_skew=0.7,
                    ),
                ],
                rng.substream(f"cc{job}"),
            ))
        processes.append((serial(compile_jobs), 1.0))

        # -- link and debug of the CAD tool -------------------------------
        linker = ProcessImage(
            new_space(), code_pages=8, heap_pages=520, file_pages=128
        )
        processes.append((PhasedProcess(
            linker,
            [
                Phase(  # read every object file
                    duration=duration(90_000),
                    code_hot_pages=4, ws_start=0, ws_pages=160,
                    write_frac=0.30, rmw_frac=0.10,
                    alloc_pages=90, scan_pages=112, data_skew=0.5,
                ),
                Phase(  # relocate and emit the image
                    duration=duration(100_000),
                    code_hot_pages=4, ws_start=60, ws_pages=420,
                    write_frac=0.55, rmw_frac=0.13,
                    alloc_pages=160, data_skew=0.55,
                ),
            ],
            rng.substream("linker"),
        ), 1.0))

        # -- editor and miscellaneous file commands ------------------------
        editor = ProcessImage(
            new_space(), code_pages=6, heap_pages=64, file_pages=24
        )
        processes.append((PhasedProcess(
            editor,
            [
                Phase(
                    duration=duration(180_000),
                    code_hot_pages=3, ws_start=0, ws_pages=40,
                    write_frac=0.18, rmw_frac=0.18,
                    alloc_pages=12, scan_pages=18, data_skew=1.2,
                    stack_frac=0.08,
                ),
            ],
            rng.substream("editor"),
        ), 0.5))

        # -- two periodic performance monitors ------------------------------
        for monitor in range(2):
            image = ProcessImage(
                new_space(), code_pages=2, heap_pages=8
            )
            processes.append((PhasedProcess(
                image,
                [
                    Phase(
                        duration=duration(40_000),
                        code_hot_pages=2, ws_start=0, ws_pages=6,
                        write_frac=0.25, rmw_frac=0.2,
                        alloc_pages=4, data_skew=1.0,
                    ),
                ],
                rng.substream(f"monitor{monitor}"),
            ), 0.25))

        space_map.seal()
        scheduler = RoundRobinScheduler(processes, quantum=8192)
        hint = int(2_700_000 * scale)
        return WorkloadInstance(
            self.name, space_map, scheduler.access_chunks, hint,
        )
