"""The Sprite development machines of Table 3.5.

The paper measured page-out behaviour on six Berkeley workstations
(mace, sloth, sage, fenugreek, murder — mace appears twice) used for
OS development, mail, and paper writing, asking: of the writable pages
replaced, how many were actually modified?  With >= 8 MB of memory the
answer was at least 80%, rising past 90% at 12 MB — the basis for the
paper's claim that dirty bits save little I/O on big-memory machines.

Each host becomes a :class:`DevSystemProfile`: a memory size (as a
cache ratio, keeping the workload scale-invariant), a churn level (how
many short-lived compile-like jobs cycle through), and a read bias
(how much long-lived, read-mostly writable data — mailboxes, editor
buffers — the machine carries; that data is what gets replaced clean).
"""

from dataclasses import dataclass

from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.mix import RoundRobinScheduler, serial
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage

_SLICE = 0x0100_0000


@dataclass(frozen=True)
class DevSystemProfile:
    """One development machine's configuration and workload character.

    Attributes
    ----------
    hostname:
        As in Table 3.5.
    memory_mb:
        The host's physical memory in paper-scale megabytes.
    uptime_hours:
        Reported measurement interval (documentation; trace length is
        set by ``length_scale`` at instantiation).
    churn:
        Number of short-lived job chains (compiles, greps, TeX runs).
    read_bias:
        Fraction of the long-lived processes' data activity that is
        read-only re-reading of writable pages; drives the clean-
        replacement ("Not Modified") rate.
    """

    hostname: str
    memory_mb: int
    uptime_hours: int
    churn: int
    read_bias: float

    @property
    def memory_ratio(self):
        """Memory as a multiple of the 128 KB cache (scale-free)."""
        return self.memory_mb * 8  # 1 MB / 128 KB


#: The six measurement rows of Table 3.5, in paper order.
DEV_SYSTEM_PROFILES = (
    DevSystemProfile("mace", 8, 70, churn=4, read_bias=0.20),
    DevSystemProfile("sloth", 8, 37, churn=3, read_bias=0.07),
    DevSystemProfile("mace", 8, 46, churn=5, read_bias=0.28),
    DevSystemProfile("sage", 12, 45, churn=3, read_bias=0.06),
    DevSystemProfile("fenugreek", 12, 36, churn=3, read_bias=0.08),
    DevSystemProfile("murder", 16, 119, churn=5, read_bias=0.15),
)


class DevSystemWorkload(Workload):
    """Software-development activity for one profiled host."""

    def __init__(self, profile, length_scale=1.0):
        self.profile = profile
        self.length_scale = length_scale
        self.name = f"dev-{profile.hostname}-{profile.memory_mb}mb"

    def instantiate(self, page_bytes, seed=0):
        rng = self._rng(seed)
        profile = self.profile
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

        # -- churning short-lived jobs: write-heavy, fast turnover -------
        for chain in range(profile.churn):
            jobs = []
            for job in range(4):
                image = ProcessImage(
                    new_space(), code_pages=8, heap_pages=280,
                    file_pages=80,
                )
                jobs.append(PhasedProcess(
                    image,
                    [
                        Phase(
                            duration=duration(70_000),
                            code_hot_pages=4, ws_start=0, ws_pages=110,
                            write_frac=0.45, rmw_frac=0.14,
                            alloc_pages=150, alloc_write_frac=0.8,
                            scan_pages=280, data_skew=1.0,
                        ),
                    ],
                    rng.substream(f"job{chain}.{job}"),
                ))
            processes.append((serial(jobs), 1.0))

        # -- long-lived read-mostly service (mail reader, editor) ---------
        # Its heap pages are writable but mostly re-read; under memory
        # pressure they are the clean writable replacements.
        reader = ProcessImage(
            new_space(), code_pages=10, heap_pages=760, file_pages=96,
            data_pages=420,
        )
        read_bias = profile.read_bias
        reader_phases = []
        for window in range(6):
            reader_phases.append(Phase(
                duration=duration(90_000),
                code_hot_pages=5,
                ws_start=(window * 110) % (760 - 260),
                ws_pages=260,
                write_frac=0.10,
                rmw_frac=0.20,
                alloc_pages=max(2, int(110 * (1.0 - read_bias))),
                scan_pages=24,
                data_skew=0.35,
                data_frac=0.33 * read_bias,
                data_ws_pages=380,
                data_write_frac=0.06,
            ))
        processes.append((PhasedProcess(
            reader, reader_phases, rng.substream("reader")
        ), 1.0))

        space_map.seal()
        scheduler = RoundRobinScheduler(processes, quantum=8192)
        hint = int((profile.churn * 280_000 + 540_000) * scale)
        return WorkloadInstance(
            self.name, space_map, scheduler.access_chunks, hint,
        )
