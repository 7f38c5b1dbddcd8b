"""A shared-memory multiprocessor SPUR workstation.

SPUR workstations hold up to twelve processor boards on one backplane
[Hill86]; the prototype the paper measured was a uniprocessor, but the
paper's design arguments — software PTE updates avoid multiprocessor
atomic-update hardware, page flushes must reach *every* cache — are
multiprocessor arguments.  :class:`SmpSystem` builds the machine those
arguments describe: N processors with private virtual caches snooping
one bus, sharing one physical memory, one global page table, one swap
device, and one Sprite VM.

The system object doubles as the "machine" facade the shared VM and
page daemon talk to: page flushes cover every cache, and policy
handlers run against the faulting processor's cache while updating the
shared PTEs — which is exactly the synchronisation simplification the
paper credits software dirty-bit updates with.
"""

from repro.cache.bus import SnoopyBus
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event
from repro.machine.simulator import SpurMachine
from repro.translation.pagetable import PageTable, PageTableLayout
from repro.vm.swap import SwapDevice
from repro.vm.system import VirtualMemorySystem
from repro.workloads.base import chunk_accesses


class SmpSystem:
    """N SPUR processors sharing bus, memory, page table, and VM.

    Parameters
    ----------
    config:
        Per-processor :class:`MachineConfig`; ``memory_bytes`` sizes
        the single shared memory.
    space_map:
        The workload's address-space map (global virtual space is
        shared by construction — SPUR's synonym prevention).
    num_cpus:
        Processor-board count, 1..12 as in the SPUR backplane.
    """

    MAX_CPUS = 12

    def __init__(self, config, space_map, num_cpus=2, counters=None):
        if not 1 <= num_cpus <= self.MAX_CPUS:
            raise ValueError(
                f"SPUR backplanes hold 1..{self.MAX_CPUS} boards, "
                f"not {num_cpus}"
            )
        self.config = config
        self.counters = counters or PerformanceCounters()
        self.bus = SnoopyBus(name="backplane", counters=self.counters)

        layout = PageTableLayout(
            page_bytes=config.page_bytes,
            pte_base=config.pte_base,
            second_level_base=config.second_level_base,
            user_limit=config.user_limit,
        )
        self.page_table = PageTable(layout)
        self.swap = SwapDevice(io_cycles=config.fault_timing.page_io)
        self.vm = VirtualMemorySystem(
            self.page_table,
            space_map,
            self.swap,
            num_frames=config.num_frames,
            wired_frames=config.wired_frames,
            low_water=config.low_water,
            high_water=config.high_water,
        )

        self.cpus = [
            SpurMachine(
                config,
                space_map,
                counters=self.counters,
                bus=self.bus,
                name=f"cpu{i}",
                page_table=self.page_table,
                vm=self.vm,
                swap=self.swap,
            )
            for i in range(num_cpus)
        ]
        for cpu in self.cpus:
            cpu.system = self
        # The VM talks to the system facade, not any single CPU.
        self.vm.attach_machine(self)

    # -- the machine facade the VM, daemon, and policies consume --------

    @property
    def fault_timing(self):
        return self.config.fault_timing

    @property
    def page_bytes(self):
        return self.config.page_bytes

    @property
    def page_bits(self):
        return self.config.page_geometry.page_bits

    @property
    def zero_fill_cycles(self):
        return self.config.zero_fill_cycles

    @property
    def dirty_policy(self):
        return self.cpus[0].dirty_policy

    @property
    def reference_policy(self):
        return self.cpus[0].reference_policy

    @property
    def map_protections(self):
        return self.cpus[0].map_protections

    @property
    def flusher(self):
        return self.cpus[0].flusher

    def caches(self):
        """Every processor's cache (the page-flush domain)."""
        return [cpu.cache for cpu in self.cpus]

    def flush_page(self, page_vaddr):
        """Flush one page from every processor's cache."""
        cycles = 0
        lines_checked = 0
        write_backs = 0
        for cache in self.caches():
            result = self.flusher.flush_page(
                cache, page_vaddr, self.page_bytes
            )
            lines_checked += result.lines_checked
            write_backs += result.write_backs
            cycles += result.cycles
        self.counters.increment(Event.FLUSH_OPERATION, lines_checked)
        self.counters.increment(Event.FLUSH_WRITE_BACK, write_backs)
        return cycles

    # -- execution ---------------------------------------------------------

    def run_interleaved(self, streams, quantum=4096):
        """Drive one ``(kind, vaddr)`` stream per CPU: the input
        convenience for hand-written traces, chunked at ``quantum``
        and fed to :meth:`run_interleaved_chunks`.  Returns total
        references executed.
        """
        return self.run_interleaved_chunks(
            [chunk_accesses(stream, quantum) for stream in streams],
            quantum,
        )

    def run_interleaved_chunks(self, chunk_streams, quantum=4096):
        """Drive one flat-chunk stream per CPU, gang-interleaved.

        ``chunk_streams`` holds one flat-chunk iterator per CPU,
        chunked at ``quantum`` references (e.g.
        ``instance.access_chunks(quantum)`` or
        :func:`repro.workloads.base.chunk_accesses`).  Each round
        feeds every live CPU its next whole chunk through
        :meth:`SpurMachine.run_chunks` (a crude but adequate stand-in
        for loosely synchronised parallel execution — the snooping
        happens at slice granularity).  A short (or missing) chunk
        retires its CPU.  Returns total references.
        """
        if len(chunk_streams) != len(self.cpus):
            raise ValueError(
                f"need one chunk stream per CPU "
                f"({len(self.cpus)}), got {len(chunk_streams)}"
            )
        iterators = [iter(stream) for stream in chunk_streams]
        live = list(range(len(iterators)))
        total = 0
        while live:
            finished = []
            for cpu_index in live:
                chunk = next(iterators[cpu_index], None)
                if chunk is None:
                    finished.append(cpu_index)
                    continue
                total += self.cpus[cpu_index].run_chunks((chunk,))
                if len(chunk) >> 1 < quantum:
                    finished.append(cpu_index)
            for cpu_index in finished:
                live.remove(cpu_index)
        return total

    @property
    def cycles(self):
        """Aggregate processor cycles across the boards."""
        return sum(cpu.cycles for cpu in self.cpus)

    @property
    def references(self):
        return sum(cpu.references for cpu in self.cpus)

    def observe_state(self):
        """Cumulative ``(references, cycles, counter snapshot)``.

        Aggregates across the boards; the counter bank is shared, so
        the snapshot already reflects every CPU.
        """
        return self.references, self.cycles, self.counters.snapshot()

    def observation_alignment(self):
        """SMP observers sample post-slice and never re-segment.

        Because no stream is re-cut, there is no poll schedule to
        preserve and any epoch cadence is exact (at quantum
        granularity).
        """
        return 1

    def __repr__(self):
        return (
            f"SmpSystem({len(self.cpus)} cpus, "
            f"{self.references} refs, bus={self.bus.transactions} txns)"
        )
