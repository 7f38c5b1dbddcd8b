"""The virtual-memory system façade.

Owns the page table, frame table, allocator, swap device, and page
daemon, and implements the two macro operations the machine calls:
servicing a page fault and evicting a page.  Policy-specific behaviour
(what protection a fresh mapping gets, how reference bits are set) is
delegated to the machine's active dirty/reference policies, keeping
this module policy-neutral — it is the part of "Sprite" the paper did
*not* vary.
"""

from dataclasses import dataclass

from repro.common.errors import ConfigurationError, ProtectionFault
from repro.common.types import PageKind
from repro.counters.events import Event
from repro.vm.allocator import FrameAllocator, OutOfFramesError
from repro.vm.frames import FREE, FrameTable
from repro.vm.pagedaemon import ClockPageDaemon

_PAGE_FAULT = int(Event.PAGE_FAULT)
_PAGE_IN = int(Event.PAGE_IN)
_PAGE_OUT = int(Event.PAGE_OUT)
_ZERO_FILL_PAGE = int(Event.ZERO_FILL_PAGE)
_PAGE_RECLAIM = int(Event.PAGE_RECLAIM)
_FILE = PageKind.FILE
_SWAP = PageKind.SWAP
_ZERO_FILL = PageKind.ZERO_FILL


class VmPage:
    """Software bookkeeping for one virtual page."""

    __slots__ = ("vpn", "region", "writable", "in_swap", "frame",
                 "page_ins")

    def __init__(self, vpn, region):
        self.vpn = vpn
        self.region = region
        #: ``region.writable``, cached: the reference loop reads it on
        #: every write miss.
        self.writable = region.writable
        self.in_swap = False
        self.frame = None
        self.page_ins = 0

    @property
    def resident(self):
        return self.frame is not None


@dataclass
class VmStats:
    """VM-level event totals (paging I/O lives in SwapStats)."""

    page_faults: int = 0
    daemon_cycles: int = 0
    fault_cycles: int = 0


class VirtualMemorySystem:
    """Sprite-like paging over the SPUR machine.

    Parameters
    ----------
    page_table:
        The global :class:`repro.translation.pagetable.PageTable`.
    space_map:
        :class:`repro.vm.segments.AddressSpaceMap` describing every
        process region.
    swap:
        :class:`repro.vm.swap.SwapDevice`.
    num_frames:
        Allocatable + wired physical frames.
    wired_frames:
        Frames reserved for kernel and wired page tables.
    low_water / high_water:
        Page-daemon trigger and target free-frame counts; default to
        about 3% and 6% of allocatable frames.
    """

    def __init__(
        self,
        page_table,
        space_map,
        swap,
        num_frames,
        wired_frames=0,
        low_water=None,
        high_water=None,
    ):
        self.page_table = page_table
        self.space_map = space_map
        self.swap = swap
        self.frame_table = FrameTable(num_frames, wired_frames)
        self.allocator = FrameAllocator(self.frame_table)
        allocatable = self.frame_table.allocatable_frames
        if low_water is None:
            low_water = max(2, allocatable // 32)
        if high_water is None:
            high_water = max(low_water, 2 * low_water)
        if high_water >= allocatable:
            raise ConfigurationError(
                "daemon high-water mark leaves no usable memory"
            )
        self.daemon = ClockPageDaemon(self, low_water, high_water)
        self.pages = {}
        self.stats = VmStats()
        self.page_bytes = space_map.page_bytes
        self.machine = None  # set by SpurMachine.attach

    def attach_machine(self, machine):
        """Bind the machine this VM charges costs to.

        The VM reads its counter bank, timings, ``map_protections``,
        ``zero_fill_cycles`` and ``flush_page``.
        """
        self.machine = machine

    def page(self, vpn):
        """The :class:`VmPage` record for ``vpn`` (created lazily)."""
        record = self.pages.get(vpn)
        if record is None:
            vaddr = vpn * self.page_bytes
            region = self.space_map.region_of(vaddr)
            if region is None:
                raise ProtectionFault(
                    vaddr, "access to unmapped global address"
                )
            record = VmPage(vpn, region)
            self.pages[vpn] = record
        return record

    # -- page faults ----------------------------------------------------

    def handle_page_fault(self, vpn):
        """Make page ``vpn`` resident.  Returns handler cycles.

        The sequence mirrors Sprite: reclaim frames if the free pool is
        low, allocate a frame, fill it (swap read, file read, or zero
        fill), and install the PTE with policy-chosen protection and
        dirty/reference state.  The frame table, free list, swap
        statistics and PTE are updated in place here, as one
        sequence.
        """
        machine = self.machine
        slots = machine.counters.slots
        slots[_PAGE_FAULT] += 1
        stats = self.stats
        stats.page_faults += 1
        cycles = machine.fault_timing.page_fault_service

        page = self.pages.get(vpn)
        if page is None:
            page = self.page(vpn)

        free_frames = self.allocator.free_frames
        if len(free_frames) < self.daemon.low_water:
            daemon_cycles = self.daemon.run()
            stats.daemon_cycles += daemon_cycles
            cycles += daemon_cycles
        if not free_frames:
            raise OutOfFramesError(
                f"no free frame for page {vpn}; the daemon reclaimed none"
            )
        frame = free_frames.pop()
        owners = self.frame_table.owners
        if owners[frame] != FREE or frame < self.frame_table.wired_frames:
            raise ConfigurationError(
                f"frame {frame} is wired or already holds page "
                f"{owners[frame]}; it cannot hold page {vpn}"
            )
        owners[frame] = vpn
        page.frame = frame
        page.page_ins += 1

        if page.in_swap or page.region.page_kind is _FILE:
            kind = _SWAP if page.in_swap else _FILE
            self.swap.stats.page_ins += 1
            cycles += self.swap.io_cycles
            slots[_PAGE_IN] += 1
        else:
            kind = _ZERO_FILL
            self.swap.stats.zero_fills += 1
            cycles += machine.zero_fill_cycles
            slots[_ZERO_FILL_PAGE] += 1

        # Map the page: fresh dirty bits, so the first write faults
        # (Section 3.2), and the reference bit set for free — the
        # faulting access references the page under every policy.
        table = self.page_table
        pte = table.peek(vpn) or table.entry(vpn)
        pte.ppn = frame
        pte.protection = machine.map_protections[page.writable]
        pte.valid = True
        pte.dirty = False
        pte.software_dirty = False
        pte.referenced = True
        pte.cacheable = True
        pte.coherent = False
        pte.kind = kind
        self.daemon.note_resident(vpn)
        stats.fault_cycles += cycles
        return cycles

    # -- eviction ---------------------------------------------------------

    def evict(self, vpn):
        """Remove page ``vpn`` from memory.  Returns cycles.

        Flushes the page's blocks out of the cache (dirty cache data
        must reach memory before the frame is written to swap or
        reused), writes the page to swap when the dirty state demands
        it, and releases the frame.
        """
        machine = self.machine
        slots = machine.counters.slots
        page = self.pages.get(vpn)
        if page is None or page.frame is None:
            raise ConfigurationError(f"evicting non-resident page {vpn}")
        pte = self.page_table.peek(vpn)
        cycles = machine.flush_page(vpn * self.page_bytes)

        modified = pte.is_modified()
        swap = self.swap
        if page.writable:
            swap.stats.potentially_modified += 1
            if not modified:
                swap.stats.not_modified += 1
        # Sprite writes a zero-fill page to swap on its first
        # replacement even if clean (paper, footnote 4); thereafter,
        # and for all other pages, only modified pages are written.
        if modified or (pte.kind is _ZERO_FILL and not page.in_swap):
            swap.images.add(vpn)
            swap.stats.page_outs += 1
            cycles += swap.io_cycles
            slots[_PAGE_OUT] += 1
            page.in_swap = True

        slots[_PAGE_RECLAIM] += 1
        pte.valid = False
        pte.dirty = False
        pte.software_dirty = False
        pte.referenced = False
        frame = page.frame
        owners = self.frame_table.owners
        if owners[frame] == FREE:
            raise ConfigurationError(f"frame {frame} is already free")
        owners[frame] = FREE
        self.allocator.free_frames.append(frame)
        page.frame = None
        self.daemon.note_evicted(vpn)
        return cycles

    def resident_pages(self):
        """vpns currently resident (testing and diagnostics)."""
        return [
            vpn for vpn, page in self.pages.items() if page.resident
        ]
