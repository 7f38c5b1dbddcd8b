"""A Sprite-like virtual-memory system.

The paper's measurements come from the Sprite operating system running
on the SPUR prototype.  This package reimplements the pieces of
Sprite's VM that the paper's phenomena depend on:

* physical frame management and a free-list allocator,
* segment-based process address spaces laid out in SPUR's single
  global virtual space (the OS-level synonym prevention of [Hill86]),
* zero-fill-on-demand stack and heap pages, mapped with the dirty bit
  off so the first write faults (the :math:`N_{zfod}` events),
* a clock page daemon that clears reference bits and reclaims
  unreferenced pages,
* a swap device with the page-in/page-out accounting behind
  Tables 3.5 and 4.1 (including Sprite's quirk of writing zero-fill
  pages to swap on their first replacement even when clean).
"""

from repro.vm.frames import FrameTable
from repro.vm.allocator import FrameAllocator, OutOfFramesError
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace, Region
from repro.vm.swap import SwapDevice
from repro.vm.pagedaemon import ClockPageDaemon
from repro.vm.faults import FaultKind
from repro.vm.system import VirtualMemorySystem, VmPage

__all__ = [
    "AddressSpaceMap",
    "ClockPageDaemon",
    "FaultKind",
    "FrameAllocator",
    "FrameTable",
    "OutOfFramesError",
    "ProcessAddressSpace",
    "Region",
    "SwapDevice",
    "VirtualMemorySystem",
    "VmPage",
]
