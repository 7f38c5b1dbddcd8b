"""Segment-based process address spaces in SPUR's global space.

SPUR prevents virtual-address synonyms by making processes that share
memory use the same *global* virtual address; the hardware provides a
simple segment mapping from each process's virtual space into the
global space [Hill86].  The reproduction follows that design: every
process is a set of :class:`Region` objects (code, data, heap, stack,
mapped files) carved out of the single global space, and workload
generators emit global addresses directly.

The VM system consults the :class:`AddressSpaceMap` on a page fault to
learn the faulting page's attributes — writable?  file-backed or
zero-fill? — which drive protection, dirty-bit, and swap behaviour.
"""

import bisect
import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import AddressError, ConfigurationError
from repro.common.types import PageKind


class RegionKind(enum.Enum):
    """Role of a region within a process image."""

    CODE = "code"
    DATA = "data"
    HEAP = "heap"
    STACK = "stack"
    FILE = "file"

    @property
    def writable(self):
        """Code and mapped input files are read-only; data, heap and
        stack pages can be modified (they are what Table 3.5 calls
        "potentially modified")."""
        return self not in (RegionKind.CODE, RegionKind.FILE)

    @property
    def page_kind(self):
        """Backing-store kind for pages of this region.

        Code, initialised data, and mapped files come from files; heap
        and stack pages are zero-filled on demand (Sprite maps them
        with the dirty bit off).
        """
        if self in (RegionKind.HEAP, RegionKind.STACK):
            return PageKind.ZERO_FILL
        return PageKind.FILE


@dataclass(frozen=True)
class Region:
    """A contiguous run of pages with uniform attributes."""

    name: str
    kind: RegionKind
    start: int          # inclusive global virtual address, page aligned
    size: int           # bytes, whole pages
    pid: int = 0

    @property
    def end(self):
        """Exclusive upper bound address."""
        return self.start + self.size

    @property
    def writable(self):
        return self.kind.writable

    @property
    def page_kind(self):
        return self.kind.page_kind

    def contains(self, vaddr):
        """Whether ``vaddr`` lies in this region."""
        return self.start <= vaddr < self.end


class AddressSpaceMap:
    """All regions of all processes, indexed for fast page lookup."""

    def __init__(self, page_bytes):
        self.page_bytes = page_bytes
        self._regions: List[Region] = []
        self._starts: List[int] = []
        self._sealed = False

    def add(self, region):
        """Register a region.  Regions must not overlap."""
        if self._sealed:
            raise ConfigurationError("address-space map is sealed")
        if region.start % self.page_bytes or region.size % self.page_bytes:
            raise ConfigurationError(
                f"region {region.name!r} is not page aligned"
            )
        if region.size <= 0:
            raise ConfigurationError(
                f"region {region.name!r} has non-positive size"
            )
        for existing in self._regions:
            if region.start < existing.end and existing.start < region.end:
                raise ConfigurationError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.start)
        self._starts = [r.start for r in self._regions]
        return region

    def seal(self):
        """Freeze the map; lookups after sealing may be cached."""
        self._sealed = True

    def region_of(self, vaddr) -> Optional[Region]:
        """Region containing ``vaddr``, or ``None``."""
        position = bisect.bisect_right(self._starts, vaddr) - 1
        if position < 0:
            return None
        region = self._regions[position]
        return region if region.contains(vaddr) else None

    def regions(self):
        """Every region, in address order."""
        return tuple(self._regions)

    def total_pages(self):
        """Pages spanned by all regions together."""
        return sum(r.size for r in self._regions) // self.page_bytes


class ProcessAddressSpace:
    """Builder for one process's regions within the global space.

    Carves page-aligned regions out of a private slice of the global
    space, mirroring how Sprite laid out SPUR processes via the
    hardware segment map.
    """

    def __init__(self, pid, base, span, space_map):
        if base % space_map.page_bytes:
            raise ConfigurationError("process base must be page aligned")
        self.pid = pid
        self.base = base
        self.span = span
        self.space_map = space_map
        self._cursor = base

    def add_region(self, name, kind, size):
        """Append a region of ``size`` bytes after prior regions.

        A one-page guard gap is left between regions so stack/heap
        growth bugs fault instead of silently bleeding across.
        """
        page = self.space_map.page_bytes
        size = ((size + page - 1) // page) * page
        if self._cursor + size > self.base + self.span:
            raise AddressError(
                f"process {self.pid}: region {name!r} exceeds its "
                f"address-space slice"
            )
        region = Region(
            name=f"p{self.pid}.{name}",
            kind=kind,
            start=self._cursor,
            size=size,
            pid=self.pid,
        )
        self.space_map.add(region)
        self._cursor += size + page  # guard page
        return region
