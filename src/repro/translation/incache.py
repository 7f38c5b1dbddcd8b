"""The in-cache address translation engine [Wood86].

On a cache miss the controller:

1. computes the global virtual address of the first-level PTE with a
   shift-and-concatenate circuit and looks for it *in the cache*,
   using the unified cache as a very large TLB;
2. on a miss, computes the address of the second-level PTE (which maps
   the page-table page) and looks for *that* in the cache;
3. on a second miss, fetches the second-level PTE directly from main
   memory — legal because second-level page tables are wired down at
   well-known addresses — and then fetches the first-level PTE block.

PTE blocks fetched along the way are installed in the cache, where
they compete with instructions and data for frames; that competition
is the defining property of in-cache translation and is faithfully
modelled (a PTE fill can evict the very data block the processor is
about to re-fetch).

Authoritative PTE *contents* live in :class:`repro.translation.
pagetable.PageTable` (memory is the home location); the cache tracks
which PTE blocks are resident purely for cost and conflict behaviour.
Fault handlers update PTEs through the page table at a cost already
folded into the handler times of Table 3.2.
"""

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.types import Protection
from repro.counters.events import Event
from repro.translation.pagetable import PTE_BYTES

_TRANSLATION = int(Event.TRANSLATION)
_PTE_CACHE_HIT = int(Event.PTE_CACHE_HIT)
_PTE_CACHE_MISS = int(Event.PTE_CACHE_MISS)
_SECOND_LEVEL_LOOKUP = int(Event.SECOND_LEVEL_LOOKUP)
_SECOND_LEVEL_CACHE_HIT = int(Event.SECOND_LEVEL_CACHE_HIT)
_SECOND_LEVEL_MEMORY_ACCESS = int(Event.SECOND_LEVEL_MEMORY_ACCESS)
_KERNEL = Protection.KERNEL


@dataclass(frozen=True)
class TranslationTiming:
    """Cycle costs of the translation walk.

    The paper prices a PTE check at 3 cycles when the PTE is in the
    cache, with a weighted miss penalty of about 2 more cycles on
    average (Section 3.2, WRITE analysis); the block-transfer costs of
    actual PTE fetches come from the memory timing via the cache.
    """

    pte_check_cycles: int = 3
    second_level_check_cycles: int = 3


class TranslationResult(NamedTuple):
    """Outcome of one translation walk."""

    pte: object          # PageTableEntry (invalid if page not mapped)
    cycles: int
    first_level_hit: bool
    second_level_hit: bool   # only meaningful when first level missed
    went_to_memory: bool     # second-level PTE fetched from memory


class InCacheTranslator:
    """Walks the two-level page table through the virtual cache."""

    def __init__(self, page_table, cache, timing=None):
        self.page_table = page_table
        self.cache = cache
        self.timing = timing or TranslationTiming()
        # Walk constants (the layout and timing are frozen); a walk
        # counts into the cache's counter bank.
        layout = page_table.layout
        self._page_bits = layout.page_bits
        self._pte_base = layout.pte_base
        self._second_base = layout.second_level_base
        self._slots = cache.counters.slots

    def translate(self, vaddr):
        """Translate a (missing) reference's address.

        Returns a :class:`TranslationResult` whose ``pte`` field is the
        live page-table entry for the page — possibly invalid, in which
        case the caller raises a page fault, services it, and simply
        uses the same (now valid) entry.  The probes are the cache's
        one-compare hit test; the PTE blocks go in through
        :meth:`~repro.cache.cache.VirtualCache.fill`.
        """
        page_bits = self._page_bits
        vpn = vaddr >> page_bits
        table = self.page_table
        pte = table.peek(vpn) or table.entry(vpn)
        pte_vaddr = self._pte_base + vpn * PTE_BYTES
        cache = self.cache
        line_block = cache.line_block
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        slots = self._slots
        slots[_TRANSLATION] += 1

        cycles = self.timing.pte_check_cycles
        block = pte_vaddr >> block_bits
        if line_block[block & index_mask] == block:
            slots[_PTE_CACHE_HIT] += 1
            return TranslationResult(pte, cycles, True, False, False)
        slots[_PTE_CACHE_MISS] += 1
        slots[_SECOND_LEVEL_LOOKUP] += 1

        # First-level PTE missed: look for the second-level PTE.
        second_vaddr = self._second_base + (
            pte_vaddr >> page_bits
        ) * PTE_BYTES
        cycles += self.timing.second_level_check_cycles
        block = second_vaddr >> block_bits
        second_hit = line_block[block & index_mask] == block
        if second_hit:
            slots[_SECOND_LEVEL_CACHE_HIT] += 1
        else:
            # Second-level tables are wired: fetch straight from
            # memory and cache the block.
            slots[_SECOND_LEVEL_MEMORY_ACCESS] += 1
            cycles += cache.fill(second_vaddr, _KERNEL, True, False, True)[1]

        # Fetch the first-level PTE block and install it.
        cycles += cache.fill(pte_vaddr, _KERNEL, True, False, True)[1]
        return TranslationResult(pte, cycles, False, second_hit,
                                 not second_hit)
