"""Two-level page tables in SPUR's global virtual address space.

The first-level page table is a linear array of 4-byte PTEs living in
a dedicated region of the *global virtual* space, so the PTE for
virtual page ``vpn`` sits at ``pte_base + 4 * vpn`` — the address the
cache controller forms with its shift-and-concatenate circuit.  The
first-level table is itself paged; the second-level PTEs that map it
are *wired down* at well-known addresses, which is what lets the
controller fetch them straight from memory when they miss in the cache.

The reproduction keeps PTEs as Python objects keyed by virtual page
number (memory is the home location; the cache holds copies for cost
accounting), and exposes the address arithmetic the translation engine
and the cache-conflict behaviour depend on.
"""

from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import AddressError, ConfigurationError
from repro.common.units import is_power_of_two, log2_exact
from repro.translation.pte import PageTableEntry

#: Size of one packed PTE in bytes (one 32-bit word).
PTE_BYTES = 4


@dataclass(frozen=True)
class PageTableLayout:
    """Where the page tables live in the global virtual space.

    Attributes
    ----------
    page_bytes:
        Virtual-memory page size.
    pte_base:
        Base global virtual address of the linear first-level table.
    second_level_base:
        Base global virtual address of the wired second-level table.
    user_limit:
        Exclusive upper bound of ordinary (non-page-table) addresses;
        workload generators must stay below it.  It may not exceed
        ``pte_base``: a data block would otherwise alias a first-level
        PTE block in the cache.
    """

    page_bytes: int = 4096
    pte_base: int = 0x8000_0000
    second_level_base: int = 0xC000_0000
    user_limit: int = 0x8000_0000

    def __post_init__(self):
        if not is_power_of_two(self.page_bytes):
            raise ConfigurationError("page size must be a power of two")
        if self.pte_base % self.page_bytes:
            raise ConfigurationError("pte_base must be page aligned")
        if self.second_level_base % self.page_bytes:
            raise ConfigurationError(
                "second_level_base must be page aligned"
            )
        if self.user_limit > self.pte_base:
            raise ConfigurationError(
                "user range would overlap the first-level page table"
            )
        first_level_span = (self.user_limit // self.page_bytes) * PTE_BYTES
        if self.pte_base + first_level_span > self.second_level_base:
            raise ConfigurationError(
                "first-level table would overlap the second-level table"
            )

    @cached_property
    def page_bits(self):
        return log2_exact(self.page_bytes)

    def pte_vaddr(self, vpn):
        """Global virtual address of the first-level PTE for ``vpn``.

        This is the shift-and-concatenate computation done in hardware
        on every cache miss.
        """
        return self.pte_base + vpn * PTE_BYTES

    def second_level_pte_vaddr(self, pte_vaddr):
        """Global virtual address of the second-level PTE mapping a
        first-level page-table page."""
        table_vpn = pte_vaddr >> self.page_bits
        return self.second_level_base + table_vpn * PTE_BYTES

    def is_page_table_address(self, vaddr):
        """True if ``vaddr`` falls in either page-table region."""
        return vaddr >= self.pte_base

    def vpn_of(self, vaddr):
        """Virtual page number of an ordinary address."""
        if vaddr >= self.user_limit:
            raise AddressError(
                f"{vaddr:#x} is not an ordinary user/global address"
            )
        return vaddr >> self.page_bits


#: Shared invalid PTE returned by :meth:`PageTable.lookup` for unmapped
#: pages.  Read-only by convention.
_INVALID_SENTINEL = PageTableEntry()


class PageTable:
    """The global page table: virtual page number -> PTE.

    Entries are created lazily on first :meth:`map`; :meth:`lookup`
    of an unmapped page returns an invalid sentinel PTE rather than
    ``None`` so hot-path callers can test ``pte.valid`` without a
    branch on missingness.
    """

    def __init__(self, layout=None):
        self.layout = layout or PageTableLayout()
        self._entries = {}
        #: Bound ``dict.get``: the PTE for a vpn or ``None``, with no
        #: entry creation and no call overhead beyond the dict lookup.
        #: The batched miss resolver probes this before committing to
        #: its fast path (``None`` → the scalar miss path owns
        #: creation).
        self.peek = self._entries.get

    def __len__(self):
        return len(self._entries)

    def __contains__(self, vpn):
        return vpn in self._entries

    def entry(self, vpn):
        """Return the PTE for ``vpn``, creating an invalid one if new."""
        pte = self._entries.get(vpn)
        if pte is None:
            pte = PageTableEntry()
            self._entries[vpn] = pte
        return pte

    def lookup(self, vpn):
        """Return the PTE for ``vpn`` or an invalid shared sentinel.

        The sentinel must not be mutated; callers that intend to write
        use :meth:`entry`.
        """
        return self._entries.get(vpn, _INVALID_SENTINEL)

    def resident_vpns(self):
        """Virtual page numbers with valid mappings."""
        return [vpn for vpn, pte in self._entries.items() if pte.valid]

    def items(self):
        """Iterate ``(vpn, PTE)`` pairs, mapped or not."""
        return self._entries.items()
