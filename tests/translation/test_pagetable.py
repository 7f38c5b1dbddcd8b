"""Unit tests for the two-level page-table structure."""

import pytest

from repro.common.errors import AddressError, ConfigurationError
from repro.translation.pagetable import (
    PTE_BYTES,
    PageTable,
    PageTableLayout,
)


class TestLayoutArithmetic:
    def test_pte_vaddr_is_shift_and_concatenate(self):
        layout = PageTableLayout(page_bytes=4096)
        assert layout.pte_vaddr(0) == layout.pte_base
        assert layout.pte_vaddr(5) == layout.pte_base + 5 * PTE_BYTES

    def test_consecutive_vpns_get_consecutive_ptes(self):
        # Eight PTEs share one 32-byte cache block: spatial locality is
        # the whole point of in-cache translation.
        layout = PageTableLayout(page_bytes=4096)
        assert (
            layout.pte_vaddr(9) - layout.pte_vaddr(8) == PTE_BYTES
        )

    def test_second_level_address(self):
        layout = PageTableLayout(page_bytes=4096)
        pte_vaddr = layout.pte_vaddr(123)
        second = layout.second_level_pte_vaddr(pte_vaddr)
        assert second >= layout.second_level_base
        # PTEs in the same page-table page share a second-level PTE.
        same_page = layout.pte_vaddr(124)
        assert layout.second_level_pte_vaddr(same_page) == second

    def test_page_table_region_detection(self):
        layout = PageTableLayout()
        assert layout.is_page_table_address(layout.pte_base)
        assert not layout.is_page_table_address(0x1000)

    def test_vpn_of_rejects_page_table_addresses(self):
        layout = PageTableLayout()
        with pytest.raises(AddressError):
            layout.vpn_of(layout.pte_base)

    def test_misaligned_bases_rejected(self):
        with pytest.raises(ConfigurationError):
            PageTableLayout(page_bytes=4096, pte_base=0x8000_0001)

    def test_overlapping_tables_rejected(self):
        # First-level table for a full user space at tiny pages would
        # exceed the gap to the second-level base.
        with pytest.raises(ConfigurationError):
            PageTableLayout(
                page_bytes=32,
                pte_base=0x8000_0000,
                second_level_base=0x8000_1000,
                user_limit=0x8000_0000,
            )

    def test_user_range_overlapping_first_level_table_rejected(self):
        # User blocks would alias first-level PTE blocks in the cache
        # and count as page-table addresses.
        with pytest.raises(ConfigurationError, match="first-level"):
            PageTableLayout(
                page_bytes=4096,
                pte_base=0x4000_0000,
                second_level_base=0xC000_0000,
                user_limit=0x8000_0000,
            )

    def test_user_range_may_end_at_the_first_level_table(self):
        layout = PageTableLayout(
            page_bytes=4096,
            pte_base=0x4000_0000,
            second_level_base=0xC000_0000,
            user_limit=0x4000_0000,
        )
        assert not layout.is_page_table_address(layout.user_limit - 1)
        assert layout.page_bits == 12


class TestPageTable:
    def test_lookup_unmapped_returns_invalid_sentinel(self):
        table = PageTable()
        pte = table.lookup(42)
        assert not pte.valid

    def test_lookup_does_not_create_entries(self):
        table = PageTable()
        table.lookup(42)
        assert 42 not in table
        assert len(table) == 0

    def test_entry_creates_lazily(self):
        table = PageTable()
        pte = table.entry(7)
        assert 7 in table
        assert table.entry(7) is pte

    def test_resident_vpns(self):
        table = PageTable()
        table.entry(1)
        table.entry(2).valid = True
        assert table.resident_vpns() == [2]
