"""Unit tests for geometry and timing parameter records."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import (
    CacheGeometry,
    FaultTiming,
    MemoryTiming,
    PageGeometry,
)
from repro.common.units import KB


class TestCacheGeometry:
    def test_prototype_defaults(self):
        geometry = CacheGeometry()
        assert geometry.size_bytes == 128 * KB
        assert geometry.block_bytes == 32
        assert geometry.num_lines == 4096
        assert geometry.words_per_block == 8

    def test_address_arithmetic(self):
        geometry = CacheGeometry(size_bytes=1024, block_bytes=32)
        # 32 lines; address 0x45 -> block 2, index 2.
        assert geometry.line_index(0x45) == 2
        assert geometry.block_address(0x45) == 0x40
        # Addresses one cache-size apart share an index but not a tag.
        assert geometry.line_index(0x45 + 1024) == 2
        assert geometry.tag(0x45 + 1024) == geometry.tag(0x45) + 1

    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(size_bytes=1000)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(block_bytes=24)

    def test_rejects_block_smaller_than_word(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(block_bytes=2)

    def test_rejects_cache_smaller_than_block(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(size_bytes=16, block_bytes=32)


class TestPageGeometry:
    def test_prototype_defaults(self):
        geometry = PageGeometry()
        assert geometry.page_bytes == 4 * KB
        assert geometry.blocks_per_page == 128

    def test_page_number_and_offset(self):
        geometry = PageGeometry(page_bytes=256, block_bytes=32)
        assert geometry.page_number(0x305) == 3
        assert geometry.offset(0x305) == 5
        assert geometry.page_address(3) == 0x300

    def test_rejects_page_smaller_than_block(self):
        with pytest.raises(ConfigurationError):
            PageGeometry(page_bytes=16, block_bytes=32)


class TestMemoryTiming:
    def test_block_transfer_matches_table_2_1(self):
        # 3 cycles to first word, 1 per next: 8-word block = 10 memory
        # cycles plus arbitration.
        timing = MemoryTiming()
        assert timing.block_transfer_cycles(8) == (
            timing.bus_arbitration_cycles + 3 + 7
        )

    def test_single_word_block(self):
        timing = MemoryTiming()
        assert timing.block_transfer_cycles(1) == (
            timing.bus_arbitration_cycles + 3
        )

    def test_rejects_empty_block(self):
        with pytest.raises(ConfigurationError):
            MemoryTiming().block_transfer_cycles(0)


class TestFaultTiming:
    def test_table_3_2_defaults(self):
        timing = FaultTiming()
        assert timing.dirty_fault == 1000
        assert timing.page_flush == 500
        assert timing.dirty_bit_miss == 25
        assert timing.dirty_check == 5

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            FaultTiming(dirty_fault=-1)
