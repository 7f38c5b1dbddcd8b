"""Unit tests for machine configurations."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import KB, MB
from repro.machine.config import (
    MachineConfig,
    TABLE_2_1,
    paper_config,
    scaled_config,
)


class TestPaperConfig:
    def test_matches_table_2_1(self):
        config = paper_config(memory_mb=8)
        assert config.cache.size_bytes == 128 * KB
        assert config.cache.block_bytes == 32
        assert config.page_bytes == 4 * KB
        assert config.memory_bytes == 8 * MB

    def test_memory_points(self):
        for mb in (5, 6, 8):
            assert paper_config(mb).memory_bytes == mb * MB

    def test_overrides(self):
        config = paper_config(8, dirty_policy="FAULT")
        assert config.dirty_policy == "FAULT"

    def test_table_2_1_data_complete(self):
        labels = {label for label, _ in TABLE_2_1}
        for needed in ("Cache Size", "Block Size", "Page Size",
                       "Processor cycle time"):
            assert needed in labels


class TestScaledConfig:
    def test_preserves_geometry_ratios(self):
        paper = paper_config(8)
        scaled = scaled_config(memory_ratio=64, scale=8)
        paper_blocks_per_page = paper.page_bytes // 32
        scaled_blocks_per_page = scaled.page_bytes // 32
        assert paper_blocks_per_page == 8 * scaled_blocks_per_page
        # Pages per cache and memory-to-cache ratio are preserved.
        assert (
            paper.cache.size_bytes // paper.page_bytes
            == scaled.cache.size_bytes // scaled.page_bytes
        )
        assert (
            paper.memory_bytes // paper.cache.size_bytes
            == scaled.memory_bytes // scaled.cache.size_bytes
        )

    def test_memory_in_pages_is_scale_invariant(self):
        paper = paper_config(5)
        scaled = scaled_config(memory_ratio=40, scale=8)
        assert paper.num_frames == scaled.num_frames

    def test_flush_cost_scale_follows_scale(self):
        assert scaled_config(scale=8).flush_cost_scale == 8
        assert paper_config().flush_cost_scale == 1

    def test_zero_fill_cost_is_scale_invariant(self):
        assert (
            paper_config().zero_fill_cycles
            == scaled_config(scale=8).zero_fill_cycles
        )

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            scaled_config(scale=0)


class TestValidation:
    def test_page_smaller_than_block_rejected(self):
        from repro.common.params import CacheGeometry
        with pytest.raises(ConfigurationError):
            MachineConfig(
                cache=CacheGeometry(1024, 32), page_bytes=16,
                memory_bytes=1024,
            )

    def test_fractional_pages_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(page_bytes=4096, memory_bytes=4096 + 1)

    def test_memory_below_one_page_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(page_bytes=4096, memory_bytes=2048,
                          wired_frames=0)

    def test_num_frames(self):
        assert paper_config(memory_mb=8).num_frames == 2048
        assert MachineConfig(page_bytes=4096,
                             memory_bytes=3 * 4096,
                             wired_frames=1).num_frames == 3

    def test_all_wired_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(page_bytes=4096, memory_bytes=2 * 4096,
                          wired_frames=2)

    def test_poll_refs_any_positive_interval(self):
        # The chunked loop computes poll boundaries arithmetically, so
        # any positive interval is valid (not just powers of two).
        MachineConfig(daemon_poll_refs=0)       # disabled is fine
        MachineConfig(daemon_poll_refs=1000)    # non-power-of-two too
        MachineConfig(daemon_poll_refs=1024)
        with pytest.raises(ConfigurationError):
            MachineConfig(daemon_poll_refs=-1)


class TestDerivedConfigs:
    def test_with_memory(self):
        base = scaled_config(memory_ratio=40)
        bigger = base.with_memory(base.memory_bytes * 2)
        assert bigger.memory_bytes == 2 * base.memory_bytes
        assert bigger.cache == base.cache

    def test_with_policies(self):
        base = scaled_config()
        changed = base.with_policies(dirty="FAULT", reference="NOREF")
        assert changed.dirty_policy == "FAULT"
        assert changed.reference_policy == "NOREF"
        assert base.with_policies() is base
