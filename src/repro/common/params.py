"""Structured parameter records for machine geometry and timing.

The paper's Table 2.1 fixes the prototype's geometry (128 KB
direct-mapped cache, 32-byte blocks, 4 KB pages) and memory timing
(3 cycles to the first word, 1 to each subsequent word).  The
reproduction keeps every such constant in one validated record so that
scaled configurations (see DESIGN.md section 2) change geometry in one
place and all derived shifts/masks follow.
"""

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.units import KB, MB, is_power_of_two, log2_exact

#: Word size of the SPUR processor, in bytes.
WORD_BYTES = 4


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of the direct-mapped virtual-address cache.

    Attributes
    ----------
    size_bytes:
        Total cache capacity.  The prototype's was 128 KB.
    block_bytes:
        Cache block (line) size.  The prototype's was 32 bytes.
    """

    size_bytes: int = 128 * KB
    block_bytes: int = 32

    def __post_init__(self):
        if not is_power_of_two(self.size_bytes):
            raise ConfigurationError(
                f"cache size {self.size_bytes} must be a power of two"
            )
        if not is_power_of_two(self.block_bytes):
            raise ConfigurationError(
                f"block size {self.block_bytes} must be a power of two"
            )
        if self.block_bytes < WORD_BYTES:
            raise ConfigurationError(
                f"block size {self.block_bytes} smaller than one word"
            )
        if self.size_bytes < self.block_bytes:
            raise ConfigurationError(
                "cache smaller than one block"
            )

    @property
    def num_lines(self):
        """Number of block frames (lines) in the cache."""
        return self.size_bytes // self.block_bytes

    @property
    def block_bits(self):
        """Number of block-offset bits in an address."""
        return log2_exact(self.block_bytes)

    @property
    def index_bits(self):
        """Number of line-index bits in an address."""
        return log2_exact(self.num_lines)

    @property
    def words_per_block(self):
        return self.block_bytes // WORD_BYTES

    def line_index(self, vaddr):
        """Direct-mapped line index for a virtual address."""
        return (vaddr >> self.block_bits) & (self.num_lines - 1)

    def tag(self, vaddr):
        """Virtual-address tag stored with a line."""
        return vaddr >> (self.block_bits + self.index_bits)

    def block_address(self, vaddr):
        """Block-aligned address containing ``vaddr``."""
        return vaddr & ~(self.block_bytes - 1)


@dataclass(frozen=True)
class PageGeometry:
    """Virtual-memory page geometry.

    The prototype used 4 KB pages; scaled configurations shrink the
    page (and memory) while preserving the ratios the paper's results
    depend on.
    """

    page_bytes: int = 4 * KB
    block_bytes: int = 32

    def __post_init__(self):
        if not is_power_of_two(self.page_bytes):
            raise ConfigurationError(
                f"page size {self.page_bytes} must be a power of two"
            )
        if self.page_bytes < self.block_bytes:
            raise ConfigurationError("page smaller than one cache block")

    @property
    def page_bits(self):
        return log2_exact(self.page_bytes)

    @property
    def blocks_per_page(self):
        return self.page_bytes // self.block_bytes

    def page_number(self, vaddr):
        """Virtual page number containing ``vaddr``."""
        return vaddr >> self.page_bits

    def page_address(self, page_number):
        """Base virtual address of a page number."""
        return page_number << self.page_bits

    def offset(self, vaddr):
        """Byte offset of ``vaddr`` within its page."""
        return vaddr & (self.page_bytes - 1)


@dataclass(frozen=True)
class MemoryGeometry:
    """Physical memory size expressed in page frames."""

    size_bytes: int = 8 * MB
    page_bytes: int = 4 * KB

    def __post_init__(self):
        if self.size_bytes < self.page_bytes:
            raise ConfigurationError("memory smaller than one page")
        if self.size_bytes % self.page_bytes:
            raise ConfigurationError(
                "memory size must be a whole number of pages"
            )

    @property
    def num_frames(self):
        return self.size_bytes // self.page_bytes


@dataclass(frozen=True)
class MemoryTiming:
    """Main-memory and bus timing from Table 2.1, in processor cycles.

    A block fetch costs ``first_word + (words - 1) * next_word`` memory
    cycles plus a fixed bus-arbitration overhead.  The prototype's
    backplane ran at 125 ns against a 150 ns processor cycle; we fold
    that ratio into the cycle counts rather than simulating two clock
    domains, which is well within the fidelity the paper's analysis
    needs.
    """

    first_word_cycles: int = 3
    next_word_cycles: int = 1
    bus_arbitration_cycles: int = 2

    def block_transfer_cycles(self, words_per_block):
        """Cycles to move one block between memory and the cache."""
        if words_per_block < 1:
            raise ConfigurationError("block must contain at least one word")
        return (
            self.bus_arbitration_cycles
            + self.first_word_cycles
            + (words_per_block - 1) * self.next_word_cycles
        )


@dataclass(frozen=True)
class FaultTiming:
    """Software-visible fault and handler costs, in processor cycles.

    The four headline parameters are Table 3.2 of the paper:

    ====================  =====  ==========================================
    ``dirty_fault``        1000  handler sets a dirty bit (``t_ds``)
    ``page_flush``          500  tag-checked flush of one page (``t_flush``)
    ``dirty_bit_miss``       25  refresh a stale cached dirty bit (``t_dm``)
    ``dirty_check``           5  check the PTE dirty bit on a write hit
                                 (``t_dc``, WRITE policy only)
    ====================  =====  ==========================================

    The remaining parameters are needed by the closed-loop simulation
    but not by the paper's analytic models: ``reference_fault`` is the
    fault that sets a reference bit (same handler path as a dirty
    fault), ``page_fault_service`` is the CPU cost of servicing a page
    fault excluding disk latency, and ``page_io`` is the effective
    per-page disk transfer cost.
    """

    dirty_fault: int = 1000
    page_flush: int = 500
    dirty_bit_miss: int = 25
    dirty_check: int = 5
    reference_fault: int = 1000
    page_fault_service: int = 2000
    page_io: int = 120_000
    daemon_page_scan: int = 30

    def __post_init__(self):
        for name in (
            "dirty_fault",
            "page_flush",
            "dirty_bit_miss",
            "dirty_check",
            "reference_fault",
            "page_fault_service",
            "page_io",
            "daemon_page_scan",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
