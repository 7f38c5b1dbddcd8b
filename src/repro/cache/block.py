"""Cache line (block frame) tag format, as drawn in Figure 3.2(b).

The tag word carries the virtual-address tag plus:

* ``PR`` — two protection bits, copied from the PTE at fill time,
* ``P``  — a copy of the *page* dirty bit (SPUR's extra bit; the one
  the paper concludes was not worth its 14 PLA product terms),
* ``B``  — the *block* dirty bit (has this block been modified while
  cached — ordinary write-back state),
* ``CS`` — two bits of Berkeley Ownership coherency state.

The hot simulation path keeps these fields in parallel arrays inside
:class:`repro.cache.cache.VirtualCache`; :class:`CacheLineView` is the
readable per-line facade used by tests, examples, and the Figure 3.2
renderer.
"""

from typing import NamedTuple

from repro.cache.coherence import CoherencyState
from repro.common.bitfields import BitField, BitLayout
from repro.common.types import Protection

#: Hardware layout of one cache tag word (Figure 3.2b).  Twenty-five
#: bits of virtual-address tag is enough for a 32-bit virtual space
#: with the prototype's 128 KB cache; scaled configurations use fewer
#: tag bits and leave the rest zero.
CACHE_TAG_LAYOUT = BitLayout(
    "SPUR Cache Tag",
    32,
    [
        BitField("CS", 0, 2, "Coherency State (2 Bits)"),
        BitField("B", 2, 1, "Block Dirty Bit"),
        BitField("P", 3, 1, "Page Dirty Bit"),
        BitField("PR", 4, 2, "Protection (2 bits)"),
        BitField("V", 6, 1, "Valid Bit"),
        BitField("TAG", 7, 25, "Virtual Address Tag"),
    ],
)


class CacheLineView(NamedTuple):
    """A read-only snapshot of one cache line's tag state."""

    index: int
    valid: bool
    vaddr: int
    protection: Protection
    page_dirty: bool
    block_dirty: bool
    state: CoherencyState
    holds_pte: bool

    @property
    def filled_by_read(self):
        """Whether the block entered on a read and no write has
        reached it since.  Not a tag bit: a write fill and a clean
        block's first write hit both set block-dirty, and only an
        invalidation clears it, so a valid line is read-filled
        exactly when it is clean."""
        return self.valid and not self.block_dirty

    def pack_tag(self, tag_value):
        """Pack this line's state into the hardware tag word."""
        return CACHE_TAG_LAYOUT.pack(
            CS=int(self.state),
            B=int(self.block_dirty),
            P=int(self.page_dirty),
            PR=int(self.protection),
            V=int(self.valid),
            TAG=tag_value,
        )
