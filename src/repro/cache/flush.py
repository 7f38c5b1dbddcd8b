"""Page-flush strategies.

Flushing a page from the cache is the key primitive behind both the
FLUSH dirty-bit alternative and the REF (true reference bit) policy.
The paper discusses two implementations:

* :class:`TaglessFlush` — what the SPUR hardware actually provides: a
  flush operation that vacates a single cache *frame* regardless of
  its address tag.  Flushing a page means issuing one flush per frame
  the page could occupy, evicting innocent blocks from other pages
  that happen to share those frames (the paper prices this near 2000
  cycles).
* :class:`TagCheckedFlush` — the improved operation the paper assumes
  for a fair comparison: check each candidate frame's tag and flush
  only blocks that really belong to the page (two instructions of loop
  overhead per frame, one cycle to check a non-matching or clean
  block, ten to flush a dirty one — about 500 cycles per page).
"""

from typing import NamedTuple


class FlushResult(NamedTuple):
    """Outcome of flushing one page from one cache."""

    lines_checked: int
    blocks_flushed: int      # valid blocks removed from the cache
    foreign_blocks_flushed: int  # removed blocks from *other* pages
    write_backs: int
    cycles: int


class TagCheckedFlush:
    """Flush only the blocks whose tags match the target page.

    Cost model (per the paper's estimate): ``loop_cycles`` for each
    frame examined, ``check_cycles`` per frame whose block is absent or
    clean, ``flush_cycles`` per dirty block flushed.
    """

    name = "tag-checked"

    def __init__(self, loop_cycles=2, check_cycles=1, flush_cycles=10):
        self.loop_cycles = loop_cycles
        self.check_cycles = check_cycles
        self.flush_cycles = flush_cycles

    def flush_page(self, cache, page_vaddr, page_bytes):
        """Remove every block of the page from ``cache``.

        A frame holds a block of the page when its resident block
        number lies in the page's block range.  Every frame costs its
        loop overhead plus a check; a dirty block costs a flush
        instead of the check, plus its write-back transfer, so the
        cycles follow from the frame and write-back counts.
        """
        line_block = cache.line_block
        block_dirty = cache.block_dirty
        invalidate = cache.invalidate
        first_block = page_vaddr >> cache.block_bits
        last_block = (page_vaddr + page_bytes) >> cache.block_bits
        flushed = 0
        write_backs = 0
        frames = cache.page_line_range(page_vaddr, page_bytes)
        for index in frames:
            if first_block <= line_block[index] < last_block:
                # Dirty data must reach memory before, e.g., a
                # page-out reads the frame; the write-back transfer
                # itself rides the bus.
                write_backs += block_dirty[index]
                invalidate(index, write_back=False)
                flushed += 1
        checked = len(frames)
        return FlushResult(
            lines_checked=checked,
            blocks_flushed=flushed,
            foreign_blocks_flushed=0,
            write_backs=write_backs,
            cycles=checked * (self.loop_cycles + self.check_cycles)
            + write_backs * (self.flush_cycles - self.check_cycles
                             + cache.block_transfer_cycles),
        )


class TaglessFlush:
    """SPUR's real flush: vacate every frame the page maps to.

    Blocks from unrelated pages resident in those frames are evicted
    too (and written back if dirty), which is why the paper prices
    this mechanism at roughly four times the tag-checked one.
    """

    name = "tagless"

    def __init__(self, op_cycles=12):
        # The paper prices the 128-operation tagless flush near 2000
        # cycles with a fifth of the blocks written back; that implies
        # roughly twelve cycles of issue/latency per flush operation.
        self.op_cycles = op_cycles

    def flush_page(self, cache, page_vaddr, page_bytes):
        """Vacate all frames in the page's index range."""
        first_block = page_vaddr >> cache.block_bits
        last_block = (page_vaddr + page_bytes) >> cache.block_bits
        cycles = 0
        flushed = 0
        foreign = 0
        write_backs = 0
        frames = cache.page_line_range(page_vaddr, page_bytes)
        for index in frames:
            cycles += self.op_cycles
            block = cache.line_block[index]
            if block < 0:
                continue
            in_page = first_block <= block < last_block
            if cache.block_dirty[index]:
                write_backs += 1
                cycles += cache.block_transfer_cycles
            cache.invalidate(index, write_back=False)
            flushed += 1
            if not in_page:
                foreign += 1
        return FlushResult(
            lines_checked=len(frames),
            blocks_flushed=flushed,
            foreign_blocks_flushed=foreign,
            write_backs=write_backs,
            cycles=cycles,
        )
