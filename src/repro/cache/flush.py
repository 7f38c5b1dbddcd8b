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


class _PageFlush:
    """The shared flush: one pass of
    :meth:`~repro.cache.cache.VirtualCache.drop_page`, priced at
    ``line_cycles`` per frame examined plus ``dirty_cycles`` and the
    write-back transfer per dirty block dropped."""

    #: Whether blocks of *other* pages in the page's frames go too.
    foreign = False

    def flush_page(self, cache, page_vaddr, page_bytes):
        """Flush the page from ``cache``; returns a :class:`FlushResult`."""
        checked, flushed, foreign, write_backs = cache.drop_page(
            page_vaddr, page_bytes, self.foreign
        )
        return FlushResult(checked, flushed, foreign, write_backs,
                           self.cycles(cache, checked, write_backs))

    def cycles(self, cache, lines_checked, write_backs):
        """The price of examining ``lines_checked`` frames of
        ``cache`` and dropping ``write_backs`` dirty blocks."""
        return lines_checked * self.line_cycles + write_backs * (
            self.dirty_cycles + cache.block_transfer_cycles
        )


class TagCheckedFlush(_PageFlush):
    """Flush only the blocks whose tags match the target page.

    Cost model (per the paper's estimate): ``loop_cycles`` for each
    frame examined, ``check_cycles`` per frame whose block is absent or
    clean, ``flush_cycles`` per dirty block flushed.  Every frame costs
    its loop overhead plus a check; a dirty block costs a flush instead
    of the check, plus its write-back transfer (dirty data must reach
    memory before, e.g., a page-out reads the frame; the transfer
    rides the bus).
    """

    name = "tag-checked"

    def __init__(self, loop_cycles=2, check_cycles=1, flush_cycles=10):
        self.loop_cycles = loop_cycles
        self.check_cycles = check_cycles
        self.flush_cycles = flush_cycles
        self.line_cycles = loop_cycles + check_cycles
        self.dirty_cycles = flush_cycles - check_cycles


class TaglessFlush(_PageFlush):
    """SPUR's real flush: vacate every frame the page maps to.

    Blocks from unrelated pages resident in those frames are evicted
    too (and written back if dirty), which is why the paper prices
    this mechanism at roughly four times the tag-checked one.
    """

    name = "tagless"
    foreign = True
    dirty_cycles = 0

    def __init__(self, op_cycles=12):
        # The paper prices the 128-operation tagless flush near 2000
        # cycles with a fifth of the blocks written back; that implies
        # roughly twelve cycles of issue/latency per flush operation.
        self.op_cycles = op_cycles
        self.line_cycles = op_cycles
