"""The direct-mapped virtual-address cache.

Per-line tag state lives in flat parallel columns
(:class:`repro.cache.columns.ColumnStore`: a list of resident block
numbers, the only tag, and ``bytearray`` flags) rather than line
objects, because the simulator touches these fields on every
simulated reference; the columns are aliased as public attributes so
the machine's reference loop can read them without a method call.  All
*mutations* other than the ones the machine's hot paths perform (the
reference loop's inlined block installs, which replay :meth:`fill`'s
column sequence, and the single-field block-dirty, page-dirty, and
protection refreshes) go through methods on this class, which keep the
columns mutually consistent.  The columns are allocated once and
only mutated in place, never rebound: the reference loop and the
sanitizer both alias them.

Addresses are *global virtual* addresses throughout: SPUR's OS-level
synonym prevention guarantees one global address per datum, so the
cache never needs physical tags.
"""

from repro.cache.block import CacheLineView
from repro.cache.coherence import BerkeleyOwnership, CoherencyState
from repro.cache.columns import ColumnStore
from repro.common.types import Protection
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event

_UNOWNED = CoherencyState.UNOWNED
_OWNED_EXCLUSIVE = CoherencyState.OWNED_EXCLUSIVE
_INVALID = CoherencyState.INVALID
_WRITE_BACK = int(Event.WRITE_BACK)
_BUS_TRANSACTION = int(Event.BUS_TRANSACTION)
#: Above every block number (addresses are at most 64 bits).
_NO_BLOCK = 1 << 64


class VirtualCache:
    """A direct-mapped, write-back, virtually addressed unified cache.

    Parameters
    ----------
    geometry:
        :class:`repro.common.params.CacheGeometry`.
    timing:
        :class:`repro.common.params.MemoryTiming` used to price block
        transfers.
    name:
        Identifier used in diagnostics.
    counters:
        The :class:`~repro.counters.counters.PerformanceCounters`
        bank fills and write-backs count into: the owning machine
        passes its own; a bare cache builds one.
    """

    def __init__(self, geometry, timing, name="cache0", counters=None):
        self.geometry = geometry
        self.timing = timing
        self.name = name
        self.counters = (
            PerformanceCounters() if counters is None else counters
        )

        num_lines = geometry.num_lines
        self.num_lines = num_lines
        self.block_bits = geometry.block_bits
        self.index_mask = num_lines - 1
        self.block_transfer_cycles = timing.block_transfer_cycles(
            geometry.words_per_block
        )

        # Flat per-line tag columns (hot path reads these directly).
        # The aliases below share the store's buffers; every element
        # write through either name lands in the same memory.
        self.columns = ColumnStore(num_lines)
        # Resident block number per line or -1 when invalid: the
        # valid bit, the tag and the fill address in one slot, so a
        # hit is a single compare (block numbers are non-negative, so
        # -1 never matches a probe).
        self.line_block = self.columns.line_block
        self.prot = self.columns.prot
        self.page_dirty = self.columns.page_dirty
        self.block_dirty = self.columns.block_dirty
        self.holds_pte = self.columns.holds_pte
        # Berkeley Ownership state stays a list of enum members —
        # inspection, policies, and tests rely on identity/properties
        # — so it is not part of the flat column store.
        self.state = [CoherencyState.INVALID] * num_lines

    # -- lookup ----------------------------------------------------------

    def line_index(self, vaddr):
        """Direct-mapped frame index for a virtual address."""
        return (vaddr >> self.block_bits) & self.index_mask

    def probe(self, vaddr):
        """Return the line index if ``vaddr`` hits, else ``-1``.

        A probe is side-effect free (no LRU state exists in a
        direct-mapped cache).
        """
        block = vaddr >> self.block_bits
        index = block & self.index_mask
        if self.line_block[index] == block:
            return index
        return -1

    def line_address(self, index):
        """Block-aligned address of the block resident in line
        ``index`` (negative when the line is invalid)."""
        return self.line_block[index] << self.block_bits

    def view(self, index):
        """A read-only snapshot of one line, for tests and tools."""
        block = self.line_block[index]
        return CacheLineView(
            index=index,
            valid=block >= 0,
            vaddr=max(block, 0) << self.block_bits,
            protection=Protection(self.prot[index]),
            page_dirty=self.page_dirty[index],
            block_dirty=self.block_dirty[index],
            state=self.state[index],
            holds_pte=self.holds_pte[index],
        )

    def resident_lines(self):
        """Indices of all valid lines."""
        return [i for i, block in enumerate(self.line_block)
                if block >= 0]

    # -- fills and evictions ----------------------------------------------

    def fill(self, vaddr, protection, page_dirty, by_write,
             holds_pte=False):
        """Bring the block containing ``vaddr`` into its frame.

        Evicts the previous occupant (writing it back if it is owned
        dirty data) and installs the new block with protection and
        page-dirty state copied from the PTE — the copy operation whose
        staleness the whole paper is about.  Berkeley Ownership loads
        a write miss's block owned exclusive and a read miss's
        unowned.  The fetch is one bus transaction and a write-back
        another; both count into the cache's counter bank.

        Returns ``(line index, cycles)`` where cycles covers the block
        fetch and any write-back.
        """
        block = vaddr >> self.block_bits
        index = block & self.index_mask
        slots = self.counters.slots
        cycles = self.block_transfer_cycles
        if self.block_dirty[index]:
            cycles += self.block_transfer_cycles
            slots[_WRITE_BACK] += 1
            slots[_BUS_TRANSACTION] += 1

        self.line_block[index] = block
        self.prot[index] = protection
        self.page_dirty[index] = page_dirty
        self.block_dirty[index] = by_write
        self.holds_pte[index] = holds_pte
        self.state[index] = _OWNED_EXCLUSIVE if by_write else _UNOWNED
        slots[_BUS_TRANSACTION] += 1
        return index, cycles

    def invalidate(self, index, write_back=True):
        """Invalidate one line.

        Returns write-back cycles (0 if the line was clean or
        ``write_back`` is False, as when a dead process's page is
        dropped).
        """
        if self.line_block[index] < 0:
            return 0
        cycles = 0
        if write_back and self.block_dirty[index]:
            cycles += self.block_transfer_cycles
            self.counters.slots[_WRITE_BACK] += 1
        self.line_block[index] = -1
        self.state[index] = _INVALID
        self.block_dirty[index] = False
        return cycles

    def clear(self):
        """Invalidate every line without write-backs (power-on state)."""
        for index in range(self.num_lines):
            self.line_block[index] = -1
            self.state[index] = CoherencyState.INVALID
            self.block_dirty[index] = False

    # -- write-hit coherency ------------------------------------------------

    def acquire_ownership(self, index):
        """Apply Berkeley Ownership's write-hit transition to a line.

        An UNOWNED block becomes OWNED_EXCLUSIVE, which takes one bus
        transaction; an OWNED_EXCLUSIVE block needs none.  Returns
        True when the transaction was required: the caller counts it
        as ``Event.BUS_TRANSACTION``.
        """
        state = self.state[index]
        if state is _OWNED_EXCLUSIVE:
            return False
        self.state[index] = BerkeleyOwnership.on_write_hit(state)
        return True

    # -- page-granularity helpers ---------------------------------------------

    def page_line_range(self, page_vaddr, page_bytes):
        """Line indices where blocks of the given page can reside.

        In a direct-mapped cache a page's blocks occupy a contiguous
        run of ``page_bytes / block_bytes`` frames (wrapping if the
        page is larger than the cache).
        """
        blocks_per_page = page_bytes >> self.block_bits
        if blocks_per_page >= self.num_lines:
            return range(self.num_lines)
        first = (page_vaddr >> self.block_bits) & self.index_mask
        if first + blocks_per_page <= self.num_lines:
            return range(first, first + blocks_per_page)
        return [
            (first + offset) & self.index_mask
            for offset in range(blocks_per_page)
        ]

    def drop_page(self, page_vaddr, page_bytes, foreign=False):
        """Invalidate, without write-back, every line of the page's
        line range that holds one of its blocks — or, with
        ``foreign``, any block at all: the loop behind both flush
        strategies (:mod:`repro.cache.flush`), which price the result.

        Returns ``(lines checked, blocks dropped, foreign blocks
        dropped, dirty blocks dropped)``.
        """
        line_block = self.line_block
        block_dirty = self.block_dirty
        state = self.state
        first_block = page_vaddr >> self.block_bits
        last_block = (page_vaddr + page_bytes) >> self.block_bits
        first = first_block & self.index_mask
        count = last_block - first_block
        if first + count <= self.num_lines:
            lines = range(first, first + count)
        else:  # the page's frames wrap, or it spans the whole cache
            lines = self.page_line_range(page_vaddr, page_bytes)
        # The resident block numbers a line must hold to be dropped.
        low, high = (0, _NO_BLOCK) if foreign else (first_block, last_block)
        own = dropped = dirty = 0
        for index in lines:
            if low <= line_block[index] < high:
                own += first_block <= line_block[index] < last_block
                dirty += block_dirty[index]
                line_block[index] = -1
                state[index] = _INVALID
                block_dirty[index] = 0
                dropped += 1
        return len(lines), dropped, dropped - own, dirty

    def lines_of_page(self, page_vaddr, page_bytes):
        """Indices of valid lines actually holding blocks of the page."""
        first_block = page_vaddr >> self.block_bits
        last_block = (page_vaddr + page_bytes) >> self.block_bits
        line_block = self.line_block
        return [
            index
            for index in self.page_line_range(page_vaddr, page_bytes)
            if first_block <= line_block[index] < last_block
        ]

    def __repr__(self):
        resident = len(self.resident_lines())
        return (
            f"VirtualCache({self.name!r}, "
            f"{self.geometry.size_bytes} bytes, "
            f"{resident}/{self.num_lines} lines valid)"
        )
