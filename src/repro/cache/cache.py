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
from repro.cache.coherence import BerkeleyOwnership, BusOp, CoherencyState
from repro.cache.columns import ColumnStore
from repro.common.types import Protection
from repro.counters.events import Event

# Slots in the chunked hot loop's deferred-bookkeeping tally (an
# ``array('q')`` indexed by these constants).  ``acquire_ownership_fast``
# records its private-bus transactions here instead of touching the
# live books per event; ``SpurMachine._flush_tally`` applies them once
# per ``run_chunks`` call.  The simulator extends this block with its
# own event slots, so its numbering starts at ``TALLY_CACHE_SLOTS``.
TALLY_BUS = 0
TALLY_CACHE_SLOTS = 1

_UNOWNED = CoherencyState.UNOWNED
_OWNED_EXCLUSIVE = CoherencyState.OWNED_EXCLUSIVE
_INVALID = CoherencyState.INVALID
_BUS_READ = BusOp.READ
_BUS_READ_OWNED = BusOp.READ_OWNED
_BUS_WRITE_BACK = BusOp.WRITE_BACK
_WRITE_BACK = int(Event.WRITE_BACK)
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
        Identifier used by the bus and in diagnostics.
    """

    def __init__(self, geometry, timing, name="cache0"):
        self.geometry = geometry
        self.timing = timing
        self.name = name
        self.bus = None  # set when attached to a SnoopyBus
        #: True once another cache shares the bus (maintained by
        #: SnoopyBus.attach); the hot paths key the live-broadcast /
        #: deferred-tally split on this instead of re-counting peers.
        self.has_peers = False
        self.counters = None  # set by the owning SpurMachine

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
        self.filled_by_read = self.columns.filled_by_read
        self.holds_pte = self.columns.holds_pte
        # Berkeley Ownership state stays a list of enum members —
        # inspection, policies, and tests rely on identity/properties
        # — so it is not part of the flat column store.
        self.state = [CoherencyState.INVALID] * num_lines

        self.stats = {
            "fills": 0,
            "evictions": 0,
            "write_backs": 0,
            "invalidations": 0,
        }

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
            filled_by_read=self.filled_by_read[index],
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
        unowned.

        Returns ``(line index, cycles)`` where cycles covers the block
        fetch and any write-back.
        """
        block = vaddr >> self.block_bits
        index = block & self.index_mask
        bus = self.bus
        cycles = self.block_transfer_cycles
        resident = self.line_block[index]
        if resident >= 0:
            if self.block_dirty[index]:
                cycles += self.block_transfer_cycles
                self.stats["write_backs"] += 1
                if self.counters is not None:
                    self.counters.slots[_WRITE_BACK] += 1
                if bus is not None:
                    bus.broadcast(self, _BUS_WRITE_BACK,
                                  resident << self.block_bits)
            self.stats["evictions"] += 1

        self.line_block[index] = block
        self.prot[index] = protection
        self.page_dirty[index] = page_dirty
        self.block_dirty[index] = by_write
        self.filled_by_read[index] = not by_write
        self.holds_pte[index] = holds_pte
        self.state[index] = _OWNED_EXCLUSIVE if by_write else _UNOWNED
        if bus is not None:
            bus.broadcast(self, _BUS_READ_OWNED if by_write else _BUS_READ,
                          vaddr)
        self.stats["fills"] += 1
        return index, cycles

    def invalidate(self, index, write_back=True):
        """Invalidate one line.

        Returns write-back cycles (0 if the line was clean or
        ``write_back`` is False, as when a snoop transfers ownership).
        """
        if self.line_block[index] < 0:
            return 0
        cycles = 0
        if write_back and self.block_dirty[index]:
            cycles += self.block_transfer_cycles
            self.stats["write_backs"] += 1
            if self.counters is not None:
                self.counters.slots[_WRITE_BACK] += 1
        self.line_block[index] = -1
        self.state[index] = _INVALID
        self.block_dirty[index] = False
        self.stats["invalidations"] += 1
        return cycles

    def clear(self):
        """Invalidate every line without write-backs (power-on state)."""
        for index in range(self.num_lines):
            self.line_block[index] = -1
            self.state[index] = CoherencyState.INVALID
            self.block_dirty[index] = False

    # -- write-hit coherency ------------------------------------------------

    def acquire_ownership(self, index):
        """Perform the coherency work for a processor write hit.

        Returns True if a bus transaction was required (write to an
        unowned or shared-owned block).
        """
        next_state, bus_op = BerkeleyOwnership.on_write_hit(
            self.state[index]
        )
        self.state[index] = next_state
        if bus_op is not None:
            self._broadcast(bus_op, self.line_address(index))
            return True
        return False

    def acquire_ownership_fast(self, index, tally):
        """Hot-path twin of :meth:`acquire_ownership`.

        Identical state transitions (the two common ones — already
        exclusive, and the unowned upgrade — are inlined; the rest go
        through the protocol logic).  The bus transaction is broadcast
        live whenever a peer cache could snoop it (so peers see it in
        the order the slow path would produce) and tallied
        (``TALLY_BUS``) on a private bus.
        """
        state = self.state[index]
        if state is _OWNED_EXCLUSIVE:
            return False
        if state is _UNOWNED:
            self.state[index] = _OWNED_EXCLUSIVE
            bus_op = BusOp.WRITE_FOR_OWNERSHIP
        else:
            next_state, bus_op = BerkeleyOwnership.on_write_hit(state)
            self.state[index] = next_state
            if bus_op is None:
                return False
        if self.has_peers:
            self.bus.broadcast(self, bus_op, self.line_address(index))
        elif self.bus is not None:
            tally[TALLY_BUS] += 1
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
        self.stats["invalidations"] += dropped
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

    # -- bus plumbing -------------------------------------------------------

    def _broadcast(self, bus_op, vaddr):
        if self.bus is not None:
            self.bus.broadcast(self, bus_op, vaddr)

    def snoop(self, bus_op, vaddr):
        """React to another cache's bus transaction.

        Returns ``(supplied data, wrote back)`` for bus accounting.
        """
        index = self.probe(vaddr)
        if index < 0:
            return False, False
        next_state, supplies, writes_back = BerkeleyOwnership.on_snoop(
            self.state[index], bus_op
        )
        if next_state is CoherencyState.INVALID:
            # Ownership (and the dirty data) moves over the bus; no
            # memory write-back is needed.
            self.invalidate(index, write_back=False)
        else:
            self.state[index] = next_state
        return supplies, writes_back

    def __repr__(self):
        resident = len(self.resident_lines())
        return (
            f"VirtualCache({self.name!r}, "
            f"{self.geometry.size_bytes} bytes, "
            f"{resident}/{self.num_lines} lines valid)"
        )
