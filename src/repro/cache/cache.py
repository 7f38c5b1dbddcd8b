"""The direct-mapped virtual-address cache.

Per-line tag state lives in flat parallel columns
(:class:`repro.cache.columns.ColumnStore`: ``array('q')`` for tags and
block numbers, ``bytearray`` for flags) rather than line objects,
because the simulator touches these fields on every simulated
reference; the columns are aliased as public attributes so the
machine's reference loop can read them without a method call.  All
*mutations* other than the ones the machine's hot paths perform (the
reference loop's inlined block installs, which replay ``fill_fast``'s
exact column sequence, and the single-field block-dirty, page-dirty,
and protection refreshes) go through methods on this class, which keep
the columns mutually consistent.  The columns are allocated once and
only mutated in place, never rebound: the reference loop and the
sanitizer both alias the buffers.

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
# ``array('q')`` indexed by these constants).  ``fill_fast`` records
# its stats/counter/bus increments here instead of touching the live
# dicts per event; ``SpurMachine._flush_tally`` applies them once per
# ``run_chunks`` call.  The simulator extends this block with its own
# event slots, so its numbering starts at ``TALLY_CACHE_SLOTS``.
TALLY_FILLS = 0
TALLY_EVICTIONS = 1
TALLY_WRITE_BACKS = 2
TALLY_BUS = 3
TALLY_CACHE_SLOTS = 4

_UNOWNED = CoherencyState.UNOWNED
_OWNED_EXCLUSIVE = CoherencyState.OWNED_EXCLUSIVE


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
        self.tag_shift = geometry.block_bits + geometry.index_bits
        self.block_transfer_cycles = timing.block_transfer_cycles(
            geometry.words_per_block
        )

        # Flat per-line tag columns (hot path reads these directly).
        # The aliases below share the store's buffers; every element
        # write through either name lands in the same memory.
        self.columns = ColumnStore(num_lines)
        self.valid = self.columns.valid
        self.tags = self.columns.tags
        self.line_vaddr = self.columns.line_vaddr  # block-aligned fill address
        self.prot = self.columns.prot
        self.page_dirty = self.columns.page_dirty
        self.block_dirty = self.columns.block_dirty
        self.filled_by_read = self.columns.filled_by_read
        self.holds_pte = self.columns.holds_pte
        # Resident block number per line (``line_vaddr >> block_bits``)
        # or -1 when invalid.  Folding valid+tag into one slot lets the
        # chunked hot loop decide a hit with a single compare: block
        # numbers are non-negative, so -1 can never match a probe.
        self.line_block = self.columns.line_block
        # Berkeley Ownership state stays a list of enum members —
        # inspection, policies, and tests rely on identity/properties
        # — so it is not part of the flat column store.
        self.state = [CoherencyState.INVALID] * num_lines
        # Precomputed ``vaddr -> block-aligned address`` mask.
        self.block_offset_mask = ~((1 << self.block_bits) - 1)

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

    def tag_of(self, vaddr):
        """Virtual-address tag for a virtual address."""
        return vaddr >> self.tag_shift

    def probe(self, vaddr):
        """Return the line index if ``vaddr`` hits, else ``-1``.

        A probe is side-effect free (no LRU state exists in a
        direct-mapped cache).
        """
        index = (vaddr >> self.block_bits) & self.index_mask
        if self.valid[index] and self.tags[index] == (
            vaddr >> self.tag_shift
        ):
            return index
        return -1

    def view(self, index):
        """A read-only snapshot of one line, for tests and tools."""
        return CacheLineView(
            index=index,
            valid=self.valid[index],
            vaddr=self.line_vaddr[index],
            protection=Protection(self.prot[index]),
            page_dirty=self.page_dirty[index],
            block_dirty=self.block_dirty[index],
            state=self.state[index],
            filled_by_read=self.filled_by_read[index],
            holds_pte=self.holds_pte[index],
        )

    def resident_lines(self):
        """Indices of all valid lines."""
        return [i for i in range(self.num_lines) if self.valid[i]]

    # -- fills and evictions ----------------------------------------------

    def fill(self, vaddr, protection, page_dirty, by_write,
             holds_pte=False):
        """Bring the block containing ``vaddr`` into its frame.

        Evicts the previous occupant (writing it back if it is owned
        dirty data) and installs the new block with protection and
        page-dirty state copied from the PTE — the copy operation whose
        staleness the whole paper is about.

        Returns ``(line index, cycles)`` where cycles covers the block
        fetch and any write-back.
        """
        index = (vaddr >> self.block_bits) & self.index_mask
        cycles = 0
        if self.valid[index]:
            cycles += self._evict(index)

        self.valid[index] = True
        self.tags[index] = vaddr >> self.tag_shift
        self.line_vaddr[index] = vaddr & ~(
            (1 << self.block_bits) - 1
        )
        self.line_block[index] = vaddr >> self.block_bits
        self.prot[index] = int(protection)
        self.page_dirty[index] = page_dirty
        self.block_dirty[index] = by_write
        self.filled_by_read[index] = not by_write
        self.holds_pte[index] = holds_pte
        if by_write:
            self.state[index] = BerkeleyOwnership.on_write_fill()
            self._broadcast(BusOp.READ_OWNED, vaddr)
        else:
            self.state[index] = BerkeleyOwnership.on_read_fill(False)
            self._broadcast(BusOp.READ, vaddr)
        cycles += self.block_transfer_cycles
        self.stats["fills"] += 1
        return index, cycles

    def fill_fast(self, vaddr, protection, page_dirty, by_write,
                  holds_pte, tally):
        """Hot-path twin of :meth:`fill` with deferred bookkeeping.

        Performs the identical column mutations (fused evict +
        install) but records stats, counter, and solo-bus increments
        in ``tally`` (``TALLY_*`` slots) instead of touching the live
        dicts per event; the owning machine flushes the tally once per
        ``run_chunks`` call, which is arithmetically exact because
        counter increments are modular sums.  Bus transactions are
        broadcast live whenever a peer cache could snoop them (the
        write-back/read-owned/read ops then reach other caches in the
        same order the slow path would produce); on a private bus the
        transaction is tallied instead.

        Returns cycles only (the caller already knows the index).
        """
        index = (vaddr >> self.block_bits) & self.index_mask
        transfer = self.block_transfer_cycles
        cycles = 0
        bus = self.bus
        live_bus = self.has_peers
        if self.valid[index]:
            if self.block_dirty[index]:
                cycles += transfer
                tally[TALLY_WRITE_BACKS] += 1
                if live_bus:
                    bus.broadcast(self, BusOp.WRITE_BACK,
                                  self.line_vaddr[index])
                elif bus is not None:
                    tally[TALLY_BUS] += 1
            tally[TALLY_EVICTIONS] += 1

        self.valid[index] = 1
        self.tags[index] = vaddr >> self.tag_shift
        self.line_vaddr[index] = vaddr & self.block_offset_mask
        self.line_block[index] = vaddr >> self.block_bits
        self.prot[index] = protection
        self.page_dirty[index] = page_dirty
        self.block_dirty[index] = by_write
        self.filled_by_read[index] = not by_write
        self.holds_pte[index] = holds_pte
        if by_write:
            self.state[index] = _OWNED_EXCLUSIVE
            bus_op = BusOp.READ_OWNED
        else:
            self.state[index] = _UNOWNED
            bus_op = BusOp.READ
        if live_bus:
            bus.broadcast(self, bus_op, vaddr)
        elif bus is not None:
            tally[TALLY_BUS] += 1
        cycles += transfer
        tally[TALLY_FILLS] += 1
        return cycles

    def _evict(self, index):
        """Vacate one line, returning write-back cycles (0 if clean)."""
        cycles = 0
        if self.block_dirty[index] or self.state[index].is_owned:
            if self.block_dirty[index]:
                cycles += self.block_transfer_cycles
                self.stats["write_backs"] += 1
                if self.counters is not None:
                    self.counters.increment(Event.WRITE_BACK)
                self._broadcast(BusOp.WRITE_BACK, self.line_vaddr[index])
        self.valid[index] = False
        self.line_block[index] = -1
        self.state[index] = CoherencyState.INVALID
        self.block_dirty[index] = False
        self.stats["evictions"] += 1
        return cycles

    def invalidate(self, index, write_back=True):
        """Invalidate one line.

        Returns write-back cycles (0 if the line was clean or
        ``write_back`` is False, as when a snoop transfers ownership).
        """
        if not self.valid[index]:
            return 0
        cycles = 0
        if write_back and self.block_dirty[index]:
            cycles += self.block_transfer_cycles
            self.stats["write_backs"] += 1
            if self.counters is not None:
                self.counters.increment(Event.WRITE_BACK)
        self.valid[index] = False
        self.line_block[index] = -1
        self.state[index] = CoherencyState.INVALID
        self.block_dirty[index] = False
        self.stats["invalidations"] += 1
        return cycles

    def clear(self):
        """Invalidate every line without write-backs (power-on state)."""
        for index in range(self.num_lines):
            self.valid[index] = False
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
            self._broadcast(bus_op, self.line_vaddr[index])
            return True
        return False

    def acquire_ownership_fast(self, index, tally):
        """Hot-path twin of :meth:`acquire_ownership`.

        Identical state transitions (the two common ones — already
        exclusive, and the unowned upgrade — are inlined; the rest go
        through the protocol logic); the bus transaction follows the
        :meth:`fill_fast` rule — broadcast live whenever a peer cache
        could snoop it, tallied (``TALLY_BUS``) on a private bus.
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
            self.bus.broadcast(self, bus_op, self.line_vaddr[index])
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
        return [
            (first + offset) & self.index_mask
            for offset in range(blocks_per_page)
        ]

    def lines_of_page(self, page_vaddr, page_bytes):
        """Indices of valid lines actually holding blocks of the page."""
        limit = page_vaddr + page_bytes
        return [
            index
            for index in self.page_line_range(page_vaddr, page_bytes)
            if self.valid[index]
            and page_vaddr <= self.line_vaddr[index] < limit
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
        resident = sum(self.valid)
        return (
            f"VirtualCache({self.name!r}, "
            f"{self.geometry.size_bytes} bytes, "
            f"{resident}/{self.num_lines} lines valid)"
        )
