"""The SPUR machine: cache + translation + VM + policies + counters.

Every simulated memory reference passes through one scalar loop,
:meth:`SpurMachine._run_refs`, which :meth:`SpurMachine.run_chunks`
drives over poll-free segments of flat reference chunks.  The loop
reads the cache's flat tag columns directly (they are public for
exactly this purpose), resolves hits and every miss inline — one miss
sequence, as in SPUR's cache controller — and derives its bookkeeping
from a few counts per segment.  It calls out only for the events a
miss or write hit can raise: page faults (walked by the translator and
serviced by the VM), reference- and dirty-bit work, first-touch page
records, and dirty-bit work on write hits; protection faults raise.
:meth:`SpurMachine.run` only chunks hand-written ``(kind, vaddr)``
tuples for it.  The frozen scalar oracle in ``tests/oracle.py`` and
the absolute goldens pin the engine's results.

Cycle model (Table 2.1, Section 3.2):

* cache hit — 1 cycle;
* cache miss — 1 cycle plus translation (3 cycles if the PTE is
  cached, block fetches otherwise) plus the block transfer;
* dirty/reference faults, flushes, page faults, paging I/O — charged
  by the policy and VM code via :class:`repro.common.params.
  FaultTiming`.
"""

import sys
from array import array

from repro.common.errors import ProtectionFault
from repro.common.types import Protection
from repro.common.units import SPUR_CYCLE_TIME_SECONDS
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event
from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.cache.flush import TagCheckedFlush, TaglessFlush
from repro.machine.cpu import ReferenceMix
from repro.policies.dirty import make_dirty_policy
from repro.policies.reference import make_reference_policy
from repro.translation.incache import InCacheTranslator
from repro.translation.pagetable import PTE_BYTES, PageTable, PageTableLayout
from repro.vm.swap import SwapDevice
from repro.vm.system import VirtualMemorySystem
from repro.workloads.base import chunk_accesses

_RW = int(Protection.READ_WRITE)
_PROT_KERNEL = int(Protection.KERNEL)
_UNOWNED = CoherencyState.UNOWNED
_OWNED_EXCLUSIVE = CoherencyState.OWNED_EXCLUSIVE
_BUS_TRANSACTION = int(Event.BUS_TRANSACTION)
_FLUSH_OPERATION = int(Event.FLUSH_OPERATION)
_FLUSH_WRITE_BACK = int(Event.FLUSH_WRITE_BACK)
_WRITE_HIT_CLEAN_BLOCK = int(Event.WRITE_HIT_CLEAN_BLOCK)
_WRITE_TO_READ_FILLED_BLOCK = int(Event.WRITE_TO_READ_FILLED_BLOCK)

# Slots in the chunked loop's deferred tally.  ``_run_refs`` and
# ``_resolve_write_hit`` fold their counts into these slots and
# ``_flush_tally`` turns them into counter events and cache stats, one
# ``increment(event, n)`` per event, which is exact because counter
# arithmetic is modular addition and nothing samples the counter bank
# mid-call.  Events that follow from the slots (PTE-cache and
# second-level hits, second-level lookups) are derived there.
_T_BUS = 0                # fills, write-backs, ownership upgrades
_T_IFETCH_MISS = 1
_T_READ_MISS = 2
_T_WRITE_MISS = 3
_T_WALKS = 4              # inline PTE walks
_T_PTE_MISS = 5           # ... whose first level missed
_T_SECOND_MISS = 6        # ... and second level too
_T_FILLS = 7              # data-block fills
_T_WRITE_FILLS = 8        # ... by a write miss
_T_INSTALLS = 9           # data and PTE block installs
_T_EVICTIONS = 10
_T_WRITE_BACKS = 11
_T_WRITE_HIT_CLEAN = 12
_T_WRITE_READ_FILLED = 13
_TALLY_SLOTS = 14
_TALLY_ZEROS = (0,) * _TALLY_SLOTS

# Offset of a kind's low-order byte in its 8-byte ``array('q')``
# element (native byte order).  Kinds are 0, 1 or 2, so counting 0 and
# 2 bytes over every eighth byte tallies a chunk at C speed.
_KIND_BYTE = 0 if sys.byteorder == "little" else 7


def _make_flusher(strategy, cost_scale=1):
    if strategy == "tag-checked":
        return TagCheckedFlush(
            loop_cycles=2 * cost_scale,
            check_cycles=1 * cost_scale,
            flush_cycles=10 * cost_scale,
        )
    if strategy == "tagless":
        return TaglessFlush(op_cycles=12 * cost_scale)
    raise ValueError(f"unknown flush strategy {strategy!r}")


class SpurMachine:
    """One SPUR processor board plus memory, swap, and Sprite VM.

    Parameters
    ----------
    config:
        :class:`repro.machine.config.MachineConfig`.
    space_map:
        The workload's :class:`repro.vm.segments.AddressSpaceMap`.
    counters:
        Optional pre-built counter bank (defaults to the omniscient
        mode; pass a moded bank to reproduce the hardware's
        sixteen-at-a-time limitation).
    name:
        Identifier for diagnostics (defaults to the config's name).
    """

    def __init__(self, config, space_map, counters=None, name=None):
        self.config = config
        self.name = name or config.name
        self.counters = counters or PerformanceCounters()
        self.fault_timing = config.fault_timing
        self.page_bytes = config.page_bytes
        self.page_bits = config.page_geometry.page_bits
        self.zero_fill_cycles = config.zero_fill_cycles

        self.cache = VirtualCache(
            config.cache, config.memory_timing, name=f"{self.name}.cache"
        )
        self.cache.counters = self.counters
        self.flusher = _make_flusher(
            config.flush_strategy, config.flush_cost_scale
        )

        self.page_table = PageTable(PageTableLayout(
            page_bytes=config.page_bytes,
            pte_base=config.pte_base,
            second_level_base=config.second_level_base,
            user_limit=config.user_limit,
        ))
        self.translator = InCacheTranslator(
            self.page_table, self.cache, counters=self.counters
        )

        self.swap = SwapDevice(io_cycles=config.fault_timing.page_io)
        self.vm = VirtualMemorySystem(
            self.page_table,
            space_map,
            self.swap,
            num_frames=config.num_frames,
            wired_frames=config.wired_frames,
            low_water=config.low_water,
            high_water=config.high_water,
        )
        self.vm.attach_machine(self)

        self.dirty_policy = make_dirty_policy(config.dirty_policy)
        self.reference_policy = make_reference_policy(
            config.reference_policy
        )
        #: The protection a freshly mapped page gets, indexed by its
        #: region's writability (the VM's fault path reads it).
        self.map_protections = (
            self.dirty_policy.map_protection(False),
            self.dirty_policy.map_protection(True),
        )

        self.cycles = 0
        self.references = 0
        self.reference_mix = ReferenceMix()

        # Reference-loop prebinds: structural constants of the page
        # table layout and translator timing (both frozen), plus bound
        # dict lookups for side-effect-free PTE / page-record probes.
        # The dicts themselves are created once and never rebound.
        layout = self.page_table.layout
        self._pte_base = layout.pte_base
        self._second_level_base = layout.second_level_base
        self._pte_peek = self.page_table.peek
        self._page_peek = self.vm.pages.get
        self._pte_check_cycles = self.translator.timing.pte_check_cycles
        self._second_check_cycles = (
            self.translator.timing.second_level_check_cycles
        )
        #: Static policy traits (the policy objects are stateless and
        #: never swapped after construction).
        self._maintains_bits = self.reference_policy.maintains_bits
        self._dirty_tracks_pte = self.dirty_policy.cached_dirty_tracks_pte

    # -- page flushes ------------------------------------------------------

    def flush_page(self, page_vaddr):
        """Flush one page from the cache.

        This is the primitive behind the FLUSH dirty-bit alternative,
        the REF policy's flush-on-clear, and page eviction.  Returns
        total cycles.
        """
        flusher = self.flusher
        cache = self.cache
        checked, _, _, write_backs = cache.drop_page(
            page_vaddr, self.page_bytes, flusher.foreign
        )
        slots = self.counters.slots
        slots[_FLUSH_OPERATION] += checked
        slots[_FLUSH_WRITE_BACK] += write_backs
        return flusher.cycles(cache, checked, write_backs)

    # -- the reference loops --------------------------------------------

    def run(self, accesses):
        """Simulate ``(kind, vaddr)`` references: the input convenience
        for hand-written traces, chunked and fed to :meth:`run_chunks`.
        Returns the number of references processed.
        """
        return self.run_chunks(chunk_accesses(accesses))

    def run_chunks(self, chunks):
        """Simulate a stream of flat reference chunks.

        ``chunks`` yields ``array('q')`` buffers of interleaved
        ``kind, vaddr`` pairs (see
        :meth:`repro.workloads.base.WorkloadInstance.access_chunks`).
        Bit-identical for any chunking of the same references: each
        chunk is cut into poll-free segments (computed arithmetically, so any positive
        ``daemon_poll_refs`` works) and every segment goes through
        :meth:`_run_refs`.  Kind tallies count one byte per kind
        (each kind's low-order byte; C speed, no per-element
        boxing), the per-reference cycle charge is folded into one
        addition per call, and miss-path bookkeeping is deferred into
        a per-call tally flushed by :meth:`_flush_tally`.  Returns the
        number of references processed.
        """
        run_refs = self._run_refs
        interval = self.config.daemon_poll_refs
        poll = self.vm.daemon.poll if interval else None
        tally = array("q", _TALLY_ZEROS)

        cycles = 0
        extra = 0
        ifetches = 0
        writes = 0
        processed = 0
        try:
            for chunk in chunks:
                pairs = len(chunk) >> 1
                if not pairs:
                    continue
                kinds = chunk[0::2].tobytes()[_KIND_BYTE::8]
                ifetches += kinds.count(0)
                writes += kinds.count(2)
                start = 0
                while start < pairs:
                    if poll is None:
                        stop = pairs
                    else:
                        # References left before the next poll
                        # boundary: the schedule polls before
                        # handling every ``interval``-th reference of
                        # the call, so ``processed % interval ==
                        # interval - 1`` means the next reference
                        # polls first.
                        stop = start + interval - 1 - (
                            processed % interval
                        )
                        if stop > pairs:
                            stop = pairs
                    if stop > start:
                        extra += run_refs(chunk, start, stop, tally)
                        processed += stop - start
                        start = stop
                    if start < pairs:
                        # The next reference lands on the poll
                        # boundary: poll first, then process it as a
                        # one-reference segment.
                        cycles += poll()
                        extra += run_refs(chunk, start, start + 1, tally)
                        processed += 1
                        start += 1
        finally:
            # Deferred bookkeeping must land even when a slow path
            # raises (protection faults propagate to the caller with
            # the same counter state the scalar oracle leaves).
            self._flush_tally(tally)

        # Deferred accounting: every reference costs its base cycle
        # (hence ``+ processed``); the reference loop added the rest
        # to ``extra``, polls to ``cycles``.
        self.cycles += cycles + extra + processed
        self.references += processed
        mix = ReferenceMix(ifetches, processed - ifetches - writes, writes)
        mix.flush_to_counters(self.counters)
        self.reference_mix.add(mix.ifetches, mix.reads, mix.writes)
        return processed

    def _run_refs(self, chunk, start, end, tally):
        """The per-reference engine over the poll-free segment
        ``chunk[start:end)`` (pair indices).

        Hits cost nothing beyond the base cycle.  A write hit whose
        dirty state is unsettled goes to :meth:`_resolve_write_hit`.
        Every miss runs the cache controller's one miss sequence
        inline, as SPUR's hardware does with the PTE in hand:

        1. walk the in-cache page table as plain arithmetic against the
           ``line_block`` column, installing the first-level PTE block
           (and, when that misses too, the second-level one) — except
           when the PTE is absent or invalid: that miss is a page
           fault, walked by :meth:`InCacheTranslator.translate
           <repro.translation.incache.InCacheTranslator.translate>`
           and serviced by the VM;
        2. run the reference policy's miss hook on a clear reference
           bit;
        3. on a write, fetch the page record (created on first touch),
           raise :class:`ProtectionFault` for a read-only region, and
           run the dirty policy's write-miss hook unless it is settled
           (:meth:`~repro.policies.dirty.DirtyBitPolicy.
           write_miss_settled`);
        4. install the data block, replaying :meth:`~repro.cache.cache.
           VirtualCache.fill`'s column sequence (this method is a
           sanctioned tag-array writer).

        The loop keeps only counts that cannot be derived: misses per
        kind, page faults, first- and second-level PTE misses,
        write-backs and installs into invalid lines.  The block
        transfers, checks, fills, evictions, bus transactions and walk
        outcomes follow from them once per segment (see
        :meth:`_flush_tally`), including when a miss raises.  Returns
        the segment's cycles beyond the base charge.
        """
        cache = self.cache
        line_block = cache.line_block
        prot = cache.prot
        page_dirty = cache.page_dirty
        block_dirty = cache.block_dirty
        filled_by_read = cache.filled_by_read
        holds_pte = cache.holds_pte
        state = cache.state
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        page_bits = self.page_bits
        pte_base = self._pte_base
        second_base = self._second_level_base
        pte_peek = self._pte_peek
        page_peek = self._page_peek
        maintains_bits = self._maintains_bits
        tracks_pte = self._dirty_tracks_pte
        dirty_policy = self.dirty_policy
        reference_policy = self.reference_policy
        write_hit = self._resolve_write_hit
        translate = self.translator.translate
        page_fault = self.vm.handle_page_fault
        page_record = self.vm.page

        ifetch_misses = 0
        read_misses = 0
        write_misses = 0
        faults = 0
        pte_misses = 0
        second_misses = 0
        write_backs = 0
        empties = 0
        extra = 0
        unfilled = 0
        unfilled_writes = 0
        it = iter(chunk[start << 1:end << 1])
        try:
            for kind, vaddr in zip(it, it):
                block = vaddr >> block_bits
                index = block & index_mask
                if line_block[index] == block:
                    if kind != 2:
                        continue
                    if (
                        block_dirty[index]
                        and page_dirty[index]
                        and prot[index] == _RW
                    ):
                        continue
                    extra += write_hit(index, vaddr, tally)
                    continue

                if kind == 2:
                    write_misses += 1
                elif kind:
                    read_misses += 1
                else:
                    ifetch_misses += 1
                vpn = vaddr >> page_bits
                pte = pte_peek(vpn)
                if pte is None or not pte.valid:
                    # A page fault: the translator walks (counting
                    # live) and creates the PTE, the VM maps the page.
                    faults += 1
                    result = translate(vaddr)
                    pte = result.pte
                    extra += result.cycles + page_fault(vpn)
                else:
                    pte_vaddr = pte_base + vpn * PTE_BYTES
                    pblock = pte_vaddr >> block_bits
                    pindex = pblock & index_mask
                    if line_block[pindex] != pblock:
                        pte_misses += 1
                        second_vaddr = second_base + (
                            pte_vaddr >> page_bits
                        ) * PTE_BYTES
                        sblock = second_vaddr >> block_bits
                        sindex = sblock & index_mask
                        if line_block[sindex] != sblock:
                            # Wired second-level PTE from memory.
                            second_misses += 1
                            if block_dirty[sindex]:
                                write_backs += 1
                            elif line_block[sindex] < 0:
                                empties += 1
                            line_block[sindex] = sblock
                            prot[sindex] = _PROT_KERNEL
                            page_dirty[sindex] = 1
                            block_dirty[sindex] = 0
                            filled_by_read[sindex] = 1
                            holds_pte[sindex] = 1
                            state[sindex] = _UNOWNED
                        if block_dirty[pindex]:
                            write_backs += 1
                        elif line_block[pindex] < 0:
                            empties += 1
                        line_block[pindex] = pblock
                        prot[pindex] = _PROT_KERNEL
                        page_dirty[pindex] = 1
                        block_dirty[pindex] = 0
                        filled_by_read[pindex] = 1
                        holds_pte[pindex] = 1
                        state[pindex] = _UNOWNED
                if not pte.referenced and maintains_bits:
                    extra += reference_policy.on_cache_miss(self, pte)
                if kind == 2:
                    page = page_peek(vpn)
                    if page is None:
                        page = page_record(vpn)
                    if not page.writable:
                        raise ProtectionFault(
                            vaddr, "write to read-only region"
                        )
                    if not dirty_policy.write_miss_settled(pte):
                        extra += dirty_policy.on_write_miss(
                            self, pte, page
                        )

                # Data-block install.  fill_page_dirty is
                # pte.is_modified() (spelled out below) exactly when
                # the policy declares cached_dirty_tracks_pte (the
                # WRITE policy is the one unconditional-True
                # exception).
                if block_dirty[index]:
                    write_backs += 1
                elif line_block[index] < 0:
                    empties += 1
                line_block[index] = block
                prot[index] = pte.protection
                page_dirty[index] = (
                    (pte.dirty or pte.software_dirty) if tracks_pte
                    else True
                )
                holds_pte[index] = 0
                if kind == 2:
                    block_dirty[index] = 1
                    filled_by_read[index] = 0
                    state[index] = _OWNED_EXCLUSIVE
                else:
                    block_dirty[index] = 0
                    filled_by_read[index] = 1
                    state[index] = _UNOWNED
        except BaseException:
            # A miss that raised (a protection fault, an unmapped
            # address) installed no data block: its walk and kind
            # count stand, its fill does not.  The block cannot have
            # arrived another way — data and page-table addresses
            # never share a block — so a resident block means the
            # exception came from a write hit instead.
            if line_block[index] != block:
                unfilled = 1
                unfilled_writes = kind == 2
            raise
        finally:
            misses = ifetch_misses + read_misses + write_misses
            tally[_T_IFETCH_MISS] += ifetch_misses
            tally[_T_READ_MISS] += read_misses
            tally[_T_WRITE_MISS] += write_misses
            tally[_T_WALKS] += misses - faults
            tally[_T_PTE_MISS] += pte_misses
            tally[_T_SECOND_MISS] += second_misses
            tally[_T_WRITE_BACKS] += write_backs
            fills = misses - unfilled
            tally[_T_FILLS] += fills
            tally[_T_WRITE_FILLS] += write_misses - unfilled_writes
            installs = fills + pte_misses + second_misses
            tally[_T_INSTALLS] += installs
            tally[_T_EVICTIONS] += installs - empties
            tally[_T_BUS] += installs + write_backs
        return (
            extra
            + (misses - faults) * self._pte_check_cycles
            + pte_misses * self._second_check_cycles
            + (installs + write_backs) * cache.block_transfer_cycles
        )

    def _resolve_write_hit(self, index, vaddr, tally):
        """Inline write-hit resolver in front of :meth:`_slow_write_hit`.

        Commits only when the hit is provably free of policy work: the
        PTE and page record already exist (so no first-touch creation),
        the region is writable, and the dirty policy's write-hit hook
        is a zero-cycle no-op
        (:meth:`~repro.policies.dirty.DirtyBitPolicy.
        write_hit_settled`).  Everything else — protection faults,
        dirty-bit faults, cached-copy refreshes, page flushes —
        delegates to the scalar :meth:`_slow_write_hit` *before* any
        state or tally is touched.

        The commit path mirrors the scalar bookkeeping exactly: the
        clean-block and read-filled-block counters are deferred into
        tally slots, the block-dirty bit is set, and the Berkeley
        write-hit transition of :meth:`~repro.cache.cache.VirtualCache.
        acquire_ownership` is applied inline, its bus transaction
        tallied (the settled handler cannot have moved the block, so
        no re-probe is needed).  The slow path's
        region-writable recheck is covered by the predicate's
        contract — settled implies the write cannot protection-fault —
        so only the record-existence peeks remain.  Returns cycles
        (always 0: a settled write hit is free).
        """
        cache = self.cache
        if not self.dirty_policy.write_hit_settled(cache, index):
            return self._slow_write_hit(index, vaddr)
        vpn = vaddr >> self.page_bits
        if self._pte_peek(vpn) is None or self._page_peek(vpn) is None:
            return self._slow_write_hit(index, vaddr)
        if not cache.block_dirty[index]:
            tally[_T_WRITE_HIT_CLEAN] += 1
            if cache.filled_by_read[index]:
                tally[_T_WRITE_READ_FILLED] += 1
                cache.filled_by_read[index] = 0
            cache.block_dirty[index] = 1
        # acquire_ownership, inlined: a line the one board hits is
        # UNOWNED or OWNED_EXCLUSIVE (the sanitizer's
        # cache.no-shared-owner), and only UNOWNED takes a transaction.
        if cache.state[index] is _UNOWNED:
            cache.state[index] = _OWNED_EXCLUSIVE
            tally[_T_BUS] += 1
        return 0

    def _flush_tally(self, tally):
        """Apply one chunk run's deferred tallies to the live books.

        Exact regardless of where the run stopped: counter increments
        are modular sums, stats are plain sums, and nothing samples
        the books mid-call (the observer and sanitizer both cut
        between calls).  A walk's PTE-cache hit is a walk without a
        PTE miss, a second-level lookup is a PTE miss, and its hit is
        a PTE miss without a second-level miss.
        """
        stats = self.cache.stats
        stats["fills"] += tally[_T_INSTALLS]
        stats["evictions"] += tally[_T_EVICTIONS]
        write_backs = tally[_T_WRITE_BACKS]
        stats["write_backs"] += write_backs
        # Zero counts are skipped: an increment by 0 would still make
        # the event appear in the counter snapshot.
        counters = self.counters
        count = tally[_T_BUS]
        if count:
            counters.increment(Event.BUS_TRANSACTION, count)
        if write_backs:
            counters.increment(Event.WRITE_BACK, write_backs)
        count = tally[_T_IFETCH_MISS]
        if count:
            counters.increment(Event.IFETCH_MISS, count)
        count = tally[_T_READ_MISS]
        if count:
            counters.increment(Event.READ_MISS, count)
        count = tally[_T_WRITE_MISS]
        if count:
            counters.increment(Event.WRITE_MISS, count)
        walks = tally[_T_WALKS]
        pte_misses = tally[_T_PTE_MISS]
        second_misses = tally[_T_SECOND_MISS]
        if walks:
            counters.increment(Event.TRANSLATION, walks)
        if walks > pte_misses:
            counters.increment(Event.PTE_CACHE_HIT, walks - pte_misses)
        if pte_misses:
            counters.increment(Event.PTE_CACHE_MISS, pte_misses)
            counters.increment(Event.SECOND_LEVEL_LOOKUP, pte_misses)
        if pte_misses > second_misses:
            counters.increment(Event.SECOND_LEVEL_CACHE_HIT,
                               pte_misses - second_misses)
        if second_misses:
            counters.increment(Event.SECOND_LEVEL_MEMORY_ACCESS,
                               second_misses)
        count = tally[_T_FILLS]
        if count:
            counters.increment(Event.BLOCK_FILL, count)
        count = tally[_T_WRITE_FILLS]
        if count:
            counters.increment(Event.WRITE_MISS_FILL, count)
        count = tally[_T_WRITE_HIT_CLEAN]
        if count:
            counters.increment(Event.WRITE_HIT_CLEAN_BLOCK, count)
        count = tally[_T_WRITE_READ_FILLED]
        if count:
            counters.increment(Event.WRITE_TO_READ_FILLED_BLOCK, count)

    # -- slow paths ------------------------------------------------------

    def _slow_write_hit(self, index, vaddr):
        """A write hit whose dirty-bit state is not settled."""
        cache = self.cache
        vpn = vaddr >> self.page_bits
        pte = self._pte_peek(vpn) or self.page_table.entry(vpn)
        page = self._page_peek(vpn) or self.vm.page(vpn)
        if not page.writable:
            raise ProtectionFault(vaddr, "write to read-only region")

        slots = self.counters.slots
        if not cache.block_dirty[index]:
            slots[_WRITE_HIT_CLEAN_BLOCK] += 1
        if cache.filled_by_read[index] and not cache.block_dirty[index]:
            # First modification of a block that entered on a read:
            # one of the paper's N_w-hit events (counted per block).
            slots[_WRITE_TO_READ_FILLED_BLOCK] += 1
            cache.filled_by_read[index] = False

        cycles = self.dirty_policy.handle_write_hit(
            self, index, vaddr, pte, page
        )

        # The policy may have flushed and refilled the block (FLUSH);
        # in a direct-mapped cache it can only be back in this line.
        if cache.line_block[index] == vaddr >> cache.block_bits:
            cache.block_dirty[index] = True
            if cache.acquire_ownership(index):
                slots[_BUS_TRANSACTION] += 1
        return cycles

    # -- results -----------------------------------------------------------

    @property
    def elapsed_seconds(self):
        """Simulated wall-clock time at the prototype's cycle time."""
        return self.cycles * SPUR_CYCLE_TIME_SECONDS

    def snapshot(self):
        """Counter snapshot (delta arithmetic supported)."""
        return self.counters.snapshot()

    def observe_state(self):
        """Cumulative ``(references, cycles, counter snapshot)``.

        The sampling hook the observability layer polls at epoch
        boundaries; reads existing state only, never mutates.
        """
        return self.references, self.cycles, self.counters.snapshot()

    def observation_alignment(self):
        """Reference alignment an observer's epochs must respect.

        :meth:`run_chunks` restarts the page-daemon poll schedule
        per call, so an observer that re-segments the stream must cut
        only at multiples of the poll interval to replay the exact
        unobserved schedule.  With polling disabled any boundary works.
        """
        return self.config.daemon_poll_refs or 1

    def __repr__(self):
        return (
            f"SpurMachine({self.name!r}, "
            f"dirty={self.dirty_policy.name}, "
            f"ref={self.reference_policy.name}, "
            f"{self.references} refs, {self.cycles} cycles)"
        )
