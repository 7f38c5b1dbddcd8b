"""The SPUR machine: cache + translation + VM + policies + counters.

Every simulated memory reference passes through one scalar loop,
:meth:`SpurMachine._run_refs`, which :meth:`SpurMachine.run_chunks`
drives over poll-free segments of flat reference chunks.  The loop
reads the cache's flat tag columns directly (they are public for
exactly this purpose), resolves hits and event-free misses inline with
its bookkeeping in local variables, and falls into method calls only
on the rare paths: write hits needing dirty-bit work, page faults,
first-touch PTE or page creation, protection faults.
:meth:`SpurMachine.run` is the tuple-stream loop (``chunk_refs=0``);
the chunked engine matches it bit for bit.

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
from repro.common.types import AccessKind, Protection
from repro.common.units import SPUR_CYCLE_TIME_SECONDS
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event
from repro.cache.bus import SnoopyBus
from repro.cache.cache import (
    TALLY_BUS,
    TALLY_CACHE_SLOTS,
    TALLY_EVICTIONS,
    TALLY_FILLS,
    TALLY_WRITE_BACKS,
    VirtualCache,
)
from repro.cache.coherence import BusOp, CoherencyState
from repro.cache.flush import TagCheckedFlush, TaglessFlush
from repro.machine.cpu import ReferenceMix
from repro.policies.dirty import make_dirty_policy
from repro.policies.reference import make_reference_policy
from repro.translation.incache import InCacheTranslator
from repro.translation.pagetable import PTE_BYTES, PageTable, PageTableLayout
from repro.vm.swap import SwapDevice
from repro.vm.system import VirtualMemorySystem

_WRITE = int(AccessKind.WRITE)
_RW = int(Protection.READ_WRITE)
_PROT_KERNEL = int(Protection.KERNEL)
_UNOWNED = CoherencyState.UNOWNED
_OWNED_EXCLUSIVE = CoherencyState.OWNED_EXCLUSIVE
_BUS_READ = BusOp.READ
_BUS_READ_OWNED = BusOp.READ_OWNED
_BUS_WRITE_BACK = BusOp.WRITE_BACK
_BUS_FOR_OWNERSHIP = BusOp.WRITE_FOR_OWNERSHIP

# Simulator-side slots in the chunked loop's deferred tally (the cache
# owns slots [0, TALLY_CACHE_SLOTS); see repro.cache.cache).  Each slot
# accumulates one counter event; ``_flush_tally`` applies them in one
# ``increment(event, n)`` per event, which is exact because counter
# arithmetic is modular addition and nothing samples the counter bank
# mid-call.
# Events that are 1:1 with a tallied slot on the fast path are derived
# at flush time instead of paying a per-reference tally op: TRANSLATION
# and BLOCK_FILL equal the kind-miss sum, SECOND_LEVEL_LOOKUP equals
# the PTE-miss count, and WRITE_MISS_FILL equals the write-miss count
# (the fast path commits only after the writability checks).
_T_PTE_HIT = TALLY_CACHE_SLOTS
_T_PTE_MISS = TALLY_CACHE_SLOTS + 1
_T_SECOND_HIT = TALLY_CACHE_SLOTS + 2
_T_SECOND_MEMORY = TALLY_CACHE_SLOTS + 3
_T_IFETCH_MISS = TALLY_CACHE_SLOTS + 4
_T_READ_MISS = TALLY_CACHE_SLOTS + 5
_T_WRITE_MISS = TALLY_CACHE_SLOTS + 6
_T_WRITE_HIT_CLEAN = TALLY_CACHE_SLOTS + 7
_T_WRITE_READ_FILLED = TALLY_CACHE_SLOTS + 8
_TALLY_SLOTS = TALLY_CACHE_SLOTS + 9
_TALLY_ZEROS = (0,) * _TALLY_SLOTS

_TALLY_EVENTS = (
    (_T_PTE_HIT, Event.PTE_CACHE_HIT),
    (_T_PTE_MISS, Event.PTE_CACHE_MISS),
    (_T_SECOND_HIT, Event.SECOND_LEVEL_CACHE_HIT),
    (_T_SECOND_MEMORY, Event.SECOND_LEVEL_MEMORY_ACCESS),
    (_T_IFETCH_MISS, Event.IFETCH_MISS),
    (_T_READ_MISS, Event.READ_MISS),
    (_T_WRITE_MISS, Event.WRITE_MISS),
    (_T_WRITE_HIT_CLEAN, Event.WRITE_HIT_CLEAN_BLOCK),
    (_T_WRITE_READ_FILLED, Event.WRITE_TO_READ_FILLED_BLOCK),
)

# Byte patterns for C-speed kind tallies over a flat chunk's kind
# slice (``array('q')``, so 8 bytes per element, native byte order).
# Kinds are 0/1/2 by protocol, so the only nonzero bytes in the slice
# are aligned kind bytes: a zero element is exactly one aligned 8-zero
# run (maximal runs of 7+8k or 8k zero bytes yield k greedy matches),
# and a WRITE match can only start at an aligned 2-byte.  Both counts
# are therefore exact.
_KIND_ZERO_BYTES = bytes(8)
_KIND_WRITE_BYTES = (2).to_bytes(8, sys.byteorder)


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
    bus:
        Optional shared :class:`SnoopyBus` for multiprocessor setups;
        a private bus is created when omitted.
    """

    def __init__(self, config, space_map, counters=None, bus=None,
                 name=None, page_table=None, vm=None, swap=None):
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
        self.bus = bus or SnoopyBus(name=f"{self.name}.bus",
                                    counters=self.counters)
        self.bus.attach(self.cache)
        self.flusher = _make_flusher(
            config.flush_strategy, config.flush_cost_scale
        )

        # Page table, swap, and VM may be shared across processors of
        # an SmpSystem; a standalone machine builds its own.
        if page_table is None:
            layout = PageTableLayout(
                page_bytes=config.page_bytes,
                pte_base=config.pte_base,
                second_level_base=config.second_level_base,
                user_limit=config.user_limit,
            )
            page_table = PageTable(layout)
        self.page_table = page_table
        self.translator = InCacheTranslator(
            self.page_table, self.cache, counters=self.counters
        )

        self.swap = swap or SwapDevice(
            io_cycles=config.fault_timing.page_io
        )
        if vm is None:
            vm = VirtualMemorySystem(
                self.page_table,
                space_map,
                self.swap,
                num_frames=config.num_frames,
                wired_frames=config.wired_frames,
                low_water=config.low_water,
                high_water=config.high_water,
                daemon_kind=config.daemon_kind,
                inactive_fraction=config.inactive_fraction,
            )
            vm.attach_machine(self)
        self.vm = vm

        self.dirty_policy = make_dirty_policy(config.dirty_policy)
        self.reference_policy = make_reference_policy(
            config.reference_policy
        )

        self.cycles = 0
        self.references = 0
        self.reference_mix = ReferenceMix()
        #: Set by SmpSystem when this processor joins a shared-memory
        #: system; page flushes then cover every cache in the domain.
        self.system = None

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

    # -- coherence-domain operations ---------------------------------------

    def caches(self):
        """All caches page-granularity operations must cover."""
        if self.system is not None:
            return self.system.caches()
        return (self.cache,)

    def flush_page(self, page_vaddr):
        """Flush one page from every cache in the coherence domain.

        This is the primitive behind the FLUSH dirty-bit alternative,
        the REF policy's flush-on-clear, and page eviction.  On a
        multiprocessor it must run on *all* caches — the cost the
        paper cites when arguing the REF policy gets worse with more
        processors.  Returns total cycles.
        """
        cycles = 0
        lines_checked = 0
        write_backs = 0
        for cache in self.caches():
            result = self.flusher.flush_page(
                cache, page_vaddr, self.page_bytes
            )
            lines_checked += result.lines_checked
            write_backs += result.write_backs
            cycles += result.cycles
        self.counters.increment(Event.FLUSH_OPERATION, lines_checked)
        self.counters.increment(Event.FLUSH_WRITE_BACK, write_backs)
        return cycles

    # -- the reference loops --------------------------------------------

    def run(self, accesses):
        """Simulate a stream of ``(kind, vaddr)`` references.

        ``kind`` is an ``int(AccessKind)``; workload generators yield
        plain ints to keep this loop allocation-free.  Returns the
        number of references processed.
        """
        cache = self.cache
        valid = cache.valid
        tags = cache.tags
        block_dirty = cache.block_dirty
        page_dirty = cache.page_dirty
        prot = cache.prot
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        tag_shift = cache.tag_shift
        slow_write_hit = self._slow_write_hit
        miss = self._miss

        interval = self.config.daemon_poll_refs
        poll = self.vm.daemon.poll if interval else None
        # Countdown to the next daemon poll: the schedule polls before
        # every ``interval``-th reference of the call, for any positive
        # interval.  With polling disabled the countdown starts at
        # (float) infinity so the zero test below never fires and the
        # loop stays branch-light.
        until_poll = interval if poll is not None else float("inf")

        cycles = 0
        kind_counts = [0, 0, 0]
        processed = 0
        for kind, vaddr in accesses:
            processed += 1
            until_poll -= 1
            if not until_poll:
                cycles += poll()
                until_poll = interval
            kind_counts[kind] += 1
            index = (vaddr >> block_bits) & index_mask
            if valid[index] and tags[index] == (vaddr >> tag_shift):
                if kind != _WRITE:
                    cycles += 1
                    continue
                if (
                    block_dirty[index]
                    and page_dirty[index]
                    and prot[index] == _RW
                ):
                    cycles += 1
                    continue
                cycles += 1 + slow_write_hit(index, vaddr)
                continue
            cycles += 1 + miss(kind, vaddr)

        self.cycles += cycles
        self.references += processed
        mix = ReferenceMix(
            ifetches=kind_counts[0],
            reads=kind_counts[1],
            writes=kind_counts[2],
        )
        mix.flush_to_counters(self.counters)
        self.reference_mix.add(mix.ifetches, mix.reads, mix.writes)
        return processed

    def run_chunks(self, chunks):
        """Simulate a stream of flat reference chunks.

        ``chunks`` yields ``array('q')`` buffers of interleaved
        ``kind, vaddr`` pairs (see
        :meth:`repro.workloads.base.WorkloadInstance.access_chunks`).
        Bit-identical to feeding the same references through
        :meth:`run`, but several times faster: each chunk is cut into
        poll-free segments (computed arithmetically, so any positive
        ``daemon_poll_refs`` works) and every segment goes through
        :meth:`_run_refs`.  Kind tallies come from byte-pattern counts
        over the chunk's kind slice (memchr speed, no per-element
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
        reads = 0
        writes = 0
        processed = 0
        try:
            for chunk in chunks:
                pairs = len(chunk) >> 1
                if not pairs:
                    continue
                kind_bytes = chunk[0::2].tobytes()
                chunk_ifetches = kind_bytes.count(_KIND_ZERO_BYTES)
                chunk_writes = kind_bytes.count(_KIND_WRITE_BYTES)
                ifetches += chunk_ifetches
                writes += chunk_writes
                reads += pairs - chunk_ifetches - chunk_writes
                start = 0
                while start < pairs:
                    if poll is None:
                        stop = pairs
                    else:
                        # References left before the next poll
                        # boundary: the legacy loop polls before
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
            # the same counter state the legacy loop would leave).
            self._flush_tally(tally)

        # Deferred accounting: every reference costs its base cycle
        # (hence ``+ processed``); the reference loop added the rest
        # to ``extra``, polls to ``cycles``.
        self.cycles += cycles + extra + processed
        self.references += processed
        mix = ReferenceMix(
            ifetches=ifetches, reads=reads, writes=writes
        )
        mix.flush_to_counters(self.counters)
        self.reference_mix.add(mix.ifetches, mix.reads, mix.writes)
        return processed

    def _run_refs(self, chunk, start, end, tally):
        """The per-reference engine over the poll-free segment
        ``chunk[start:end)`` (pair indices).

        Hits cost nothing beyond the base cycle.  A write hit whose
        dirty state is unsettled goes to :meth:`_resolve_write_hit`.
        A miss commits inline when it is provably free of structural
        events: PTE present and valid, and (for writes) page record
        present, region writable, and the dirty policy's write-miss
        hook a no-op (:meth:`~repro.policies.dirty.DirtyBitPolicy.
        write_miss_settled`).  Everything else — page faults,
        dirty-bit work, protection faults, first-touch PTE/page
        creation — goes to the legacy :meth:`_miss` *before* any state
        or count is touched, so those paths stay bit-identical,
        exceptions included.

        The inline miss replays the in-cache PTE walk of
        :class:`~repro.translation.incache.InCacheTranslator` as plain
        arithmetic against the ``line_block`` column, installing PTE
        blocks through :meth:`~repro.cache.cache.VirtualCache.
        fill_fast`.  A clear reference bit does not leave the inline
        path: as in SPUR's MISS scheme the PTE is in hand, so the
        reference policy's miss hook runs right after the walk (the
        same point :meth:`_miss` calls it).  The data block's install
        is ``fill_fast``'s column sequence inlined (this method is a
        sanctioned tag-array writer).  Miss-kind, PTE-walk, eviction,
        write-back, bus and fill counts accumulate in local ints and
        are folded into ``tally`` on exit, including when a slow path
        raises.  Returns extra cycles beyond the base charge.
        """
        cache = self.cache
        line_block = cache.line_block
        valid = cache.valid
        tags = cache.tags
        line_vaddr = cache.line_vaddr
        prot = cache.prot
        page_dirty = cache.page_dirty
        block_dirty = cache.block_dirty
        filled_by_read = cache.filled_by_read
        holds_pte = cache.holds_pte
        state = cache.state
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        tag_shift = cache.tag_shift
        offset_mask = cache.block_offset_mask
        transfer = cache.block_transfer_cycles
        fill_fast = cache.fill_fast
        bus = cache.bus
        live_bus = cache.has_peers
        solo_bus = bus is not None and not live_bus
        page_bits = self.page_bits
        pte_base = self._pte_base
        second_base = self._second_level_base
        pte_check = self._pte_check_cycles
        second_check = self._second_check_cycles
        pte_peek = self._pte_peek
        page_peek = self._page_peek
        maintains_bits = self._maintains_bits
        tracks_pte = self._dirty_tracks_pte
        dirty_policy = self.dirty_policy
        reference_policy = self.reference_policy
        write_hit = self._resolve_write_hit
        miss = self._miss

        ifetch_misses = 0
        read_misses = 0
        write_misses = 0
        pte_hits = 0
        pte_misses = 0
        second_hits = 0
        second_memory = 0
        fills = 0
        evictions = 0
        write_backs = 0
        bus_ops = 0
        extra = 0
        it = iter(chunk[start << 1:end << 1])
        try:
            for kind, vaddr in zip(it, it):
                block = vaddr >> block_bits
                if line_block[block & index_mask] == block:
                    if kind != 2:
                        continue
                    index = block & index_mask
                    if (
                        block_dirty[index]
                        and page_dirty[index]
                        and prot[index] == _RW
                    ):
                        continue
                    extra += write_hit(index, vaddr, tally)
                    continue

                # A miss: every reason to leave the inline path is
                # checked before any state changes.
                index = block & index_mask
                vpn = vaddr >> page_bits
                pte = pte_peek(vpn)
                if pte is None or not pte.valid:
                    extra += miss(kind, vaddr)
                    continue
                if kind == 2:
                    page = page_peek(vpn)
                    if (
                        page is None
                        or not page.region.writable
                        or not dirty_policy.write_miss_settled(pte)
                    ):
                        extra += miss(kind, vaddr)
                        continue
                    write_misses += 1
                elif kind:
                    read_misses += 1
                else:
                    ifetch_misses += 1

                cycles = pte_check
                pte_vaddr = pte_base + vpn * PTE_BYTES
                pblock = pte_vaddr >> block_bits
                if line_block[pblock & index_mask] == pblock:
                    pte_hits += 1
                else:
                    pte_misses += 1
                    cycles += second_check
                    second_vaddr = second_base + (
                        pte_vaddr >> page_bits
                    ) * PTE_BYTES
                    sblock = second_vaddr >> block_bits
                    if line_block[sblock & index_mask] == sblock:
                        second_hits += 1
                    else:
                        second_memory += 1
                        cycles += fill_fast(
                            second_vaddr, _PROT_KERNEL, True, False,
                            True, tally,
                        )
                    cycles += fill_fast(
                        pte_vaddr, _PROT_KERNEL, True, False, True,
                        tally,
                    )
                if not pte.referenced and maintains_bits:
                    cycles += reference_policy.on_cache_miss(self, pte)

                # Data-block install.  fill_page_dirty is
                # pte.is_modified() exactly when the policy declares
                # cached_dirty_tracks_pte (the WRITE policy is the one
                # unconditional-True exception).
                if valid[index]:
                    if block_dirty[index]:
                        cycles += transfer
                        write_backs += 1
                        if live_bus:
                            bus.broadcast(cache, _BUS_WRITE_BACK,
                                          line_vaddr[index])
                        elif solo_bus:
                            bus_ops += 1
                    evictions += 1
                valid[index] = 1
                tags[index] = vaddr >> tag_shift
                line_vaddr[index] = vaddr & offset_mask
                line_block[index] = block
                prot[index] = pte.protection
                page_dirty[index] = (
                    pte.is_modified() if tracks_pte else True
                )
                holds_pte[index] = 0
                if kind == 2:
                    block_dirty[index] = 1
                    filled_by_read[index] = 0
                    state[index] = _OWNED_EXCLUSIVE
                    bus_op = _BUS_READ_OWNED
                else:
                    block_dirty[index] = 0
                    filled_by_read[index] = 1
                    state[index] = _UNOWNED
                    bus_op = _BUS_READ
                if live_bus:
                    bus.broadcast(cache, bus_op, vaddr)
                elif solo_bus:
                    bus_ops += 1
                fills += 1
                extra += cycles + transfer
        finally:
            tally[_T_IFETCH_MISS] += ifetch_misses
            tally[_T_READ_MISS] += read_misses
            tally[_T_WRITE_MISS] += write_misses
            tally[_T_PTE_HIT] += pte_hits
            tally[_T_PTE_MISS] += pte_misses
            tally[_T_SECOND_HIT] += second_hits
            tally[_T_SECOND_MEMORY] += second_memory
            tally[TALLY_FILLS] += fills
            tally[TALLY_EVICTIONS] += evictions
            tally[TALLY_WRITE_BACKS] += write_backs
            tally[TALLY_BUS] += bus_ops
        return extra

    def _resolve_write_hit(self, index, vaddr, tally):
        """Chunked-path twin of :meth:`_slow_write_hit`.

        Commits only when the hit is provably free of policy work: the
        PTE and page record already exist (so no first-touch creation),
        the region is writable, and the dirty policy's write-hit hook
        is a zero-cycle no-op
        (:meth:`~repro.policies.dirty.DirtyBitPolicy.
        write_hit_settled`).  Everything else — protection faults,
        dirty-bit faults, cached-copy refreshes, page flushes —
        delegates to the legacy :meth:`_slow_write_hit` *before* any
        state or tally is touched.

        The commit path mirrors the legacy bookkeeping exactly: the
        clean-block and read-filled-block counters are deferred into
        tally slots, the block-dirty bit is set, and the Berkeley
        write-hit transition is applied (the two common cases inline,
        the rest through :meth:`~repro.cache.cache.VirtualCache.
        acquire_ownership_fast`; the settled handler cannot have moved
        the block, so no re-probe is needed).  The slow path's
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
        state = cache.state[index]
        if state is not _OWNED_EXCLUSIVE:
            if state is _UNOWNED:
                cache.state[index] = _OWNED_EXCLUSIVE
                if cache.has_peers:
                    cache.bus.broadcast(cache, _BUS_FOR_OWNERSHIP,
                                        cache.line_vaddr[index])
                elif cache.bus is not None:
                    tally[TALLY_BUS] += 1
            else:
                cache.acquire_ownership_fast(index, tally)
        return 0

    def _flush_tally(self, tally):
        """Apply one chunk run's deferred tallies to the live books.

        Exact regardless of where the run stopped: counter increments
        are modular sums, stats are plain sums, and nothing samples
        the books mid-call (the observer and sanitizer both cut
        between calls).
        """
        increment = self.counters.increment
        stats = self.cache.stats
        fills = tally[TALLY_FILLS]
        if fills:
            stats["fills"] += fills
        evictions = tally[TALLY_EVICTIONS]
        if evictions:
            stats["evictions"] += evictions
        write_backs = tally[TALLY_WRITE_BACKS]
        if write_backs:
            stats["write_backs"] += write_backs
            increment(Event.WRITE_BACK, write_backs)
        bus_count = tally[TALLY_BUS]
        if bus_count:
            self.cache.bus.transactions += bus_count
            increment(Event.BUS_TRANSACTION, bus_count)
        # Derived events (see the tally-slot table): 1:1 with tallied
        # slots on the fast path, so they are summed here instead of
        # paying per-reference tally ops.
        miss_sum = (tally[_T_IFETCH_MISS] + tally[_T_READ_MISS]
                    + tally[_T_WRITE_MISS])
        if miss_sum:
            increment(Event.TRANSLATION, miss_sum)
            increment(Event.BLOCK_FILL, miss_sum)
        pte_misses = tally[_T_PTE_MISS]
        if pte_misses:
            increment(Event.SECOND_LEVEL_LOOKUP, pte_misses)
        write_misses = tally[_T_WRITE_MISS]
        if write_misses:
            increment(Event.WRITE_MISS_FILL, write_misses)
        for slot, event in _TALLY_EVENTS:
            count = tally[slot]
            if count:
                increment(event, count)

    # -- slow paths ------------------------------------------------------

    def _slow_write_hit(self, index, vaddr):
        """A write hit whose dirty-bit state is not settled."""
        cache = self.cache
        vpn = vaddr >> self.page_bits
        pte = self.page_table.entry(vpn)
        page = self.vm.page(vpn)
        if not page.region.writable:
            raise ProtectionFault(vaddr, "write to read-only region")

        if not cache.block_dirty[index]:
            self.counters.increment(Event.WRITE_HIT_CLEAN_BLOCK)
        if cache.filled_by_read[index] and not cache.block_dirty[index]:
            # First modification of a block that entered on a read:
            # one of the paper's N_w-hit events (counted per block).
            self.counters.increment(Event.WRITE_TO_READ_FILLED_BLOCK)
            cache.filled_by_read[index] = False

        cycles = self.dirty_policy.handle_write_hit(
            self, index, vaddr, pte, page
        )

        # The policy may have flushed and refilled the block (FLUSH);
        # find where the written block lives now and mark it dirty.
        if cache.valid[index] and cache.tags[index] == (
            vaddr >> cache.tag_shift
        ):
            target = index
        else:
            target = cache.probe(vaddr)
        if target >= 0:
            cache.block_dirty[target] = True
            cache.acquire_ownership(target)
        return cycles

    def _miss(self, kind, vaddr):
        """Reference missed in the cache: translate, maybe fault, fill."""
        counters = self.counters
        if kind == 0:
            counters.increment(Event.IFETCH_MISS)
        elif kind == 1:
            counters.increment(Event.READ_MISS)
        else:
            counters.increment(Event.WRITE_MISS)

        result = self.translator.translate(vaddr)
        cycles = result.cycles
        pte = result.pte

        vpn = vaddr >> self.page_bits
        if not pte.valid:
            cycles += self.vm.handle_page_fault(vpn)

        cycles += self.reference_policy.on_cache_miss(self, pte)

        is_write = kind == _WRITE
        if is_write:
            page = self.vm.page(vpn)
            if not page.region.writable:
                raise ProtectionFault(vaddr, "write to read-only region")
            counters.increment(Event.WRITE_MISS_FILL)
            cycles += self.dirty_policy.on_write_miss(self, pte, page)

        _, fill_cycles = self.cache.fill(
            vaddr,
            pte.protection,
            page_dirty=self.dirty_policy.fill_page_dirty(pte),
            by_write=is_write,
        )
        counters.increment(Event.BLOCK_FILL)
        return cycles + fill_cycles

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

        ``run``/``run_chunks`` restart the page-daemon poll schedule
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
