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

from repro.common.errors import ConfigurationError, ProtectionFault
from repro.common.types import Protection
from repro.common.units import SPUR_CYCLE_TIME_SECONDS
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event
from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.cache.flush import TagCheckedFlush, TaglessFlush
from repro.policies.dirty import make_dirty_policy
from repro.policies.reference import make_reference_policy
from repro.translation.incache import InCacheTranslator
from repro.translation.pagetable import PTE_BYTES, PageTable, PageTableLayout
from repro.vm.swap import SwapDevice
from repro.vm.system import VirtualMemorySystem
from repro.workloads.base import (
    RUN_BLOCK_BYTES, chunk_accesses, chunk_kinds, kinds_refs, split_refs)

_RW = int(Protection.READ_WRITE)
_PROT_KERNEL = int(Protection.KERNEL)
_UNOWNED = CoherencyState.UNOWNED
_OWNED_EXCLUSIVE = CoherencyState.OWNED_EXCLUSIVE
_INSTRUCTION_FETCH = int(Event.INSTRUCTION_FETCH)
_PROCESSOR_READ = int(Event.PROCESSOR_READ)
_PROCESSOR_WRITE = int(Event.PROCESSOR_WRITE)
_IFETCH_MISS = int(Event.IFETCH_MISS)
_READ_MISS = int(Event.READ_MISS)
_WRITE_MISS = int(Event.WRITE_MISS)
_WRITE_HIT_CLEAN_BLOCK = int(Event.WRITE_HIT_CLEAN_BLOCK)
_WRITE_BACK = int(Event.WRITE_BACK)
_BLOCK_FILL = int(Event.BLOCK_FILL)
_FLUSH_OPERATION = int(Event.FLUSH_OPERATION)
_FLUSH_WRITE_BACK = int(Event.FLUSH_WRITE_BACK)
_TRANSLATION = int(Event.TRANSLATION)
_PTE_CACHE_HIT = int(Event.PTE_CACHE_HIT)
_PTE_CACHE_MISS = int(Event.PTE_CACHE_MISS)
_SECOND_LEVEL_LOOKUP = int(Event.SECOND_LEVEL_LOOKUP)
_SECOND_LEVEL_CACHE_HIT = int(Event.SECOND_LEVEL_CACHE_HIT)
_SECOND_LEVEL_MEMORY_ACCESS = int(Event.SECOND_LEVEL_MEMORY_ACCESS)
_BUS_TRANSACTION = int(Event.BUS_TRANSACTION)
_WRITE_TO_READ_FILLED_BLOCK = int(Event.WRITE_TO_READ_FILLED_BLOCK)
_WRITE_MISS_FILL = int(Event.WRITE_MISS_FILL)


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
            config.cache, config.memory_timing, name=f"{self.name}.cache",
            counters=self.counters,
        )
        self.flusher = _make_flusher(
            config.flush_strategy, config.flush_cost_scale
        )

        self.page_table = PageTable(PageTableLayout(
            page_bytes=config.page_bytes,
            pte_base=config.pte_base,
            second_level_base=config.second_level_base,
            user_limit=config.user_limit,
        ))
        self.translator = InCacheTranslator(self.page_table, self.cache)

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
        #: Whether a fetch run stays inside one cache block.
        self._runs_fit = config.cache.block_bytes >= RUN_BLOCK_BYTES

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

        ``chunks`` yields ``array('q')`` buffers of ``kind, vaddr``
        elements (see :mod:`repro.workloads.base`): single references
        and fetch runs.  Bit-identical for any chunking of the same
        references: a chunk is cut only where a page-daemon poll falls
        (computed arithmetically, so any positive ``daemon_poll_refs``
        works), splitting a run there so the fetch after the poll is
        checked against the cache, and every piece goes through
        :meth:`_run_refs`.  A chunk's references and kinds are counted
        from one byte per element (each kind's low-order byte; C
        speed, no per-element boxing) and the per-reference cycle
        charge is folded into one addition per call.  Returns the
        number of references processed.
        """
        run_refs = self._run_refs
        interval = self.config.daemon_poll_refs
        poll = self.vm.daemon.poll
        # References left before the next poll: the schedule polls
        # before handling every ``interval``-th reference of the call.
        due = interval - 1 if interval else float("inf")

        cycles = 0
        extra = 0
        reads = 0
        writes = 0
        processed = 0
        for chunk in chunks:
            kinds = chunk_kinds(chunk)
            refs = kinds_refs(kinds)
            if refs != len(kinds) and not self._runs_fit:
                raise ConfigurationError(
                    f"fetch runs span {RUN_BLOCK_BYTES}-byte blocks; "
                    f"{self.name}'s cache block is smaller"
                )
            reads += kinds.count(1)
            writes += kinds.count(2)
            processed += refs
            while refs > due:
                if due:
                    head, chunk = split_refs(chunk, due)
                    extra += run_refs(head)
                    refs -= due
                cycles += poll()
                due = interval
            if refs:
                extra += run_refs(chunk)
                due -= refs

        # Deferred accounting: every reference costs its base cycle
        # (hence ``+ processed``); the reference loop added the rest
        # to ``extra``, polls to ``cycles``.
        self.cycles += cycles + extra + processed
        self.references += processed
        # Unconditional: a run counts all three kinds, even at 0.
        slots = self.counters.slots
        slots[_INSTRUCTION_FETCH] += processed - reads - writes
        slots[_PROCESSOR_READ] += reads
        slots[_PROCESSOR_WRITE] += writes
        return processed

    def _run_refs(self, chunk):
        """The per-reference engine over the poll-free flat *chunk*.

        One element is one reference or a fetch run; every fetch of a
        run after its first hits the block the first one touched, so
        an element is looked up once.  Hits cost nothing beyond the
        base cycle.  A write hit whose
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
        kind, page faults, first- and second-level PTE misses and
        write-backs.  On the way out, including when a miss raises,
        it adds them and what follows from them to the counter bank:
        a walk is a miss without a page fault and its PTE-cache hit a
        walk without a PTE miss, a second-level lookup is a PTE miss
        and its hit a PTE miss without a second-level miss, and every
        install and write-back is a bus transaction.  Zero counts are
        skipped, since an add of 0 would still make the event appear
        in the counter snapshot.  Returns the segment's cycles beyond
        the base charge.
        """
        cache = self.cache
        line_block = cache.line_block
        prot = cache.prot
        page_dirty = cache.page_dirty
        block_dirty = cache.block_dirty
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
        extra = 0
        unfilled = 0
        unfilled_writes = 0
        it = iter(chunk)
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
                    extra += write_hit(index, vaddr)
                    continue

                if kind == 2:
                    write_misses += 1
                elif kind == 1:
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
                            line_block[sindex] = sblock
                            prot[sindex] = _PROT_KERNEL
                            page_dirty[sindex] = 1
                            block_dirty[sindex] = 0
                            holds_pte[sindex] = 1
                            state[sindex] = _UNOWNED
                        if block_dirty[pindex]:
                            write_backs += 1
                        line_block[pindex] = pblock
                        prot[pindex] = _PROT_KERNEL
                        page_dirty[pindex] = 1
                        block_dirty[pindex] = 0
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
                line_block[index] = block
                prot[index] = pte.protection
                page_dirty[index] = (
                    (pte.dirty or pte.software_dirty) if tracks_pte
                    else True
                )
                holds_pte[index] = 0
                if kind == 2:
                    block_dirty[index] = 1
                    state[index] = _OWNED_EXCLUSIVE
                else:
                    block_dirty[index] = 0
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
            walks = misses - faults
            fills = misses - unfilled
            installs = fills + pte_misses + second_misses
            slots = self.counters.slots
            if ifetch_misses:
                slots[_IFETCH_MISS] += ifetch_misses
            if read_misses:
                slots[_READ_MISS] += read_misses
            if write_misses:
                slots[_WRITE_MISS] += write_misses
            if walks:
                slots[_TRANSLATION] += walks
            if walks > pte_misses:
                slots[_PTE_CACHE_HIT] += walks - pte_misses
            if pte_misses:
                slots[_PTE_CACHE_MISS] += pte_misses
                slots[_SECOND_LEVEL_LOOKUP] += pte_misses
            if pte_misses > second_misses:
                slots[_SECOND_LEVEL_CACHE_HIT] += pte_misses - second_misses
            if second_misses:
                slots[_SECOND_LEVEL_MEMORY_ACCESS] += second_misses
            if fills:
                slots[_BLOCK_FILL] += fills
            if write_misses > unfilled_writes:
                slots[_WRITE_MISS_FILL] += write_misses - unfilled_writes
            if write_backs:
                slots[_WRITE_BACK] += write_backs
            if installs or write_backs:
                slots[_BUS_TRANSACTION] += installs + write_backs
        return (
            extra
            + walks * self._pte_check_cycles
            + pte_misses * self._second_check_cycles
            + (installs + write_backs) * cache.block_transfer_cycles
        )

    def _resolve_write_hit(self, index, vaddr):
        """Inline write-hit resolver in front of :meth:`_slow_write_hit`.

        Commits only when the hit is provably free of policy work: the
        PTE and page record already exist (so no first-touch creation),
        the region is writable, and the dirty policy's write-hit hook
        is a zero-cycle no-op
        (:meth:`~repro.policies.dirty.DirtyBitPolicy.
        write_hit_settled`).  Everything else — protection faults,
        dirty-bit faults, cached-copy refreshes, page flushes —
        delegates to the scalar :meth:`_slow_write_hit` *before* any
        state or counter is touched.

        The commit path mirrors the scalar bookkeeping exactly: it
        counts a clean block's first write, sets the block-dirty bit,
        and applies the Berkeley write-hit transition of
        :meth:`~repro.cache.cache.VirtualCache.acquire_ownership`
        inline, counting its bus transaction (the settled handler
        cannot have moved the block, so no re-probe is needed).  The
        slow path's region-writable recheck is covered by the
        predicate's contract — settled implies the write cannot
        protection-fault — so only the record-existence peeks remain.
        Returns cycles (always 0: a settled write hit is free).
        """
        cache = self.cache
        if not self.dirty_policy.write_hit_settled(cache, index):
            return self._slow_write_hit(index, vaddr)
        vpn = vaddr >> self.page_bits
        if self._pte_peek(vpn) is None or self._page_peek(vpn) is None:
            return self._slow_write_hit(index, vaddr)
        slots = self.counters.slots
        if not cache.block_dirty[index]:
            slots[_WRITE_HIT_CLEAN_BLOCK] += 1
            slots[_WRITE_TO_READ_FILLED_BLOCK] += 1
            cache.block_dirty[index] = 1
        # acquire_ownership, inlined: a line the one board hits is
        # UNOWNED or OWNED_EXCLUSIVE (the sanitizer's
        # cache.no-shared-owner), and only UNOWNED takes a transaction.
        if cache.state[index] is _UNOWNED:
            cache.state[index] = _OWNED_EXCLUSIVE
            slots[_BUS_TRANSACTION] += 1
        return 0

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
            # First modification of a clean block, which entered on a
            # read (a valid line is clean exactly when no write has
            # reached it since its fill): one of the paper's N_w-hit
            # events, counted per block.
            slots[_WRITE_HIT_CLEAN_BLOCK] += 1
            slots[_WRITE_TO_READ_FILLED_BLOCK] += 1

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
