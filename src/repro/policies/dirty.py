"""The five dirty-bit maintenance alternatives (Table 3.1).

Each policy plugs into :class:`repro.machine.SpurMachine` at three
points:

* :meth:`~DirtyBitPolicy.map_protection` — the hardware protection a
  freshly mapped writable page receives (the FAULT and FLUSH
  alternatives map writable pages read-only to emulate the dirty bit);
* :meth:`~DirtyBitPolicy.handle_write_hit` — the slow path for a write
  that hits a cache block whose dirty information is not yet settled
  (stale protection, clear cached page-dirty bit, or first write to
  the block);
* :meth:`~DirtyBitPolicy.on_write_miss` — dirty-bit work folded into a
  write miss, where the PTE is in hand anyway.

The cycle charges mirror the analytic models of Section 3.2 exactly,
so a closed-loop simulation and the Table 3.4 arithmetic agree on the
same events.
"""

from repro.common.errors import ConfigurationError
from repro.common.types import PageKind, Protection
from repro.counters.events import Event

_DIRTY_FAULT = int(Event.DIRTY_FAULT)
_ZERO_FILL_DIRTY_FAULT = int(Event.ZERO_FILL_DIRTY_FAULT)
_EXCESS_FAULT = int(Event.EXCESS_FAULT)
_DIRTY_BIT_MISS = int(Event.DIRTY_BIT_MISS)
_DIRTY_CHECK = int(Event.DIRTY_CHECK)
_RW = int(Protection.READ_WRITE)
_READ_WRITE = Protection.READ_WRITE
_ZERO_FILL = PageKind.ZERO_FILL


class DirtyBitPolicy:
    """Base class; concrete policies override the three hooks."""

    #: Policy name as used in the paper's tables.
    name = "ABSTRACT"

    #: Whether a set cached page-dirty copy implies the PTE records the
    #: page as modified.  True for every policy whose
    #: :meth:`fill_page_dirty` derives the copy from the PTE; the WRITE
    #: policy overrides this because it fills the copy unconditionally
    #: (the PTE is consulted on every first block write instead).  The
    #: runtime sanitizer keys its dirty-bit invariant on this flag.
    cached_dirty_tracks_pte = True

    def map_protection(self, writable):
        """Hardware protection for a freshly mapped page."""
        return Protection.READ_WRITE if writable else Protection.READ_ONLY

    def fill_page_dirty(self, pte):
        """Value of the cached page-dirty copy for a new fill.

        True means "no dirty-bit work remains for this page", which is
        the hot loop's licence to skip the slow path.
        """
        return pte.is_modified()

    def handle_write_hit(self, machine, index, vaddr, pte, page):
        """Resolve a write hit needing dirty-bit work; returns cycles."""
        raise NotImplementedError

    def on_write_miss(self, machine, pte, page):
        """Dirty-bit work on a write miss; returns cycles."""
        if pte.is_modified():
            return 0
        return self._necessary_fault(machine, pte)

    def write_miss_settled(self, pte):
        """True iff :meth:`on_write_miss` would be a zero-cycle no-op.

        The chunked hot loop's batched resolver uses this to keep
        settled write misses off the slow path; a policy that changes
        :meth:`on_write_miss`'s no-op condition must override this
        predicate to match (the chunked-equivalence grid enforces the
        pairing).  Called on every write miss, so it spells out
        ``pte.is_modified()``.
        """
        return pte.dirty or pte.software_dirty

    def write_hit_settled(self, cache, index):
        """True iff :meth:`handle_write_hit` would be a zero-cycle,
        zero-mutation no-op for this cached line.

        The chunked hot loop's batched resolver uses this to keep
        settled write hits (only the block-dirty bit needs setting)
        off the slow path.  A True return also asserts the write
        cannot protection-fault: a set page-dirty copy means a write
        to the page already succeeded, and a cached read-write
        protection means the mapping granted it, so the resolver skips
        the slow path's region-writable recheck.  The default is the
        conservative ``False``; a policy overriding
        :meth:`handle_write_hit` with a cheap settled branch should
        override this predicate to match (the chunked-equivalence grid
        enforces the pairing).
        """
        return False

    # -- shared handler pieces -------------------------------------------

    def _necessary_fault(self, machine, pte):
        """Take the fault that actually sets the dirty bit."""
        slots = machine.counters.slots
        slots[_DIRTY_FAULT] += 1
        if pte.kind is _ZERO_FILL:
            slots[_ZERO_FILL_DIRTY_FAULT] += 1
        self._set_dirty(pte)
        return machine.fault_timing.dirty_fault

    def _set_dirty(self, pte):
        """Record the page as modified (hardware bit by default)."""
        pte.dirty = True

    def __repr__(self):
        return f"{type(self).__name__}()"


class FaultDirtyPolicy(DirtyBitPolicy):
    """FAULT: emulate dirty bits with protection.

    Writable pages are mapped read-only; the first write faults, and
    the handler sets a software dirty bit and raises the protection to
    read-write.  Blocks cached *before* the promotion keep their stale
    read-only copies, so writes to them fault too — the excess faults
    of Figure 3.1.  No hardware support beyond ordinary protection
    checking is needed.
    """

    name = "FAULT"

    def map_protection(self, writable):
        # Writable pages start read-only: that is the emulation.
        return Protection.READ_ONLY

    def _set_dirty(self, pte):
        pte.software_dirty = True
        pte.protection = _READ_WRITE

    def handle_write_hit(self, machine, index, vaddr, pte, page):
        cache = machine.cache
        if cache.prot[index] == _RW:
            # Protection already settled; only the block-dirty bit was
            # clear.  No policy work.
            return 0
        if pte.is_modified():
            # Stale cached protection: the PTE was promoted by an
            # earlier fault on another block of this page.
            machine.counters.slots[_EXCESS_FAULT] += 1
            cache.prot[index] = _RW
            cache.page_dirty[index] = True
            return machine.fault_timing.dirty_fault
        cycles = self._necessary_fault(machine, pte)
        # The handler repairs the faulting block's cached protection so
        # the retried write proceeds.
        cache.prot[index] = _RW
        cache.page_dirty[index] = True
        return cycles

    def write_hit_settled(self, cache, index):
        # Mirrors the handler's first branch (FLUSH inherits both).
        return cache.prot[index] == _RW


class FlushDirtyPolicy(FaultDirtyPolicy):
    """FLUSH: protection emulation plus a page flush on the fault.

    Flushing the page when the necessary fault occurs guarantees no
    block remains cached with the old protection, eliminating excess
    faults at the price of one page flush per dirtied page (and the
    misses to re-fetch any flushed blocks that are used again).
    """

    name = "FLUSH"

    def handle_write_hit(self, machine, index, vaddr, pte, page):
        cache = machine.cache
        if cache.prot[index] == _RW:
            return 0
        if pte.is_modified():
            # Not expected on one board (the dirty fault's flush
            # removed the page's stale blocks, and later fills copy
            # the promoted protection); should a stale block survive,
            # treat it as the FAULT policy would.
            machine.counters.slots[_EXCESS_FAULT] += 1
            cache.prot[index] = _RW
            cache.page_dirty[index] = True
            return machine.fault_timing.dirty_fault
        cycles = self._necessary_fault(machine, pte)
        cycles += self._flush_page(machine, vaddr)
        # The faulting block itself was flushed; re-fetch it with the
        # promoted protection, as the retried write's miss would.
        _, fill_cycles = cache.fill(
            vaddr, pte.protection, page_dirty=True, by_write=True
        )
        return cycles + fill_cycles

    def on_write_miss(self, machine, pte, page):
        if pte.is_modified():
            return 0
        cycles = self._necessary_fault(machine, pte)
        page_vaddr = page.vpn * machine.page_bytes
        cycles += self._flush_page(machine, page_vaddr)
        return cycles

    def _flush_page(self, machine, vaddr):
        page_vaddr = vaddr & ~(machine.page_bytes - 1)
        return machine.flush_page(page_vaddr)


class SpurDirtyPolicy(DirtyBitPolicy):
    """SPUR: cache a copy of the page dirty bit with each block.

    On a write to a block whose cached copy says "clean", the hardware
    checks the PTE.  If the PTE is also clean this is the first write
    to the page and a dirty-bit fault sets it; if the PTE is already
    dirty the cached copy is merely out of date and a ~25-cycle *dirty
    bit miss* refreshes it — the mechanism SPUR spent one tag bit and
    14 PLA product terms on.
    """

    name = "SPUR"

    def handle_write_hit(self, machine, index, vaddr, pte, page):
        cache = machine.cache
        if cache.page_dirty[index]:
            return 0
        timing = machine.fault_timing
        if pte.dirty:
            machine.counters.slots[_DIRTY_BIT_MISS] += 1
            cache.page_dirty[index] = True
            return timing.dirty_bit_miss
        cycles = self._necessary_fault(machine, pte)
        # The handler's return forces the cached copy update (the
        # "dirty bit miss" mechanism), hence the extra t_dm in O(SPUR).
        cache.page_dirty[index] = True
        return cycles + timing.dirty_bit_miss

    def on_write_miss(self, machine, pte, page):
        if pte.dirty:
            return 0
        cycles = self._necessary_fault(machine, pte)
        return cycles + machine.fault_timing.dirty_bit_miss

    def write_miss_settled(self, pte):
        # SPUR keys the miss-time check on the hardware bit alone: a
        # software-dirty page still pays the dirty-bit-miss refresh.
        return pte.dirty

    def write_hit_settled(self, cache, index):
        # A set cached copy is exactly the hardware's "no work" case.
        return cache.page_dirty[index]


class ProtectionMissDirtyPolicy(DirtyBitPolicy):
    """PROTMISS: the generalized SPUR scheme, applied to protection.

    Section 3.1's closing observation: instead of an explicit cached
    dirty bit, apply the same check-the-PTE-before-faulting idea to
    the protection field itself.  Writable pages are mapped read-only
    while clean (as under FAULT); on a write that the *cached*
    protection copy forbids, the hardware first consults the PTE — if
    the copy is merely out of date, a "protection bit miss" refreshes
    it and the access proceeds; only a genuinely clean page faults.

    The paper notes the performance is identical to SPUR's while
    saving the extra tag bit; the closed-loop tests pin that
    equivalence.
    """

    name = "PROTMISS"

    def map_protection(self, writable):
        # Same initial state as the FAULT emulation.
        return Protection.READ_ONLY

    def _set_dirty(self, pte):
        pte.software_dirty = True
        pte.protection = _READ_WRITE

    def handle_write_hit(self, machine, index, vaddr, pte, page):
        cache = machine.cache
        if cache.prot[index] == _RW:
            return 0
        timing = machine.fault_timing
        if pte.is_modified():
            # Stale cached protection: hardware refresh, no fault.
            machine.counters.slots[_DIRTY_BIT_MISS] += 1
            cache.prot[index] = _RW
            cache.page_dirty[index] = True
            return timing.dirty_bit_miss
        cycles = self._necessary_fault(machine, pte)
        cache.prot[index] = _RW
        cache.page_dirty[index] = True
        return cycles + timing.dirty_bit_miss

    def on_write_miss(self, machine, pte, page):
        if pte.is_modified():
            return 0
        cycles = self._necessary_fault(machine, pte)
        return cycles + machine.fault_timing.dirty_bit_miss

    def write_hit_settled(self, cache, index):
        # An up-to-date cached protection copy permits the write.
        return cache.prot[index] == _RW


class WriteDirtyPolicy(DirtyBitPolicy):
    """WRITE: check the PTE on the first write to each cache block.

    Modeled on the Sun-3 mechanism but faulting to software to set the
    bit, for an unbiased comparison.  Write misses check for free (the
    PTE is fetched for translation anyway); a write hitting a clean
    block pays ``t_dc`` to consult the PTE.  The policy never produces
    excess faults, but pays the check on every read-then-written
    block, which the paper shows dominates everything else.
    """

    name = "WRITE"
    cached_dirty_tracks_pte = False

    def fill_page_dirty(self, pte):
        # Page-level state never goes stale under WRITE (every first
        # block write consults the PTE), so the cached copy is
        # permanently "settled" and only block_dirty gates the slow
        # path.
        return True

    def handle_write_hit(self, machine, index, vaddr, pte, page):
        machine.counters.slots[_DIRTY_CHECK] += 1
        cycles = machine.fault_timing.dirty_check
        if not pte.dirty:
            cycles += self._necessary_fault(machine, pte)
        return cycles


class MinDirtyPolicy(DirtyBitPolicy):
    """MIN: the lower bound.

    Counts only the overhead intrinsic to every policy — the software
    fault that sets the dirty bit on the first write to each page.
    Checking costs nothing and stale copies refresh for free; no
    hardware could do better, which is what makes it the comparison
    baseline of Table 3.4.
    """

    name = "MIN"

    def handle_write_hit(self, machine, index, vaddr, pte, page):
        cache = machine.cache
        if cache.page_dirty[index]:
            return 0
        if pte.dirty:
            cache.page_dirty[index] = True
            return 0
        cycles = self._necessary_fault(machine, pte)
        cache.page_dirty[index] = True
        return cycles

    def write_hit_settled(self, cache, index):
        # Only the set-copy branch is mutation-free: the free refresh
        # (clean copy, dirty PTE) updates the copy and must stay on
        # the slow path.
        return cache.page_dirty[index]


_DIRTY_POLICIES = {
    policy.name: policy
    for policy in (
        FaultDirtyPolicy,
        FlushDirtyPolicy,
        SpurDirtyPolicy,
        ProtectionMissDirtyPolicy,
        WriteDirtyPolicy,
        MinDirtyPolicy,
    )
}


def make_dirty_policy(name):
    """Construct a dirty-bit policy by its paper name."""
    try:
        return _DIRTY_POLICIES[name.upper()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown dirty-bit policy {name!r}; expected one of "
            f"{sorted(_DIRTY_POLICIES)}"
        ) from None
