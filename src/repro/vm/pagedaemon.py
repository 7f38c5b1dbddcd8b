"""The clock page daemon.

Sprite's page daemon maintains a pseudo-LRU ordering of resident pages
by periodically clearing reference bits and reclaiming pages whose
bits are still clear on the next visit (second-chance clock).  How the
bits are read and cleared depends on the active reference-bit policy
— exactly the paper's Section 4 experiment.  The scan reads the PTE
bit when the policy maintains bits and delegates the clear:

* MISS: read/clear the PTE bit only (cached blocks unaffected),
* REF: clearing also flushes the page from the cache so the next
  reference is forced to miss and re-set the bit,
* NOREF: reads always return false and clears do nothing, degrading
  the clock to FIFO while eliminating all reference-bit overhead.
"""

from repro.counters.events import Event

_DAEMON_PAGE_SCAN = int(Event.DAEMON_PAGE_SCAN)
_REFERENCE_CLEAR = int(Event.REFERENCE_CLEAR)


class ClockPageDaemon:
    """One-hand second-chance clock over the resident page list.

    The daemon runs on demand, when the allocator's free count falls
    below ``low_water`` at page-fault time, and reclaims frames until
    ``high_water`` are free (or it has lapped the clock twice, which
    means everything reclaimable was reclaimed).
    """

    def __init__(self, vm, low_water, high_water):
        if high_water < low_water or low_water < 1:
            raise ValueError(
                f"watermarks must satisfy 1 <= low <= high, got "
                f"{low_water}, {high_water}"
            )
        self.vm = vm
        self.low_water = low_water
        self.high_water = high_water
        self._clock = []          # vpns in residency order
        self._positions = {}      # vpn -> index in _clock (for liveness)
        self._hand = 0
        self._poll_hand = 0
        self.runs = 0
        self.polls = 0
        self.pages_examined = 0
        self.pages_reclaimed = 0

    def note_resident(self, vpn):
        """Add a newly resident page behind the hand."""
        self._positions[vpn] = len(self._clock)
        self._clock.append(vpn)

    def note_evicted(self, vpn):
        """Forget an evicted page; its clock slot goes stale."""
        self._positions.pop(vpn, None)

    def run(self):
        """Advance the clock until enough frames are free.

        Returns the daemon's CPU cycles (scan costs, reference-bit
        clears including any REF-policy page flushes, and eviction
        work; paging I/O initiated by evictions is included by the
        VM's evict path).
        """
        vm = self.vm
        machine = vm.machine
        ref_policy = machine.reference_policy
        maintains_bits = ref_policy.maintains_bits
        clear_reference = ref_policy.clear_reference
        evict = vm.evict
        peek = vm.page_table.peek
        free_frames = vm.allocator.free_frames
        high_water = self.high_water
        scan_cycles = machine.fault_timing.daemon_page_scan
        slots = machine.counters.slots
        clock = self._clock
        positions = self._positions
        hand = self._hand

        self.runs += 1
        cycles = 0
        examined = 0
        reclaimed = 0
        # Two full laps bound the scan: the first lap may only clear
        # bits, the second then reclaims whatever stayed clear.
        budget = 2 * len(clock) + 1
        while len(free_frames) < high_water and budget > 0:
            if not clock:
                break
            if hand >= len(clock):
                hand = 0
                self._compact()
                if not clock:
                    break
            vpn = clock[hand]
            hand += 1
            budget -= 1
            if vpn not in positions:
                # Stale slot left by an earlier eviction.
                continue
            pte = peek(vpn)
            if pte is None or not pte.valid:
                del positions[vpn]
                continue
            examined += 1
            cycles += scan_cycles
            slots[_DAEMON_PAGE_SCAN] += 1
            if maintains_bits and pte.referenced:
                cycles += clear_reference(machine, vpn, pte)
                slots[_REFERENCE_CLEAR] += 1
            else:
                cycles += evict(vpn)  # which forgets the page
                reclaimed += 1
        self._hand = hand
        self.pages_examined += examined
        self.pages_reclaimed += reclaimed
        return cycles

    def poll(self):
        """Periodic clear-only maintenance pass (no reclaiming).

        Sprite's page daemon woke on a timer and aged reference bits
        even when memory was plentiful; without this, the standing
        cost of *maintaining* reference information — the overhead the
        NOREF policy exists to eliminate — would only appear under
        paging pressure.  Each poll advances a separate hand over
        about a sixth of the resident pages (at least 16 slots, at
        most one lap), clearing set bits through the active policy (a
        PTE write under MISS, a page flush under REF).  Returns the
        daemon's cycles; 0 under NOREF, whose machine-dependent
        routines do nothing.
        """
        machine = self.vm.machine
        ref_policy = machine.reference_policy
        if not ref_policy.maintains_bits:
            return 0
        self.polls += 1
        clock = self._clock
        if not clock:
            return 0
        clear_reference = ref_policy.clear_reference
        peek = self.vm.page_table.peek
        scan_cycles = machine.fault_timing.daemon_page_scan
        slots = machine.counters.slots
        positions = self._positions
        hand = self._poll_hand

        cycles = 0
        examined = 0
        for _ in range(min(len(clock), max(16, len(clock) // 6))):
            if hand >= len(clock):
                hand = 0
            vpn = clock[hand]
            hand += 1
            if vpn not in positions:
                continue
            pte = peek(vpn)
            if pte is None or not pte.valid:
                continue
            examined += 1
            cycles += scan_cycles
            slots[_DAEMON_PAGE_SCAN] += 1
            if pte.referenced:
                cycles += clear_reference(machine, vpn, pte)
                slots[_REFERENCE_CLEAR] += 1
        self._poll_hand = hand
        self.pages_examined += examined
        return cycles

    def _compact(self):
        """Drop stale slots accumulated by evictions, in place (a
        running scan holds both containers)."""
        self._clock[:] = [
            vpn for vpn in self._clock if vpn in self._positions
        ]
        self._positions.clear()
        self._positions.update(
            (vpn, i) for i, vpn in enumerate(self._clock)
        )
        if self._hand > len(self._clock):
            self._hand = 0

    def resident_pages(self):
        """Currently tracked resident vpns (testing hook)."""
        return [vpn for vpn in self._clock if vpn in self._positions]
