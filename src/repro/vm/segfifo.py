"""Segmented-FIFO page replacement: no reference bits at all.

Section 4.1 closes its NOREF discussion with "we believe there may be
better replacement algorithms that do not support reference bits."
This module implements the classic candidate (VMS used it on hardware
without reference bits): a two-segment FIFO.

Resident pages sit on an *active* FIFO.  Under memory pressure the
daemon soft-evicts from the active head onto an *inactive* list —
pages there are unmapped (so any touch faults) but keep their frames
and contents.  A fault on an inactive page is a cheap *reactivation*:
remap, no I/O.  Frames are actually freed from the inactive head, so
a page only pays disk traffic after surviving a full trip through both
segments unreferenced.  The inactive list plays the role reference
bits play for the clock: recently used pages prove it by faulting
back before they reach the hard-eviction end.

Because soft-eviction must flush the page from the virtually addressed
cache (else cached blocks keep hitting and the reactivation fault
never fires), the scheme pays flush cycles instead of reference-bit
maintenance — a trade this reproduction makes measurable
(``benchmarks/bench_segfifo.py``).
"""

from collections import deque

from repro.common.errors import ConfigurationError


class SegmentedFifoDaemon:
    """Two-segment FIFO reclaimer (drop-in for ClockPageDaemon).

    Parameters
    ----------
    vm:
        The owning :class:`VirtualMemorySystem`.
    low_water / high_water:
        Free-frame trigger and target, as for the clock daemon.
    inactive_target:
        Desired inactive-list length; the daemon refills the list to
        this depth before hard-evicting from its head.
    """

    def __init__(self, vm, low_water, high_water, inactive_target):
        if high_water < low_water or low_water < 1:
            raise ValueError(
                "watermarks must satisfy 1 <= low <= high"
            )
        if inactive_target < 1:
            raise ConfigurationError(
                "inactive_target must be at least one page"
            )
        self.vm = vm
        self.low_water = low_water
        self.high_water = high_water
        self.inactive_target = inactive_target
        self._active = deque()
        self._active_members = set()
        self._inactive = deque()
        self._inactive_members = set()
        self.runs = 0
        self.reactivations = 0
        self.pages_reclaimed = 0

    # -- residency bookkeeping (ClockPageDaemon interface) ----------------

    def note_resident(self, vpn):
        """Add a newly resident page to the active FIFO's tail."""
        self._active.append(vpn)
        self._active_members.add(vpn)

    def note_evicted(self, vpn):
        """A page evicted outside the daemon (process teardown)."""
        self._active_members.discard(vpn)
        self._inactive_members.discard(vpn)

    def try_reactivate(self, vpn):
        """Claim an inactive page for rescue; True if it was ours."""
        if vpn not in self._inactive_members:
            return False
        self._inactive_members.discard(vpn)
        self.note_resident(vpn)
        self.reactivations += 1
        return True

    def poll(self):
        """No reference bits to age: the periodic pass is free."""
        return 0

    # -- reclamation ---------------------------------------------------------

    def run(self):
        """Free frames: refill the inactive list, then evict its head."""
        self.runs += 1
        cycles = 0
        free_frames = self.vm.allocator.free_frames
        guard = 4 * (len(self._active) + len(self._inactive)) + 8
        while len(free_frames) < self.high_water and guard > 0:
            guard -= 1
            if (
                len(self._inactive_members) < self.inactive_target
                and self._active_members
            ):
                vpn = self._pop_live(self._active,
                                     self._active_members)
                if vpn is None:
                    continue
                cycles += self.vm.deactivate(vpn)
                self._inactive.append(vpn)
                self._inactive_members.add(vpn)
            elif self._inactive_members:
                vpn = self._pop_live(self._inactive,
                                     self._inactive_members)
                if vpn is None:
                    continue
                cycles += self.vm.evict(vpn)
                self.pages_reclaimed += 1
            elif self._active_members:
                # Inactive list disabled or starved: straight FIFO.
                vpn = self._pop_live(self._active,
                                     self._active_members)
                if vpn is None:
                    continue
                cycles += self.vm.deactivate(vpn)
                cycles += self.vm.evict(vpn)
                self.pages_reclaimed += 1
            else:
                break
        return cycles

    def _pop_live(self, queue, members):
        """Pop the next still-tracked vpn from a queue."""
        while queue:
            vpn = queue.popleft()
            if vpn in members:
                members.discard(vpn)
                return vpn
        return None

    def resident_pages(self):
        """Active-segment vpns (testing hook)."""
        return [vpn for vpn in self._active
                if vpn in self._active_members]

    def inactive_pages(self):
        """Inactive-segment vpns (testing hook)."""
        return [vpn for vpn in self._inactive
                if vpn in self._inactive_members]
