"""The three reference-bit policies of Section 4.

* MISS — SPUR's scheme: the reference bit is checked (and, via a
  fault, set) only on cache misses, where the PTE is in hand anyway.
  References that keep hitting in the cache leave the bit untouched,
  so the page daemon sees an *approximation* of recency.
* REF — true reference bits: when the daemon clears a page's bit it
  also flushes the page from the cache, forcing the next reference to
  miss and re-set the bit.  Accurate, but the flushes (and the misses
  to re-fetch flushed blocks) cost more than the better replacement
  decisions save.
* NOREF — no reference bits: the read routine always reports
  "unreferenced" and the clear routine does nothing, leaving the
  hardware bit permanently set so reference faults never occur.  The
  clock degenerates to FIFO with zero maintenance overhead.

The daemon's read routine is the PTE bit where the policy maintains
bits and "unreferenced" where it does not (``maintains_bits``), read
inline by the clock scan just as the reference loop reads it on a
miss; the policies supply the miss-time check and the clear routine.
"""

from repro.common.errors import ConfigurationError
from repro.counters.events import Event

_REFERENCE_FAULT = int(Event.REFERENCE_FAULT)


class ReferenceBitPolicy:
    """Base class; concrete policies override the two hooks.

    A freshly mapped page starts with its bit set for free under every
    policy — the faulting access obviously references the page — so
    the VM sets it without a hook.
    """

    name = "ABSTRACT"

    #: Whether the policy maintains reference information at all.
    #: When False the daemon reads every page as unreferenced and
    #: skips its periodic clear passes (NOREF "spends no time
    #: maintaining reference bits").
    maintains_bits = True

    def on_cache_miss(self, machine, pte):
        """Check/set the reference bit during a miss; returns cycles."""
        raise NotImplementedError

    def clear_reference(self, machine, vpn, pte):
        """The machine-dependent daemon clear routine; returns cycles."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class MissReferencePolicy(ReferenceBitPolicy):
    """MISS: the miss-bit approximation (SPUR's native scheme)."""

    name = "MISS"

    def on_cache_miss(self, machine, pte):
        if pte.referenced:
            return 0
        # The hardware faults to a software handler to set the bit.
        machine.counters.slots[_REFERENCE_FAULT] += 1
        pte.referenced = True
        return machine.fault_timing.reference_fault

    def clear_reference(self, machine, vpn, pte):
        pte.referenced = False
        return 0  # a PTE write, folded into the daemon's scan cost


class TrueReferencePolicy(MissReferencePolicy):
    """REF: true reference bits via flush-on-clear."""

    name = "REF"

    def clear_reference(self, machine, vpn, pte):
        pte.referenced = False
        # Flush the page so its next reference is guaranteed to miss
        # (Section 4.1 notes a multiprocessor would have to flush
        # every board's cache).
        return machine.flush_page(vpn * machine.page_bytes)


class NoReferencePolicy(ReferenceBitPolicy):
    """NOREF: eliminate reference bits entirely.

    Implemented exactly as the paper's minimal-change Sprite
    modification: reads always return false, clears have no effect,
    and the hardware bit stays set so no reference faults occur.
    """

    name = "NOREF"
    maintains_bits = False

    def on_cache_miss(self, machine, pte):
        # The hardware bit is permanently set; no fault ever fires.
        return 0

    def clear_reference(self, machine, vpn, pte):
        return 0


_REFERENCE_POLICIES = {
    policy.name: policy
    for policy in (
        MissReferencePolicy,
        TrueReferencePolicy,
        NoReferencePolicy,
    )
}

#: Policy names in the row order of Table 4.1.
REFERENCE_POLICY_NAMES = ("MISS", "REF", "NOREF")


def make_reference_policy(name):
    """Construct a reference-bit policy by its paper name."""
    try:
        return _REFERENCE_POLICIES[name.upper()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown reference-bit policy {name!r}; expected one of "
            f"{sorted(_REFERENCE_POLICIES)}"
        ) from None
