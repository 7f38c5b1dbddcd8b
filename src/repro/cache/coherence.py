"""The Berkeley Ownership cache-coherency protocol [Katz85].

SPUR's cache controller keeps every block in one of four states:

* ``INVALID`` — the frame holds no useful data.
* ``UNOWNED`` — a clean copy; memory is up to date; other caches may
  also hold copies.  Reads hit freely; a write must first acquire
  ownership on the bus.
* ``OWNED_SHARED`` — this cache owns the (dirty) block but other
  caches may hold read copies; the owner must supply data on snoops
  and write the block back on replacement.
* ``OWNED_EXCLUSIVE`` — this cache owns the block and no other copies
  exist; writes hit without bus traffic.

The experiments in the paper ran on a uniprocessor prototype, but the
protocol is implemented in full (and exercised by the multiprocessor
tests) because the flush and dirty-bit trade-offs the paper discusses
are explicitly motivated by multiprocessor cost arguments.
"""

import enum


class CoherencyState(enum.IntEnum):
    """Per-block Berkeley Ownership state (two tag bits)."""

    INVALID = 0
    UNOWNED = 1
    OWNED_SHARED = 2
    OWNED_EXCLUSIVE = 3

    @property
    def is_owned(self):
        """True if this cache is responsible for the block's data."""
        return self in (
            CoherencyState.OWNED_SHARED,
            CoherencyState.OWNED_EXCLUSIVE,
        )

    @property
    def is_valid(self):
        return self is not CoherencyState.INVALID


class BusOp(enum.Enum):
    """Bus transactions the protocol generates."""

    READ = "read"                # read miss: fetch a shared copy
    READ_OWNED = "read-owned"    # write miss: fetch with ownership
    WRITE_FOR_OWNERSHIP = "for-ownership"  # write hit on UNOWNED
    WRITE_BACK = "write-back"    # replacement of an owned block


class BerkeleyOwnership:
    """State-transition logic for one cache's view of the protocol.

    The class is pure policy: it computes next states and required bus
    operations but performs no I/O itself.  :class:`repro.cache.bus.
    SnoopyBus` applies the snoop half to the other caches.
    """

    # -- processor-side transitions ------------------------------------
    #
    # A read miss loads its block unowned (memory, or the previous
    # owner, which wrote back, supplies the data) and a write miss
    # loads it owned exclusive; ``VirtualCache.fill`` and the
    # reference loop's inlined install set those states directly.

    @staticmethod
    def on_write_hit(state):
        """(next state, bus op or None) for a processor write hit."""
        if state is CoherencyState.OWNED_EXCLUSIVE:
            return CoherencyState.OWNED_EXCLUSIVE, None
        if state is CoherencyState.OWNED_SHARED:
            # Must invalidate other copies before writing again.
            return (
                CoherencyState.OWNED_EXCLUSIVE,
                BusOp.WRITE_FOR_OWNERSHIP,
            )
        if state is CoherencyState.UNOWNED:
            return (
                CoherencyState.OWNED_EXCLUSIVE,
                BusOp.WRITE_FOR_OWNERSHIP,
            )
        raise ValueError(f"write hit on invalid block (state {state})")

    # -- snoop-side transitions ----------------------------------------

    @staticmethod
    def on_snoop(state, bus_op):
        """(next state, must supply data, must write back) for a snoop.

        ``must supply data`` models the owner servicing the request
        instead of memory; ``must write back`` arises when an owner
        downgrades on a plain read and memory must be made current.
        """
        if state is CoherencyState.INVALID:
            return CoherencyState.INVALID, False, False
        if bus_op is BusOp.READ:
            if state is CoherencyState.OWNED_EXCLUSIVE:
                return CoherencyState.OWNED_SHARED, True, False
            if state is CoherencyState.OWNED_SHARED:
                return CoherencyState.OWNED_SHARED, True, False
            return CoherencyState.UNOWNED, False, False
        if bus_op in (BusOp.READ_OWNED, BusOp.WRITE_FOR_OWNERSHIP):
            supplies = state.is_owned and bus_op is BusOp.READ_OWNED
            return CoherencyState.INVALID, supplies, False
        if bus_op is BusOp.WRITE_BACK:
            return state, False, False
        raise ValueError(f"unknown bus operation {bus_op}")
