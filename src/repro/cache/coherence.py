"""The Berkeley Ownership cache-coherency protocol [Katz85].

SPUR's cache controller keeps every block in one of four states, the
two-bit CS field of each cache tag (Fig 3.2):

* ``INVALID`` — the frame holds no useful data.
* ``UNOWNED`` — a clean copy; memory is up to date.  Reads hit
  freely; a write must first acquire ownership on the bus.
* ``OWNED_SHARED`` — this cache owns the (dirty) block while other
  caches hold read copies.  Only another board's read can produce it,
  so it never arises on the uniprocessor the paper measured (the
  sanitizer checks that it does not).
* ``OWNED_EXCLUSIVE`` — this cache owns the block and no other copies
  exist; writes hit without bus traffic.

The simulated machine is that uniprocessor, so the protocol reduces
to its processor side: a read miss loads its block unowned, a write
miss loads it owned exclusive (``VirtualCache.fill`` and the
reference loop's inlined install set those states directly), and a
write hit acquires ownership (:meth:`BerkeleyOwnership.on_write_hit`).
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


class BerkeleyOwnership:
    """State-transition logic for a processor write hit."""

    @staticmethod
    def on_write_hit(state):
        """The next state for a processor write hit.

        An UNOWNED block becomes OWNED_EXCLUSIVE (the caller puts one
        ownership transaction on the bus); an OWNED_EXCLUSIVE block
        stays put.
        """
        if state is CoherencyState.OWNED_EXCLUSIVE:
            return CoherencyState.OWNED_EXCLUSIVE
        if state is CoherencyState.UNOWNED:
            return CoherencyState.OWNED_EXCLUSIVE
        raise ValueError(
            f"write hit on a block in state {state!r}, which a "
            f"uniprocessor cache never holds"
        )
