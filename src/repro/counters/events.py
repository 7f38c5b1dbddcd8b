"""Event taxonomy for the performance counters.

The events mirror those the paper says the hardware measured: the
number of instruction fetches, processor reads and writes, the number
of times each reference type misses in the cache, the behaviour of the
in-cache translation algorithm, the Berkeley Ownership protocol, and
the dirty/reference-bit machinery this paper studies.

Each of the four counter modes maps sixteen of these events onto the
sixteen physical counters (the hardware could not count everything at
once; neither does the model unless a test asks it to).
"""

import enum

#: Number of physical counters on the cache controller chip.
NUM_COUNTERS = 16

#: Number of selectable counter modes.
NUM_MODES = 4


class Event(enum.IntEnum):
    """Countable events, grouped by subsystem."""

    # -- processor reference mix --------------------------------------
    INSTRUCTION_FETCH = 0
    PROCESSOR_READ = 1
    PROCESSOR_WRITE = 2

    # -- cache behaviour ----------------------------------------------
    IFETCH_MISS = 3
    READ_MISS = 4
    WRITE_MISS = 5
    WRITE_HIT_CLEAN_BLOCK = 6
    WRITE_BACK = 7
    BLOCK_FILL = 8
    FLUSH_OPERATION = 9
    FLUSH_WRITE_BACK = 10

    # -- in-cache translation -----------------------------------------
    TRANSLATION = 11
    PTE_CACHE_HIT = 12
    PTE_CACHE_MISS = 13
    SECOND_LEVEL_LOOKUP = 14
    SECOND_LEVEL_CACHE_HIT = 15
    SECOND_LEVEL_MEMORY_ACCESS = 16

    # -- coherency (Berkeley Ownership) ---------------------------------
    BUS_TRANSACTION = 17

    # -- dirty-bit machinery (Section 3) --------------------------------
    DIRTY_FAULT = 18            # necessary faults, N_ds
    ZERO_FILL_DIRTY_FAULT = 19  # the N_zfod subset of DIRTY_FAULT
    EXCESS_FAULT = 20           # stale-protection faults, N_ef
    DIRTY_BIT_MISS = 21         # SPUR refreshes, N_dm
    DIRTY_CHECK = 22            # WRITE-policy PTE checks
    WRITE_TO_READ_FILLED_BLOCK = 23  # N_w-hit
    WRITE_MISS_FILL = 24             # N_w-miss

    # -- reference-bit machinery (Section 4) ----------------------------
    REFERENCE_FAULT = 25
    REFERENCE_CLEAR = 26
    DAEMON_PAGE_SCAN = 27

    # -- virtual memory --------------------------------------------------
    PAGE_FAULT = 28
    PAGE_IN = 29
    PAGE_OUT = 30
    ZERO_FILL_PAGE = 31
    PAGE_RECLAIM = 32
    # Segmented-FIFO extension (not on the 1989 chip): soft-evictions
    # to the inactive list and fault-time rescues from it.
    PAGE_DEACTIVATE = 33
    PAGE_REACTIVATE = 34


#: The four hardware counter modes.  Mode 0 measures the reference mix
#: and cache behaviour; mode 1 the translation algorithm; mode 2 the
#: coherency protocol; mode 3 the dirty/reference-bit events this paper
#: studies.  Each set has at most ``NUM_COUNTERS`` events.
MODE_SETS = {
    0: (
        Event.INSTRUCTION_FETCH,
        Event.PROCESSOR_READ,
        Event.PROCESSOR_WRITE,
        Event.IFETCH_MISS,
        Event.READ_MISS,
        Event.WRITE_MISS,
        Event.WRITE_HIT_CLEAN_BLOCK,
        Event.WRITE_BACK,
        Event.BLOCK_FILL,
        Event.FLUSH_OPERATION,
        Event.FLUSH_WRITE_BACK,
        Event.PAGE_FAULT,
        Event.PAGE_IN,
        Event.PAGE_OUT,
        Event.ZERO_FILL_PAGE,
        Event.PAGE_RECLAIM,
    ),
    1: (
        Event.TRANSLATION,
        Event.PTE_CACHE_HIT,
        Event.PTE_CACHE_MISS,
        Event.SECOND_LEVEL_LOOKUP,
        Event.SECOND_LEVEL_CACHE_HIT,
        Event.SECOND_LEVEL_MEMORY_ACCESS,
        Event.IFETCH_MISS,
        Event.READ_MISS,
        Event.WRITE_MISS,
        Event.BLOCK_FILL,
        Event.WRITE_BACK,
        Event.PAGE_FAULT,
    ),
    2: (
        Event.BUS_TRANSACTION,
        Event.WRITE_BACK,
        Event.BLOCK_FILL,
        Event.FLUSH_OPERATION,
        Event.FLUSH_WRITE_BACK,
        # The segmented-FIFO extension events ride in mode 2's spare
        # registers: the coherency mode uses only five of the sixteen
        # counters, and the soft-eviction traffic is bus-adjacent (every
        # deactivation flushes the page from the cache).
        Event.PAGE_DEACTIVATE,
        Event.PAGE_REACTIVATE,
    ),
    3: (
        Event.DIRTY_FAULT,
        Event.ZERO_FILL_DIRTY_FAULT,
        Event.EXCESS_FAULT,
        Event.DIRTY_BIT_MISS,
        Event.DIRTY_CHECK,
        Event.WRITE_TO_READ_FILLED_BLOCK,
        Event.WRITE_MISS_FILL,
        Event.REFERENCE_FAULT,
        Event.REFERENCE_CLEAR,
        Event.DAEMON_PAGE_SCAN,
        Event.PAGE_FAULT,
        Event.PAGE_IN,
        Event.PAGE_OUT,
        Event.ZERO_FILL_PAGE,
        Event.PAGE_RECLAIM,
        Event.PROCESSOR_WRITE,
    ),
}


def _validate_mode_sets():
    for mode, events in MODE_SETS.items():
        if not 0 <= mode < NUM_MODES:
            raise ValueError(f"mode {mode} out of range")
        if len(events) > NUM_COUNTERS:
            raise ValueError(
                f"mode {mode} assigns {len(events)} events to "
                f"{NUM_COUNTERS} counters"
            )
        if len(set(events)) != len(events):
            raise ValueError(f"mode {mode} lists an event twice")


_validate_mode_sets()
