"""Processor-side reference accounting.

The SPUR CPU issues one memory reference per cycle when hitting in the
cache (the prototype's instruction buffer was disabled, so *every*
instruction fetch goes to the cache — Table 2.1).  The machine's hot
loop counts the reference mix in local variables for speed and folds
the totals into this record and the performance counters at the end of
each run segment.
"""

from dataclasses import dataclass

from repro.counters.events import Event


@dataclass
class ReferenceMix:
    """Totals of the three processor reference kinds."""

    ifetches: int = 0
    reads: int = 0
    writes: int = 0

    @property
    def total(self):
        return self.ifetches + self.reads + self.writes

    def add(self, ifetches, reads, writes):
        """Accumulate one batch of reference counts."""
        self.ifetches += ifetches
        self.reads += reads
        self.writes += writes

    def flush_to_counters(self, counters):
        """Publish the totals into the performance counters.

        Idempotence is the caller's problem: the machine calls this
        exactly once per run segment with that segment's deltas.
        """
        counters.increment(Event.INSTRUCTION_FETCH, self.ifetches)
        counters.increment(Event.PROCESSOR_READ, self.reads)
        counters.increment(Event.PROCESSOR_WRITE, self.writes)
