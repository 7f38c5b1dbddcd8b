"""The shared backplane bus with snooping.

Every cache attaches to one :class:`SnoopyBus`.  Bus transactions
(fills, ownership acquisitions, write-backs) are broadcast to the other
caches, which react through their Berkeley Ownership snoop logic.  The
paper's prototype was a uniprocessor, so its bus carried only misses
and write-backs, but the full multiprocessor path is implemented and
tested — the protocol is part of the system the paper describes.

The bus also feeds the cache controller's mode-2 performance counters
(bus transactions, snoop hits, invalidations, ownership transfers)
when a counter bank is attached.
"""

from repro.counters.events import Event

_BUS_TRANSACTION = int(Event.BUS_TRANSACTION)


class SnoopyBus:
    """Broadcast medium connecting the caches to memory.

    Attributes
    ----------
    transactions:
        Total bus transactions observed.
    snoop_hits:
        Transactions for which some other cache held the block.
    ownership_transfers:
        Transactions where an owner supplied the data directly.
    """

    def __init__(self, name="backplane", counters=None):
        self.name = name
        self.caches = []
        self.counters = counters
        self.transactions = 0
        self.snoop_hits = 0
        self.ownership_transfers = 0
        self.invalidations = 0

    def attach(self, cache):
        """Connect a cache to the bus."""
        if cache in self.caches:
            raise ValueError(f"{cache.name} already attached")
        self.caches.append(cache)
        cache.bus = self
        if len(self.caches) > 1:
            for peer in self.caches:
                peer.has_peers = True

    def broadcast(self, origin, bus_op, vaddr):
        """Deliver one transaction to every cache except its origin."""
        self.transactions += 1
        counters = self.counters
        if counters is not None:
            counters.slots[_BUS_TRANSACTION] += 1
        for cache in self.caches:
            if cache is origin:
                continue
            had_block = cache.probe(vaddr) >= 0
            supplied, _ = cache.snoop(bus_op, vaddr)
            if had_block:
                self.snoop_hits += 1
                invalidated = cache.probe(vaddr) < 0
                self.invalidations += invalidated
                if counters is not None:
                    counters.increment(Event.SNOOP_HIT)
                    if invalidated:
                        counters.increment(Event.INVALIDATION)
            if supplied:
                self.ownership_transfers += 1
                if counters is not None:
                    counters.increment(Event.OWNERSHIP_TRANSFER)

    def reset_stats(self):
        self.transactions = 0
        self.snoop_hits = 0
        self.ownership_transfers = 0
        self.invalidations = 0
