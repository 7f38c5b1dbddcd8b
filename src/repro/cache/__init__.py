"""SPUR's virtually addressed, direct-mapped, unified cache.

128 KB with 32-byte blocks on the prototype (Table 2.1).  Each block
frame carries the Figure 3.2(b) tag: a virtual-address tag, two
protection bits, a cached copy of the *page* dirty bit, the *block*
dirty bit, and two bits of Berkeley Ownership coherency state.

Because the protection and page-dirty bits are *copies* of PTE fields
taken at fill time, they can go stale when a fault handler updates the
PTE — the phenomenon at the heart of the paper (Figure 3.1).
"""

from repro.cache.coherence import BerkeleyOwnership, CoherencyState
from repro.cache.block import CACHE_TAG_LAYOUT, CacheLineView
from repro.cache.cache import VirtualCache
from repro.cache.flush import FlushResult, TagCheckedFlush, TaglessFlush

__all__ = [
    "BerkeleyOwnership",
    "CACHE_TAG_LAYOUT",
    "CacheLineView",
    "CoherencyState",
    "FlushResult",
    "TagCheckedFlush",
    "TaglessFlush",
    "VirtualCache",
]
