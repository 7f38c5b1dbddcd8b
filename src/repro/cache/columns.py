"""Flat columnar storage for the cache's per-line tag state.

The simulator's reference loop (:meth:`repro.machine.simulator.
SpurMachine._run_refs`) reads and writes the cache's tag state on
every miss, so the per-line state lives in flat, fixed-width buffers
rather than Python lists or line objects: a :class:`ColumnStore` owns
one ``array('q')`` per word-sized column and one ``bytearray`` per
flag column, and the cache aliases each buffer as a public attribute.

Two invariants make this safe (checked by
``repro.sanitize.checks.check_column_store``):

* the buffers are allocated once and only ever mutated **in place**
  (``col[i] = x``), never rebound — the cache's attributes, the
  reference loop's locals and the sanitizer all alias them directly;
* the coherency ``state`` column stays a plain Python list of
  :class:`~repro.cache.coherence.CoherencyState` members (inspection
  and policy code relies on enum identity), so it is deliberately
  *not* part of this store.
"""

from array import array

#: ``array('q')`` columns: (name, initial element).
WORD_COLUMNS = (("tags", 0), ("line_vaddr", 0), ("line_block", -1))

#: ``bytearray`` flag columns (initially all zero).
FLAG_COLUMNS = ("valid", "prot", "page_dirty", "block_dirty",
                "filled_by_read", "holds_pte")


class ColumnStore:
    """Flat per-line tag columns."""

    def __init__(self, num_lines):
        self.num_lines = num_lines
        self.tags = array("q", bytes(8 * num_lines))
        self.line_vaddr = array("q", bytes(8 * num_lines))
        # Resident block number per line or -1 when invalid; block
        # numbers are non-negative, so -1 never matches a probe.
        self.line_block = array("q", [-1]) * num_lines
        self.valid = bytearray(num_lines)
        self.prot = bytearray(num_lines)
        self.page_dirty = bytearray(num_lines)
        self.block_dirty = bytearray(num_lines)
        self.filled_by_read = bytearray(num_lines)
        self.holds_pte = bytearray(num_lines)

    def columns(self):
        """``(name, buffer)`` pairs for every flat column."""
        for name, _ in WORD_COLUMNS:
            yield name, getattr(self, name)
        for name in FLAG_COLUMNS:
            yield name, getattr(self, name)


__all__ = ["ColumnStore", "WORD_COLUMNS", "FLAG_COLUMNS"]
