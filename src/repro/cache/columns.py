"""Flat columnar storage for the cache's per-line tag state.

The simulator's reference loop (:meth:`repro.machine.simulator.
SpurMachine._run_refs`) reads and writes the cache's tag state on
every reference, so the per-line state lives in flat parallel columns
rather than line objects: a :class:`ColumnStore` owns the tag column
and one ``bytearray`` per flag column, and the cache aliases each as a
public attribute.

``line_block`` is the only tag: the resident block number of each
line, or -1 when the line is invalid.  Validity (``line_block[i] >=
0``), the address tag (``line_block[i] >> index_bits``) and the
block-aligned fill address (``line_block[i] << block_bits``) are all
functions of it, so no column stores them.  It is a plain ``list``:
the hit compare ``line_block[index] == block`` that every reference
makes then reads the int object the last install stored, where an
``array('q')`` would box a new one per read.  Even the prototype's
4096 lines cost the list under 200 KB.

Two invariants make this safe (checked by
``repro.sanitize.checks.check_column_store``):

* the columns are allocated once and only ever mutated **in place**
  (``col[i] = x``), never rebound — the cache's attributes, the
  reference loop's locals and the sanitizer all alias them directly;
* the coherency ``state`` column stays a plain Python list of
  :class:`~repro.cache.coherence.CoherencyState` members (inspection
  and policy code relies on enum identity), so it is deliberately
  *not* part of this store.
"""

#: Word columns, held as lists: (name, initial element).
WORD_COLUMNS = (("line_block", -1),)

#: ``bytearray`` flag columns (initially all zero).
FLAG_COLUMNS = ("prot", "page_dirty", "block_dirty", "holds_pte")

#: Flag columns that hold only 0/1 (``prot`` is a two-bit encoding).
BOOL_COLUMNS = ("page_dirty", "block_dirty", "holds_pte")

#: Every per-line tag array a :class:`~repro.cache.cache.VirtualCache`
#: keeps: the flat columns plus the coherency ``state`` list.  The
#: sanitizer's checks and the lint's tag-array write rule (R002) both
#: read this one declaration.
TAG_ARRAYS = (
    tuple(name for name, _ in WORD_COLUMNS) + FLAG_COLUMNS + ("state",)
)


class ColumnStore:
    """Flat per-line tag columns."""

    def __init__(self, num_lines):
        self.num_lines = num_lines
        # Resident block number per line or -1 when invalid; block
        # numbers are non-negative, so -1 never matches a probe.
        for name, initial in WORD_COLUMNS:
            setattr(self, name, [initial] * num_lines)
        for name in FLAG_COLUMNS:
            setattr(self, name, bytearray(num_lines))

    def columns(self):
        """``(name, buffer)`` pairs for every flat column."""
        for name, _ in WORD_COLUMNS:
            yield name, getattr(self, name)
        for name in FLAG_COLUMNS:
            yield name, getattr(self, name)


__all__ = ["ColumnStore", "WORD_COLUMNS", "FLAG_COLUMNS", "BOOL_COLUMNS",
           "TAG_ARRAYS"]
