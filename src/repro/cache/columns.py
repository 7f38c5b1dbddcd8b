"""Flat columnar storage for the cache's per-line tag state.

The chunked hot loop (:meth:`repro.machine.simulator.SpurMachine.
run_chunks`) classifies whole reference segments against the cache in
one vectorized pass.  That only works if the per-line tag state lives
in flat, fixed-width buffers rather than Python lists: a
:class:`ColumnStore` owns one ``array('q')`` per word-sized column and
one ``bytearray`` per flag column, and — when numpy is importable —
exposes zero-copy ``numpy`` views over the *same* buffers so the
batched classifier sees every scalar mutation the slow paths make,
with no synchronisation step.

Two invariants make this safe (checked by
``repro.sanitize.checks.check_column_store``):

* the buffers are allocated once and only ever mutated **in place**
  (``col[i] = x``), never rebound — the sanitizer and the numpy views
  both alias them directly;
* the coherency ``state`` column stays a plain Python list of
  :class:`~repro.cache.coherence.CoherencyState` members (inspection
  and policy code relies on enum identity), so it is deliberately
  *not* part of this store.

``numpy`` is optional.  Without it ``views`` is ``None`` and the
simulator's per-reference fallback loop runs against the ``array``/
``bytearray`` columns directly — same buffers, same results.
"""

from array import array

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via views=None paths
    _np = None

HAVE_NUMPY = _np is not None

#: ``array('q')`` columns: (name, initial element).
WORD_COLUMNS = (("tags", 0), ("line_vaddr", 0), ("line_block", -1))

#: ``bytearray`` flag columns (initially all zero).
FLAG_COLUMNS = ("valid", "prot", "page_dirty", "block_dirty",
                "filled_by_read", "holds_pte")


class ColumnViews:
    """Read-only numpy views over a :class:`ColumnStore`'s buffers.

    One attribute per column, each a zero-copy ``numpy`` array sharing
    memory with the backing ``array``/``bytearray`` — in-place scalar
    writes to the columns are immediately visible here.  The views are
    marked non-writeable: all mutation goes through the cache's
    methods (lint rule R002), never through a view.
    """

    __slots__ = tuple(name for name, _ in WORD_COLUMNS) + FLAG_COLUMNS


class ColumnStore:
    """Flat per-line tag columns plus optional numpy views."""

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
        self.views = self._build_views()

    def _build_views(self):
        if _np is None:
            return None
        views = ColumnViews()
        for name, _ in WORD_COLUMNS:
            view = _np.frombuffer(getattr(self, name), dtype=_np.int64)
            view.flags.writeable = False
            setattr(views, name, view)
        for name in FLAG_COLUMNS:
            view = _np.frombuffer(getattr(self, name), dtype=_np.uint8)
            view.flags.writeable = False
            setattr(views, name, view)
        return views

    def columns(self):
        """``(name, buffer)`` pairs for every flat column."""
        for name, _ in WORD_COLUMNS:
            yield name, getattr(self, name)
        for name in FLAG_COLUMNS:
            yield name, getattr(self, name)


__all__ = ["ColumnStore", "ColumnViews", "HAVE_NUMPY",
           "WORD_COLUMNS", "FLAG_COLUMNS"]
