"""Workload abstractions and the reference stream's element format.

A :class:`Workload` is a recipe; :meth:`Workload.instantiate` binds it
to a page size and seed, producing a :class:`WorkloadInstance` whose
reference stream the machine consumes.  Instances are one-shot
(generators are consumed); re-instantiate for each run, which is also
how repetitions get fresh-but-reproducible randomness.

The reference stream has one format: ``access_chunks(chunk_refs)``
yields flat ``array('q')`` buffers of two-word *elements*, ``kind0,
vaddr0, kind1, vaddr1, ...``.  The kind word says how many references
an element stands for:

* ``0``, ``1`` and ``2`` (:data:`IFETCH`, :data:`READ`,
  :data:`WRITE`, matching ``int(AccessKind.*)``) are one reference to
  ``vaddr``;
* ``4 * (n - 1)`` for ``2 <= n <= 8`` (:func:`run_kind`) is a *fetch
  run*: ``n`` instruction fetches of the consecutive words ``vaddr,
  vaddr + 4, ...``, all inside one :data:`RUN_BLOCK_BYTES`-byte
  block.

A run is what an instruction burst fetches from one cache block; the
prototype ran with its instruction buffer disabled, so every word is
a cache reference, and after the first of them the rest hit.  The
kind's low-order byte identifies it, so a chunk's kind bytes
(:func:`chunk_kinds`) tally reads and writes with ``bytes.count``
and give the reference count (:func:`kinds_refs`) at C speed.

Every chunk carries exactly ``chunk_refs`` *references* except the
last, which may be short; a chunk boundary that falls inside a run
splits it (:func:`split_refs`).  Generators yield *counted segments*,
``(array, references)`` pairs, and :func:`rechunk` cuts them into
chunks.  The hot loop in
:meth:`repro.machine.simulator.SpurMachine.run_chunks` consumes the
chunks directly.

``accesses()`` is a read-only view of the same stream as one ``(kind,
vaddr)`` tuple per reference, runs expanded (:func:`expand_runs`),
for tools that inspect references one at a time (characterisation).
Hand-written tuple traces enter the chunk format through
:func:`chunk_accesses`.
"""

from array import array
from bisect import bisect_left
from itertools import accumulate
import sys

from repro.common.rng import DeterministicRng

#: Integer access kinds matching ``int(AccessKind.*)``; workload code
#: uses these bare ints for speed.
IFETCH = 0
READ = 1
WRITE = 2

#: References per flat chunk.  Big enough to amortise chunk
#: bookkeeping, small enough that a chunk stays cache-resident on the
#: host and a max_references cap wastes little generation work.
DEFAULT_CHUNK_REFS = 4096

#: A fetch run stays inside one aligned block of this many bytes (the
#: generators' and every shipped cache's block size).
RUN_BLOCK_BYTES = 32
WORD_BYTES = 4
#: Most fetches one element stands for: every word of one block.
MAX_RUN = RUN_BLOCK_BYTES // WORD_BYTES

# Offset of a kind's low-order byte in its two-word ``array('q')``
# element (native byte order).
_KIND_BYTE = 0 if sys.byteorder == "little" else 7
_ELEMENT_BYTES = 16

#: ``(extra references, kind byte)`` for each run length above one.
_RUN_EXTRAS = tuple((n - 1, (n - 1) << 2) for n in range(2, MAX_RUN + 1))

#: Kind byte -> references the element stands for.
KIND_REFS = bytes(
    (kind >> 2) + 1 if kind > WRITE else 1 for kind in range(256)
)


def run_kind(n):
    """The kind word of a run of *n* fetches (``IFETCH`` for one)."""
    return (n - 1) << 2


def chunk_kinds(chunk):
    """Each element's kind byte, as one ``bytes`` object."""
    return chunk.tobytes()[_KIND_BYTE::_ELEMENT_BYTES]


def kinds_refs(kinds):
    """The references that elements with these kind bytes stand for."""
    refs = len(kinds)
    count = kinds.count
    for extra, kind in _RUN_EXTRAS:
        refs += extra * count(kind)
    return refs


def count_refs(chunk):
    """The references one flat chunk or segment stands for."""
    return kinds_refs(chunk_kinds(chunk))


def split_refs(chunk, refs):
    """``(head, tail)``: the first *refs* references of *chunk* and
    the rest.

    A run that straddles the cut becomes two runs, one ending the
    head and one starting the tail.  *refs* at or beyond the chunk's
    count leaves the tail empty.
    """
    if refs <= 0:
        return chunk[:0], chunk
    weights = chunk_kinds(chunk).translate(KIND_REFS)
    if weights.count(1) == len(weights):
        cut = refs << 1
        return chunk[:cut], chunk[cut:]
    totals = list(accumulate(weights))
    if refs >= totals[-1]:
        return chunk, chunk[:0]
    index = bisect_left(totals, refs)
    at = index << 1
    if totals[index] == refs:
        return chunk[:at + 2], chunk[at + 2:]
    before = refs - (totals[index - 1] if index else 0)
    vaddr = chunk[at + 1]
    head = chunk[:at]
    head.append(run_kind(before))
    head.append(vaddr)
    tail = array("q", (run_kind(weights[index] - before),
                       vaddr + before * WORD_BYTES))
    tail += chunk[at + 2:]
    return head, tail


def expand_runs(chunks):
    """One ``(kind, vaddr)`` tuple per reference of *chunks*, each run
    expanded into its fetches."""
    for chunk in chunks:
        it = iter(chunk)
        for kind, vaddr in zip(it, it):
            if kind <= WRITE:
                yield kind, vaddr
            else:
                for word in range((kind >> 2) + 1):
                    yield IFETCH, vaddr + word * WORD_BYTES


def counted(chunks):
    """*chunks* as counted segments, ``(chunk, references)`` pairs."""
    for chunk in chunks:
        yield chunk, count_refs(chunk)


def chunk_accesses(accesses, chunk_refs=DEFAULT_CHUNK_REFS):
    """Batch a ``(kind, vaddr)`` iterator into flat ``array('q')`` chunks.

    The adapter for hand-written traces and bare generators: any
    tuple iterator becomes a chunk stream with exactly ``chunk_refs``
    elements per chunk (the last may be short), one per tuple.
    Consumes the iterator as chunks are pulled, so a one-shot
    generator stays one-shot.
    """
    if chunk_refs <= 0:
        raise ValueError("chunk_refs must be positive")
    limit = 2 * chunk_refs
    buf = array("q")
    append = buf.append
    for kind, vaddr in accesses:
        append(kind)
        append(vaddr)
        if len(buf) == limit:
            yield buf
            buf = array("q")
            append = buf.append
    if buf:
        yield buf


def slices(segments, size):
    """Group counted segments into lists of ``(segment, references)``
    pieces holding exactly *size* references each; only the last may
    hold fewer.  A segment that crosses a boundary is split there
    (:func:`split_refs`)."""
    if size <= 0:
        raise ValueError("slice size must be positive")
    pieces = []
    held = 0
    for segment, refs in segments:
        while held + refs >= size:
            take = size - held
            if take == refs:
                pieces.append((segment, refs))
                refs = 0
            else:
                head, segment = split_refs(segment, take)
                pieces.append((head, take))
                refs -= take
            yield pieces
            pieces = []
            held = 0
        if refs:
            pieces.append((segment, refs))
            held += refs
    if pieces:
        yield pieces


def rechunk(segments, chunk_refs=DEFAULT_CHUNK_REFS):
    """Cut counted segments into fresh chunks of exactly
    ``chunk_refs`` references; only the last may be short."""
    if chunk_refs <= 0:
        raise ValueError("chunk_refs must be positive")
    for pieces in slices(segments, chunk_refs):
        chunk = array("q")
        for piece, _ in pieces:
            chunk += piece
        yield chunk


def take_chunks(chunks, count):
    """Yield at most ``count`` references' worth of flat chunks.

    The final chunk is cut to land on exactly ``count`` total
    references.
    """
    if count < 0:
        raise ValueError(f"reference cap must be >= 0, got {count}")
    remaining = count
    for chunk in chunks:
        refs = count_refs(chunk)
        if refs >= remaining:
            yield split_refs(chunk, remaining)[0]
            return
        remaining -= refs
        yield chunk


class WorkloadInstance:
    """A bound, runnable workload.

    Attributes
    ----------
    name:
        Workload name, e.g. ``"WORKLOAD1"``.
    space_map:
        The :class:`repro.vm.segments.AddressSpaceMap` describing every
        region the reference stream can touch.
    length_hint:
        Approximate number of references the stream will yield.

    ``chunk_factory(chunk_refs)`` builds the flat-chunk stream.
    """

    def __init__(self, name, space_map, chunk_factory, length_hint):
        self.name = name
        self.space_map = space_map
        self._chunk_factory = chunk_factory
        self.length_hint = length_hint
        self._consumed = False

    def _claim(self):
        if self._consumed:
            raise RuntimeError(
                "workload instance already consumed; instantiate a "
                "fresh one per run"
            )
        self._consumed = True

    def access_chunks(self, chunk_refs=DEFAULT_CHUNK_REFS):
        """The flat-chunk stream.  One-shot per instance."""
        self._claim()
        return self._chunk_factory(chunk_refs)

    def accesses(self):
        """The same stream as one ``(kind, vaddr)`` tuple per
        reference, runs expanded.

        Claims the instance at once (like :meth:`access_chunks`), so
        a second use fails here rather than on first iteration.
        """
        return expand_runs(self.access_chunks())


class Workload:
    """Base class for workload recipes."""

    #: Name used in result tables; matches the paper where applicable.
    name = "ABSTRACT"

    def instantiate(self, page_bytes, seed=0):
        """Bind to a page size and seed; returns a WorkloadInstance."""
        raise NotImplementedError

    def _rng(self, seed):
        """Seeded RNG namespaced by workload, so WORKLOAD1 seed 3 and
        SLC seed 3 do not share draws."""
        return DeterministicRng(seed).substream(self.name)
