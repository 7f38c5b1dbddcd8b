"""Workload abstractions.

A :class:`Workload` is a recipe; :meth:`Workload.instantiate` binds it
to a page size and seed, producing a :class:`WorkloadInstance` whose
reference stream the machine consumes.  Instances are one-shot
(generators are consumed); re-instantiate for each run, which is also
how repetitions get fresh-but-reproducible randomness.

The reference stream has one format: ``access_chunks(chunk_refs)``
yields flat ``array('q')`` buffers holding interleaved ``kind0,
vaddr0, kind1, vaddr1, ...`` pairs.  Every chunk carries exactly
``chunk_refs`` references except the last, which may be short.  The
hot loop in :meth:`repro.machine.simulator.SpurMachine.run_chunks`
consumes these directly.

``accesses()`` is a read-only view of the same stream as
``(kind, vaddr)`` tuples, for tools that inspect references one at a
time (trace recording and characterisation).  Hand-written tuple
traces enter the chunk format through :func:`chunk_accesses`.
"""

from array import array

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


def chunk_accesses(accesses, chunk_refs=DEFAULT_CHUNK_REFS):
    """Batch a ``(kind, vaddr)`` iterator into flat ``array('q')`` chunks.

    The adapter for hand-written traces and bare generators: any
    tuple iterator becomes a chunk stream with exactly ``chunk_refs``
    references per chunk (the last may be short).  Consumes the
    iterator as chunks are pulled, so a one-shot generator stays
    one-shot.
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


def rechunk(segments, chunk_refs=DEFAULT_CHUNK_REFS):
    """Re-cut flat segments into chunks of exactly ``chunk_refs``
    references; only the last may be short."""
    if chunk_refs <= 0:
        raise ValueError("chunk_refs must be positive")
    limit = 2 * chunk_refs
    buf = array("q")
    for segment in segments:
        buf.extend(segment)
        while len(buf) >= limit:
            yield buf[:limit]
            buf = buf[limit:]
    if buf:
        yield buf


def take_chunks(chunks, count):
    """Yield at most ``count`` references' worth of flat chunks.

    The final chunk is trimmed to land on exactly ``count`` total
    references.
    """
    if count < 0:
        raise ValueError(f"reference cap must be >= 0, got {count}")
    remaining = count
    for chunk in chunks:
        pairs = len(chunk) >> 1
        if pairs >= remaining:
            yield chunk[:remaining * 2]
            return
        remaining -= pairs
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
        """The same stream as ``(kind, vaddr)`` tuples.

        Claims the instance at once (like :meth:`access_chunks`), so
        a second use fails here rather than on first iteration.
        """
        return _pairs(self.access_chunks())


def _pairs(chunks):
    """Flatten flat chunks into ``(kind, vaddr)`` tuples."""
    for chunk in chunks:
        it = iter(chunk)
        yield from zip(it, it)


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
