"""Phased synthetic process model.

A :class:`PhasedProcess` walks a script of :class:`Phase` records, each
describing a program phase: which code pages are hot, which slice of
the heap forms the data working set, the read/write mix, how much
read-modify-write behaviour there is (the source of the paper's
:math:`N_{w\\text{-}hit}` events), how fast fresh zero-fill pages are
allocated (the source of :math:`N_{zfod}`), and how much sequential
file scanning happens.

References are emitted in reusable *bursts* — short instruction/data
sequences repeated a few times — which both models loop locality and
keeps Python-side generation cost far below the simulator's per-
reference cost.

Internally every burst, allocation touch, and file scan is one flat
``array('q')`` *segment* in the element format of
:mod:`repro.workloads.base`, yielded with its reference count, and
:meth:`PhasedProcess.access_chunks` re-chunks the segment stream, so
the reference sequence and the RNG draws are the same for every chunk
size.  A burst's instruction fetches are fetch runs: one element per
code block an operation fetches from.

A stream depends only on the workload recipe, seed and page size,
never on the machine that consumes it.  Runs of one stream can
therefore share a :class:`StreamRecording`: the first run keeps every
segment each process yields, and later runs replay those segments
instead of generating them again.
"""

from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import randbelow
from repro.vm.segments import RegionKind
from repro.workloads.base import (
    DEFAULT_CHUNK_REFS, MAX_RUN, READ, RUN_BLOCK_BYTES, WORD_BYTES, WRITE,
    count_refs, rechunk, run_kind)

#: Cache block size assumed by the generators (fixed across scales).
BLOCK_BYTES = RUN_BLOCK_BYTES
_BLOCK_WORDS = MAX_RUN
_WORD_BITS = _BLOCK_WORDS.bit_length()


class ProcessImage:
    """The regions of one process, carved from the global space.

    Parameters are in *pages* of the configured page size; the image
    allocates code, data (file-backed writable), heap and stack
    regions, plus an optional read-only file region for scans.
    """

    def __init__(self, space, code_pages, heap_pages, stack_pages=2,
                 data_pages=0, file_pages=0):
        page = space.space_map.page_bytes
        self.pid = space.pid
        self.page_bytes = page
        self.blocks_per_page = page // BLOCK_BYTES
        self.code = space.add_region("code", RegionKind.CODE,
                                     code_pages * page)
        self.data = (
            space.add_region("data", RegionKind.DATA, data_pages * page)
            if data_pages else None
        )
        self.heap = space.add_region("heap", RegionKind.HEAP,
                                     heap_pages * page)
        self.stack = space.add_region("stack", RegionKind.STACK,
                                      stack_pages * page)
        self.file = (
            space.add_region("file", RegionKind.FILE, file_pages * page)
            if file_pages else None
        )
        self.code_pages = code_pages
        self.heap_pages = heap_pages
        self.data_pages = data_pages
        self.file_pages = file_pages
        self.alloc_cursor = 0   # next fresh heap page to allocate
        self.scan_cursor = 0    # next file page to scan


@dataclass
class Phase:
    """One program phase of a synthetic process.

    Attributes
    ----------
    duration:
        Approximate references to emit.
    code_hot_pages:
        Size of the hot code footprint (pages from the code region's
        start).
    ws_start, ws_pages:
        The heap slice forming this phase's data working set.
    ifetch_per_op:
        Instructions fetched per data operation (the prototype's
        instruction buffer was disabled, so fetches dominate the mix).
    write_frac:
        Fraction of data operations that are writes.
    rmw_frac:
        Fraction of *writes* preceded by a read of the same block —
        these populate the cache by read and modify later, producing
        w-hit events and (while the page is clean) excess faults.
    alloc_pages:
        Fresh zero-fill heap pages touched during the phase,
        write-first (Sprite's ZFOD behaviour).
    alloc_write_frac:
        Fraction of each fresh page's blocks written at allocation.
    scan_pages:
        File pages read sequentially during the phase.
    data_skew:
        Zipf-style skew of page popularity inside the working set.
    stack_frac:
        Fraction of data operations directed at the stack top.
    """

    duration: int
    code_hot_pages: int = 2
    ws_start: int = 0
    ws_pages: int = 4
    ifetch_per_op: int = 3
    write_frac: float = 0.30
    rmw_frac: float = 0.20
    alloc_pages: int = 0
    alloc_write_frac: float = 0.75
    scan_pages: int = 0
    data_skew: float = 1.0
    stack_frac: float = 0.05
    #: Fraction of data operations directed at the file-backed
    #: writable DATA region (read-mostly: mailboxes, editor buffers,
    #: mapped databases).  These are the pages Table 3.5 finds clean
    #: at replacement.
    data_frac: float = 0.0
    data_ws_pages: int = 0
    data_write_frac: float = 0.05

    def validate(self, image):
        """Check the phase fits the image's regions; raise if not."""
        if self.duration <= 0:
            raise ConfigurationError("phase duration must be positive")
        if not 0 < self.code_hot_pages <= image.code_pages:
            raise ConfigurationError("hot code must fit the code region")
        if not 0 < self.ws_pages <= image.heap_pages - self.ws_start:
            raise ConfigurationError(
                "working set must fit the heap region"
            )
        if self.scan_pages and image.file is None:
            raise ConfigurationError("phase scans but image has no file")
        if self.data_frac:
            if image.data is None:
                raise ConfigurationError(
                    "phase touches data but image has no data region"
                )
            if self.data_ws_pages > image.data_pages:
                raise ConfigurationError(
                    "data working set exceeds the data region"
                )
        if not 0 <= self.write_frac <= 1 or not 0 <= self.rmw_frac <= 1:
            raise ConfigurationError("fractions must lie in [0, 1]")


#: Most bytes of unique segments one :class:`StreamRecording` holds.
#: A length-1 stream records 3.3 MB (SLC) to 4.4 MB (WORKLOAD1), so
#: this admits streams up to length ~14; longer ones regenerate rather
#: than hold hundreds of MB.
RECORDING_BUDGET_BYTES = 64 << 20

#: The recording that processes built in this context join, if any.
#: A context variable, set and reset by :meth:`StreamRecording.active`,
#: because neither ``ExperimentRunner.run`` nor
#: ``Workload.instantiate`` carries a recording down to the processes.
_ACTIVE_RECORDING = ContextVar("active_stream_recording", default=None)


class _Tape:
    """The counted segments one process yielded, in order."""

    __slots__ = ("recording", "segments", "finished")

    def __init__(self, recording):
        self.recording = recording
        self.segments = []
        #: Set once the generator ran to its end; only a finished tape
        #: is replayed.
        self.finished = False

    def record(self, segments):
        """Yield counted *segments*, keeping each one while the
        recording is within budget."""
        keep = self.recording.keep
        keeping = True
        for item in segments:
            if keeping:
                keeping = keep(self, item)
            yield item
        self.finished = keeping


class StreamRecording:
    """One reference stream, recorded by one run and replayed by later
    runs of the same stream.

    A stream is identified by its workload recipe, seed and page
    size; the caller guarantees that every run made under
    :meth:`active` instantiates the same stream.  Each
    :class:`PhasedProcess` built while the recording is active claims
    the tape at its construction index, so process *i* of a later run
    replays what process *i* of the recording run yielded.  A burst
    yielded several times is stored once, as the same ``array``, and
    each segment is kept with its reference count, so a replay never
    recounts.

    A run replays only when every tape of the previous recording run
    finished; a run that raised mid-stream left a partial recording,
    which the next run discards and records afresh.  Once the unique
    segments pass :data:`RECORDING_BUDGET_BYTES` the recording is
    abandoned and every later run generates its own stream.
    """

    def __init__(self):
        self._tapes = []
        self._next = 0
        self._replaying = False
        self._recording = False
        self._seen = set()
        self.nbytes = 0
        self.abandoned = False

    @property
    def complete(self):
        """Whether a replayable recording is held."""
        return bool(self._tapes) and all(
            tape.finished for tape in self._tapes
        )

    @contextmanager
    def active(self, last=False):
        """Make this the recording that processes built in the block
        join.

        The block replays a complete recording, or else records one
        unless it is the *last* run of the stream, which nothing would
        replay.  After the last run the recording is dropped.
        """
        self._next = 0
        self._replaying = self.complete
        self._recording = not (self._replaying or last or self.abandoned)
        if self._recording:
            self._drop()
        token = _ACTIVE_RECORDING.set(self)
        try:
            yield self
        finally:
            _ACTIVE_RECORDING.reset(token)
            self._seen = set()
            if last:
                self._drop()

    def _drop(self):
        for tape in self._tapes:
            tape.segments = []
        self._tapes = []
        self._seen = set()
        self.nbytes = 0

    def claim(self):
        """The tape for the next process built, or ``None``."""
        index = self._next
        self._next += 1
        if self._replaying:
            return self._tapes[index] if index < len(self._tapes) else None
        if not self._recording:
            return None
        tape = _Tape(self)
        self._tapes.append(tape)
        return tape

    def keep(self, tape, item):
        """Append the counted segment *item* to *tape*; ``False`` once
        abandoned."""
        if self.abandoned:
            return False
        segment = item[0]
        key = id(segment)
        if key not in self._seen:
            self._seen.add(key)
            self.nbytes += len(segment) * segment.itemsize
            if self.nbytes > RECORDING_BUDGET_BYTES:
                self.abandoned = True
                self._drop()
                return False
        tape.segments.append(item)
        return True


class PhasedProcess:
    """Generator of one process's reference stream from a phase script."""

    def __init__(self, image, phases, rng, burst_ops=48,
                 burst_repeats=(3, 8)):
        self.image = image
        self.phases = list(phases)
        for phase in self.phases:
            phase.validate(image)
        self.rng = rng
        self.burst_ops = burst_ops
        self.burst_repeats = burst_repeats
        self.length_hint = sum(p.duration for p in self.phases)
        self._code_rings = {}
        recording = _ACTIVE_RECORDING.get()
        self._tape = recording.claim() if recording is not None else None

    def access_chunks(self, chunk_refs=DEFAULT_CHUNK_REFS):
        """Yield flat ``array('q')`` chunks of ``chunk_refs`` references.

        Drains :meth:`segments`; every chunk is exactly
        ``chunk_refs`` references except the last.
        """
        return rechunk(self.segments(), chunk_refs)

    # -- phase machinery ---------------------------------------------------

    def segments(self):
        """Yield counted segments, ``(array, references)`` pairs,
        across all phases in order.

        Replays this process's tape when the active
        :class:`StreamRecording` holds a finished one, and records
        onto it otherwise.
        """
        tape = self._tape
        if tape is None:
            yield from self._generate()
        elif tape.finished:
            yield from tape.segments
        else:
            yield from tape.record(self._generate())

    def _generate(self):
        for phase in self.phases:
            yield from self._phase_segments(phase)

    def _phase_segments(self, phase):
        rng = self.rng
        emitted = 0
        # Spread allocations and scans evenly through the phase.
        # A bound no emitted count can reach (bursts may overshoot the
        # phase duration by one burst, never by orders of magnitude).
        never = float("inf")
        alloc_every = (
            phase.duration // phase.alloc_pages if phase.alloc_pages
            else never
        )
        scan_every = (
            phase.duration // phase.scan_pages if phase.scan_pages
            else never
        )
        next_alloc = alloc_every
        next_scan = scan_every

        while emitted < phase.duration:
            burst = self._make_burst(phase)
            burst_refs = count_refs(burst)
            item = (burst, burst_refs)
            low, high = self.burst_repeats
            for _ in range(rng.randint(low, high)):
                yield item
                emitted += burst_refs
                if emitted >= next_alloc:
                    alloc = self._alloc_page(phase)
                    alloc_refs = len(alloc) >> 1
                    yield alloc, alloc_refs
                    emitted += alloc_refs
                    next_alloc += alloc_every
                if emitted >= next_scan:
                    scan = self._scan_page()
                    scan_refs = len(scan) >> 1
                    yield scan, scan_refs
                    emitted += scan_refs
                    next_scan += scan_every
                if emitted >= phase.duration:
                    break

    def _make_burst(self, phase):
        """Build one reusable loop-body burst as a flat segment.

        A Zipf-like page index in ``[0, n)`` is ``min(int(n * u ** (1.0
        + skew)), n - 1)`` for one ``u = random()``, or
        :func:`~repro.common.rng.randbelow` when ``skew <= 0``.
        """
        image = self.image
        random, getrandbits = self.rng.draws()
        page_bytes = image.page_bytes
        blocks = image.blocks_per_page
        block_bits = blocks.bit_length()
        stack_top = image.stack.end - page_bytes
        data_base = image.data.start if image.data is not None else 0
        stack_frac = phase.stack_frac
        data_cut = stack_frac + phase.data_frac
        data_pages = max(1, phase.data_ws_pages)
        data_write_frac = phase.data_write_frac
        ws_base = image.heap.start + phase.ws_start * page_bytes
        ws_pages = phase.ws_pages
        ws_uniform = phase.data_skew <= 0
        ws_exp = 1.0 + phase.data_skew
        write_frac = phase.write_frac
        rmw_frac = phase.rmw_frac

        # ``append``, not ``extend`` of a tuple: about twice as fast.
        burst = array("q")
        append = burst.append

        # One hot code page per burst, fetched sequentially — a loop:
        # each op's fetch runs are a slice of the page's ring.
        n = phase.code_hot_pages
        code_page = min(int(n * (random() ** (1.0 + 1.5))), n - 1)
        fetches = phase.ifetch_per_op
        ring = self._code_rings.get((code_page, fetches))
        if ring is None:
            ring = self._code_rings[code_page, fetches] = _fetch_ring(
                image.code.start + code_page * page_bytes, page_bytes,
                fetches)
        runs, bounds = ring
        page_words = page_bytes // WORD_BYTES
        at = _BLOCK_WORDS * randbelow(getrandbits, blocks)

        for _ in range(self.burst_ops):
            burst += runs[bounds[at]:bounds[at + 1]]
            at = (at + fetches) % page_words

            roll = random()
            if roll < stack_frac:
                # Stack traffic: write-then-read near the top.
                addr = stack_top + BLOCK_BYTES * randbelow(getrandbits, blocks)
                append(WRITE)
                append(addr)
                append(READ)
                append(addr)
                continue
            if roll < data_cut:
                # Read-mostly traffic over file-backed writable data.
                data_page = min(int(data_pages * random() ** (1.0 + 0.3)),
                                data_pages - 1)
                addr = (data_base + data_page * page_bytes
                        + randbelow(getrandbits, blocks) * BLOCK_BYTES)
                append(WRITE if random() < data_write_frac else READ)
                append(addr)
                continue

            if ws_uniform:
                index = randbelow(getrandbits, ws_pages)
            else:
                index = int(ws_pages * (random() ** ws_exp))
                if index >= ws_pages:
                    index = ws_pages - 1
            page_base = ws_base + index * page_bytes
            # ``randbelow`` written out: a call for these two draws
            # costs 12-16% of a burst (docs/performance.md).
            block = getrandbits(block_bits)
            while block >= blocks:
                block = getrandbits(block_bits)
            word = getrandbits(_WORD_BITS)
            while word >= _BLOCK_WORDS:
                word = getrandbits(_WORD_BITS)
            addr = page_base + block * BLOCK_BYTES + word * WORD_BYTES
            if random() < write_frac:
                if random() < rmw_frac:
                    # Scatter-gather update: read a run of consecutive
                    # blocks, then write most of them back.  This is
                    # the Figure 3.1 pattern — several blocks of one
                    # page enter the cache by read and are modified
                    # afterwards — and is what generates the paper's
                    # N_w-hit events and, while the page is still
                    # clean, its excess faults / dirty-bit misses.
                    span = 2 + randbelow(getrandbits, 2)
                    run = [
                        page_base + ((block + i) % blocks) * BLOCK_BYTES
                        for i in range(span)
                    ]
                    for run_addr in run:
                        append(READ)
                        append(run_addr)
                    for run_addr in run:
                        if random() < 0.55:
                            append(WRITE)
                            append(run_addr)
                else:
                    append(WRITE)
                    append(addr)
            else:
                append(READ)
                append(addr)
        return burst

    def _alloc_page(self, phase):
        """Touch one fresh zero-fill heap page, write-first."""
        image = self.image
        page = image.alloc_cursor % image.heap_pages
        image.alloc_cursor += 1
        base = image.heap.start + page * image.page_bytes
        written = max(1, int(image.blocks_per_page
                             * phase.alloc_write_frac))
        return _refs(WRITE, range(base, base + written * BLOCK_BYTES,
                                  BLOCK_BYTES))

    def _scan_page(self):
        """Sequentially read one file page (compiler input, etc.)."""
        image = self.image
        page = image.scan_cursor % image.file_pages
        image.scan_cursor += 1
        base = image.file.start + page * image.page_bytes
        end = base + image.blocks_per_page * BLOCK_BYTES
        return _refs(READ, range(base, end, BLOCK_BYTES))


def _fetch_ring(base, page_bytes, fetches):
    """``(runs, bounds)``: for each starting word of the code page at
    *base*, one operation's fetch runs, back to back in *runs*; the
    operation starting at word *w* is ``runs[bounds[w]:bounds[w + 1]]``.
    An operation fetches *fetches* sequential words, wrapping at the
    page's end, as one run per block it touches."""
    page_words = page_bytes // WORD_BYTES
    runs = array("q")
    bounds = array("q", [0])
    for first in range(page_words):
        offset = 0
        while offset < fetches:
            word = (first + offset) % page_words
            n = min(fetches - offset, _BLOCK_WORDS - word % _BLOCK_WORDS)
            runs.append(run_kind(n))
            runs.append(base + word * WORD_BYTES)
            offset += n
        bounds.append(len(runs))
    return runs, bounds


def _refs(kind, addrs):
    """A flat segment of one *kind* reference to each of *addrs*."""
    return array("q", [item for addr in addrs for item in (kind, addr)])
