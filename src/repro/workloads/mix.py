"""Multiprogramming: round-robin interleave of process streams.

The paper's workloads are multi-process scripts under Sprite; context
switches matter to the cache (each quantum refills it with the new
process's blocks, which is part of why the MISS approximation tracks
recency reasonably well).  The scheduler interleaves the per-process
generators in fixed-size quanta, dropping processes as they exit.

Both compositions emit flat ``array('q')`` chunks: the scheduler
pulls each process's stream in whole-quantum chunks and re-chunks the
interleaved sequence.
"""

from repro.workloads.base import DEFAULT_CHUNK_REFS, chunk_accesses, rechunk


def _chunk_stream(proc, chunk_refs):
    """A flat-chunk stream for one scheduled process.

    Processes with an ``access_chunks`` method (e.g.
    :class:`~repro.workloads.synthetic.PhasedProcess`,
    :class:`SerialChain`) chunk themselves; bare ``(kind, vaddr)``
    iterables go through the adapter.
    """
    if hasattr(proc, "access_chunks"):
        return proc.access_chunks(chunk_refs)
    return chunk_accesses(proc, chunk_refs)


def serial(processes):
    """Chain several processes back to back as one stream.

    Models a shell script's sequential jobs (compile; compile; link)
    occupying one scheduler slot: each job is a separate process image
    whose pages go dead when it exits.  Returns a :class:`SerialChain`.
    """
    return SerialChain(processes)


class SerialChain:
    """Sequential composition of process reference streams."""

    def __init__(self, processes):
        self.processes = list(processes)

    def access_chunks(self, chunk_refs=DEFAULT_CHUNK_REFS):
        """Yield exact ``chunk_refs``-sized flat chunks across jobs.

        Chunks span job boundaries: only the final chunk of the whole
        chain may be short.
        """
        jobs = (chunk for proc in self.processes
                for chunk in _chunk_stream(proc, chunk_refs))
        return rechunk(jobs, chunk_refs)


class RoundRobinScheduler:
    """Interleave several reference generators in quanta.

    Parameters
    ----------
    processes:
        Iterable of objects with an ``access_chunks()`` method (e.g.,
        :class:`repro.workloads.synthetic.PhasedProcess`), bare
        ``(kind, vaddr)`` generators, or ``(process, weight)`` pairs
        where ``weight`` scales the process's quantum (a weight-2 process gets twice
        the slice — crude priorities, enough for background jobs).
    quantum:
        References per time slice.
    """

    def __init__(self, processes, quantum=8192):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._entries = []
        for item in processes:
            if isinstance(item, tuple):
                proc, weight = item
            else:
                proc, weight = item, 1.0
            slice_size = max(1, int(quantum * weight))
            self._entries.append((proc, slice_size))

    def access_chunks(self, chunk_refs=DEFAULT_CHUNK_REFS):
        """Yield the interleaved stream as exact flat chunks.

        Each round pulls one whole ``slice_size`` chunk per live
        process and re-chunks the concatenation to ``chunk_refs``
        boundaries.  A short (or missing) per-process chunk marks that
        process finished.
        """
        return rechunk(self._quanta(), chunk_refs)

    def _quanta(self):
        streams = [
            (_chunk_stream(proc, slice_size), slice_size)
            for proc, slice_size in self._entries
        ]
        while streams:
            finished = []
            for entry in streams:
                stream, slice_size = entry
                chunk = next(stream, None)
                if chunk is None:
                    finished.append(entry)
                    continue
                yield chunk
                if len(chunk) >> 1 < slice_size:
                    finished.append(entry)
            for entry in finished:
                streams.remove(entry)
