"""Multiprogramming: round-robin interleave of process streams.

The paper's workloads are multi-process scripts under Sprite; context
switches matter to the cache (each quantum refills it with the new
process's blocks, which is part of why the MISS approximation tracks
recency reasonably well).  The scheduler interleaves the per-process
generators in fixed-size quanta, dropping processes as they exit.

Both compositions work on counted segments (see
:mod:`repro.workloads.base`): the scheduler cuts each process's
segments into quanta of exact reference counts, and the interleaved
segments are cut into chunks once, at the top.
"""

from repro.workloads.base import (
    DEFAULT_CHUNK_REFS, chunk_accesses, counted, rechunk, slices)


def _segments(proc):
    """The counted segments of one scheduled process.

    Processes with a ``segments`` method (e.g.
    :class:`~repro.workloads.synthetic.PhasedProcess`,
    :class:`SerialChain`) yield their own; the chunks of ones with
    only ``access_chunks``, and of bare ``(kind, vaddr)`` iterables
    (through the adapter), are counted one by one.
    """
    if hasattr(proc, "segments"):
        return proc.segments()
    if hasattr(proc, "access_chunks"):
        return counted(proc.access_chunks(DEFAULT_CHUNK_REFS))
    return counted(chunk_accesses(proc))


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

    def segments(self):
        """Every job's counted segments, job after job."""
        for proc in self.processes:
            yield from _segments(proc)

    def access_chunks(self, chunk_refs=DEFAULT_CHUNK_REFS):
        """Yield exact ``chunk_refs``-sized flat chunks across jobs.

        Chunks span job boundaries: only the final chunk of the whole
        chain may be short.
        """
        return rechunk(self.segments(), chunk_refs)


class RoundRobinScheduler:
    """Interleave several reference generators in quanta.

    Parameters
    ----------
    processes:
        Iterable of objects with a ``segments()`` or
        ``access_chunks()`` method (e.g.,
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
        """Yield the interleaved stream as exact flat chunks."""
        return rechunk(self.segments(), chunk_refs)

    def segments(self):
        """The interleaved counted segments.

        Each round takes one ``slice_size``-reference quantum from
        every live process, in order; a process whose stream is
        exhausted drops out.
        """
        streams = [
            slices(_segments(proc), slice_size)
            for proc, slice_size in self._entries
        ]
        while streams:
            for stream in list(streams):
                quantum = next(stream, None)
                if quantum is None:
                    streams.remove(stream)
                else:
                    yield from quantum
