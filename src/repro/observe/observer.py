"""The run observer: attach, sample on an epoch cadence, detach.

A :class:`RunObserver` watches a live :class:`SpurMachine` and
snapshots the full counter bank every
``epoch_refs`` references, producing the per-event time series the
paper could only approximate by re-running workloads under different
counter modes.  The design constraints, in order:

**Provably inert.**  Observation must never change what a run
measures: every counter, cycle, and VM outcome of an observed run is
bit-identical to the unobserved run.  The observer therefore never
touches the hot loop.  Like the sanitizer, it *wraps* the machine's
``run_chunks`` entry point (which the tuple convenience ``run`` also
goes through), re-segmenting the reference stream at epoch boundaries
and feeding each epoch through the original method — and because the
hot loop is bit-identical for any chunking (the ``run_chunks``
contract), re-segmentation changes nothing but where the observer
gets to look.

**Exact poll schedules.**  The one piece of per-call state is the page
daemon's poll schedule: ``run_chunks`` restarts its reference count
per call, so an epoch boundary that is not a multiple of
``daemon_poll_refs`` would shift later poll points.  The observer
rounds its cadence up to the next multiple of the poll interval
(:func:`effective_epoch_refs`), which keeps the global poll schedule
exactly what a single unobserved call would produce.  With polling
disabled any cadence is exact.

**Near-zero overhead when disabled.**  Nothing here is imported or
attached unless observation is requested; the hot loops carry no
observation branches at all.
"""

import time

from repro.observe.series import (
    DEFAULT_EPOCH_REFS,
    EpochSample,
    RunObservation,
)
from repro.workloads.base import count_refs, split_refs


def effective_epoch_refs(epoch_refs, alignment):
    """Round *epoch_refs* up to a multiple of *alignment*.

    ``alignment`` is the machine's poll interval (1 when polling is
    disabled): sampling at aligned boundaries replays the exact poll
    schedule of an unobserved single-call run.
    """
    if epoch_refs < 1:
        raise ValueError("epoch_refs must be positive")
    if alignment <= 1:
        return epoch_refs
    return ((epoch_refs + alignment - 1) // alignment) * alignment


class RunObserver:
    """Samples counter snapshots from a running machine.

    Parameters
    ----------
    epoch_refs:
        Requested references per sample; rounded up to the machine's
        observation alignment at attach time (see module docs).
    label:
        Optional run label carried into the resulting
        :class:`~repro.observe.series.RunObservation`.
    """

    def __init__(self, epoch_refs=DEFAULT_EPOCH_REFS, label=None):
        if epoch_refs < 1:
            raise ValueError("epoch_refs must be positive")
        self.epoch_refs = epoch_refs
        self.label = label
        self.samples = []
        self.phase_seconds = {}
        self._target = None
        self._effective = None
        self._wrapped = []

    # -- attachment ------------------------------------------------------

    def attach(self, obj):
        """Instrument a machine; returns self."""
        if self._target is not None:
            raise RuntimeError(
                "a RunObserver observes exactly one machine; build a "
                "fresh one per run"
            )
        if not (hasattr(obj, "run_chunks") and hasattr(obj, "cache")):
            raise TypeError(
                f"cannot observe {type(obj).__name__}; expected a "
                f"SpurMachine"
            )
        self._target = obj
        self._effective = effective_epoch_refs(
            self.epoch_refs, obj.observation_alignment()
        )
        self._wrap_machine(obj)
        self._sample()               # baseline (sample 0)
        return self

    def detach(self):
        """Restore every method this observer wrapped."""
        for obj, name, original in reversed(self._wrapped):
            setattr(obj, name, original)
        self._wrapped.clear()

    def finish(self):
        """Final sample, detach, and build the observation record."""
        self._sample()
        self.detach()
        return RunObservation(
            label=self.label,
            epoch_refs=self._effective or self.epoch_refs,
            samples=tuple(self.samples),
            phases=dict(self.phase_seconds),
        )

    # -- sampling --------------------------------------------------------

    def _sample(self):
        """Snapshot the target's cumulative state (idempotent)."""
        references, cycles, snapshot = self._target.observe_state()
        if self.samples and self.samples[-1].references == references:
            return
        self.samples.append(EpochSample(
            references=references,
            cycles=cycles,
            events=snapshot.as_dict(),
        ))

    def charge(self, phase, seconds):
        """Attribute *seconds* of host wall-clock to *phase*.

        The wrappers charge ``"generate"`` and ``"simulate"``; the
        experiment runner adds ``"merge"`` for result assembly.
        """
        self.phase_seconds[phase] = (
            self.phase_seconds.get(phase, 0.0) + seconds
        )

    # -- instrumentation -------------------------------------------------

    def _wrap_machine(self, machine):
        epoch = self._effective
        perf_counter = time.perf_counter

        original_chunks = machine.run_chunks

        def run_chunks(chunks):
            """Epoch-segmented drive of the original chunked run.

            Incoming chunks are split at epoch boundaries; each
            epoch's pieces go through the original ``run_chunks`` in
            one call, so the hit on the hot loop is only a slightly
            different chunking — which the ``run_chunks`` contract
            guarantees is bit-identical.
            """
            iterator = iter(chunks)
            pending = []
            pending_refs = 0
            count = 0
            while True:
                started = perf_counter()
                chunk = next(iterator, None)
                self.charge("generate", perf_counter() - started)
                if chunk is None:
                    break
                refs = count_refs(chunk)
                while pending_refs + refs >= epoch:
                    take = epoch - pending_refs
                    if take == refs:
                        pending.append(chunk)
                    else:
                        head, chunk = split_refs(chunk, take)
                        pending.append(head)
                    refs -= take
                    started = perf_counter()
                    count += original_chunks(pending)
                    self.charge(
                        "simulate", perf_counter() - started
                    )
                    pending = []
                    pending_refs = 0
                    self._sample()
                if refs:
                    pending.append(chunk)
                    pending_refs += refs
            if pending:
                started = perf_counter()
                count += original_chunks(pending)
                self.charge("simulate", perf_counter() - started)
            self._sample()
            return count

        machine.run_chunks = run_chunks
        self._wrapped.append((machine, "run_chunks", original_chunks))

    def __repr__(self):
        return (
            f"RunObserver(epoch_refs={self.epoch_refs}, "
            f"effective={self._effective}, "
            f"{len(self.samples)} samples)"
        )


def observe(obj, epoch_refs=DEFAULT_EPOCH_REFS, label=None):
    """Convenience: build a :class:`RunObserver` and attach *obj*."""
    return RunObserver(epoch_refs=epoch_refs, label=label).attach(obj)


__all__ = ["RunObserver", "effective_epoch_refs", "observe"]
