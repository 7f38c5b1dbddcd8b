"""The runtime sanitizer: attach, instrument, and check.

A :class:`Sanitizer` watches live simulator objects and validates the
invariant catalogue in :mod:`repro.sanitize.checks` as the simulation
runs.  Three modes trade coverage for overhead:

``full``
    Every reference is checked: the cache line each reference touched
    is validated per flat chunk, the moment the hot loop
    (:meth:`SpurMachine.run_chunks`) finishes that chunk, so the chunk
    interior stays allocation-free.  A full sweep of every registered
    structure runs at stream end (and every ``sweep_interval``
    references when set).  Under 3x slowdown on paper-scale runs.

``sampled``
    The last reference of each chunk is spot-checked (one in 4096 at
    the default chunk size) and a full sweep runs at stream end;
    overhead is a few percent.

``epoch``
    A full sweep at the end of each ``run_chunks()`` call only.
    Suitable for leaving permanently enabled in tests.

Attachment is per-object: a whole :class:`SpurMachine`
(instrumenting its reference loop), or a bare :class:`VirtualCache`
or :class:`VirtualMemorySystem` for targeted checking via
:meth:`Sanitizer.check_now`.  In full mode a bare cache additionally
gets its ``fill``/``invalidate`` mutators wrapped so each mutation is
validated as it happens.
"""

from repro.sanitize.checks import (
    check_cache_arrays,
    check_dirty_policy,
    check_line,
    check_vm,
)
from repro.sanitize.violation import InvariantViolation
from repro.workloads.base import KIND_REFS, count_refs

MODES = ("full", "sampled", "epoch")


class Sanitizer:
    """Runtime invariant checker for the SPUR model.

    Parameters
    ----------
    mode:
        ``"full"``, ``"sampled"``, or ``"epoch"`` (see module docs).
    sweep_interval:
        References between full sweeps in full mode (None sweeps only
        at stream end).
    """

    def __init__(self, mode="full", sweep_interval=None):
        if mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {mode!r}"
            )
        self.mode = mode
        self.sweep_interval = sweep_interval
        self.caches = []
        self.vms = []
        self.machines = []
        self.references_seen = 0
        self.line_checks = 0
        self.sweeps = 0
        self._wrapped = []

    # -- attachment ------------------------------------------------------

    def attach(self, obj):
        """Register a simulator object; returns self for chaining."""
        # Duck-typed dispatch so test doubles attach without
        # inheritance.
        if hasattr(obj, "run_chunks") and hasattr(obj, "cache"):
            self._add(self.machines, obj)  # SpurMachine
            self._add(self.vms, obj.vm)
            self._wrap_machine(obj)
        elif hasattr(obj, "frame_table"):  # VirtualMemorySystem
            self._add(self.vms, obj)
        elif hasattr(obj, "line_block") and hasattr(obj, "probe"):
            self._add(self.caches, obj)   # bare VirtualCache
            if self.mode == "full":
                self._wrap_cache(obj)
        else:
            raise TypeError(
                f"cannot attach {type(obj).__name__}; expected a "
                f"machine, cache, or VM system"
            )
        return self

    def detach(self):
        """Restore every method this sanitizer wrapped."""
        for obj, name, original in reversed(self._wrapped):
            setattr(obj, name, original)
        self._wrapped.clear()

    @staticmethod
    def _add(registry, obj):
        if all(existing is not obj for existing in registry):
            registry.append(obj)

    # -- whole-state sweep -----------------------------------------------

    def _all_caches(self):
        seen = []
        for cache in self.caches:
            self._add(seen, cache)
        for machine in self.machines:
            self._add(seen, machine.cache)
        return seen

    def check_now(self, ref_index=None):
        """Sweep every registered structure; raises on any breach."""
        self.sweeps += 1
        for cache in self._all_caches():
            check_cache_arrays(cache, ref_index=ref_index)
        for machine in self.machines:
            check_dirty_policy(machine, ref_index=ref_index)
        for vm in self.vms:
            check_vm(vm, ref_index=ref_index)

    # -- machine instrumentation -----------------------------------------

    def _wrap_machine(self, machine):
        original = machine.run_chunks
        if self.mode == "epoch":
            def run_chunks(chunks):
                count = original(chunks)
                self.check_now(ref_index=self.references_seen + count)
                self.references_seen += count
                return count
        else:
            instrument = (
                self._instrument_chunks_sampled
                if self.mode == "sampled"
                else self._instrument_chunks_full
            )

            def run_chunks(chunks):
                count = original(instrument(machine, chunks))
                self.check_now(ref_index=self.references_seen)
                return count
        machine.run_chunks = run_chunks
        self._wrapped.append((machine, "run_chunks", original))

    def _instrument_chunks_sampled(self, machine, chunks):
        """Yield flat chunks, spot-checking each one's last reference."""
        cache = machine.cache
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        for chunk in chunks:
            yield chunk
            if not chunk:
                continue
            self.references_seen += count_refs(chunk)
            check_line(
                cache,
                (chunk[-1] >> block_bits) & index_mask,
                ref_index=self.references_seen - 1,
            )
            self.line_checks += 1

    def _instrument_chunks_full(self, machine, chunks):
        """Yield flat chunks, validating every reference's footprint.

        The checks for a whole chunk run when the hot loop pulls the
        next one — i.e.
        immediately after the loop finished the chunk — so the chunk
        interior stays free of per-reference calls.  The final chunk
        is covered because the generator resumes (and checks) before
        raising ``StopIteration``.  Every fetch of a run touches the
        run's one line, so a run is checked once and counted as all
        its references; a sweep falls due at each multiple of
        ``sweep_interval`` references the chunk passes.
        """
        cache = machine.cache
        line_block = cache.line_block
        prot = cache.prot
        block_dirty = cache.block_dirty
        state = cache.state
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        sweep_interval = self.sweep_interval
        checked = 0
        try:
            for chunk in chunks:
                yield chunk
                # The hot loop has fully processed `chunk` by now.
                it = iter(chunk)
                for kind, vaddr in zip(it, it):
                    index = (vaddr >> block_bits) & index_mask
                    block = line_block[index]
                    if block >= 0:
                        # OWNED_EXCLUSIVE, or a clean UNOWNED copy.
                        ok = (
                            block & index_mask == index
                            and (state[index] == 3
                                 or state[index] == 1
                                 and not block_dirty[index])
                            and 0 <= prot[index] <= 3
                        )
                    else:
                        ok = (
                            block == -1
                            and state[index] == 0
                            and not block_dirty[index]
                        )
                    refs = KIND_REFS[kind]
                    checked += refs
                    if not ok:
                        self.references_seen += checked
                        checked = 0
                        check_line(
                            cache, index,
                            ref_index=self.references_seen - 1,
                        )
                    if sweep_interval:
                        seen = self.references_seen + checked
                        passed = seen - refs
                        first = passed - passed % sweep_interval
                        for due in range(first + sweep_interval,
                                         seen + 1, sweep_interval):
                            self.check_now(ref_index=due)
        finally:
            self.references_seen += checked
            self.line_checks += checked

    # -- bare-cache instrumentation --------------------------------------

    def _wrap_cache(self, cache):
        sanitizer = self

        original_fill = cache.fill

        def fill(vaddr, protection, page_dirty, by_write,
                 holds_pte=False):
            index, cycles = original_fill(
                vaddr, protection, page_dirty, by_write,
                holds_pte=holds_pte,
            )
            check_line(cache, index)
            sanitizer.line_checks += 1
            return index, cycles

        original_invalidate = cache.invalidate

        def invalidate(index, write_back=True):
            cycles = original_invalidate(index, write_back=write_back)
            check_line(cache, index)
            sanitizer.line_checks += 1
            return cycles

        cache.fill = fill
        cache.invalidate = invalidate
        self._wrapped.append((cache, "fill", original_fill))
        self._wrapped.append((cache, "invalidate", original_invalidate))

    def __repr__(self):
        return (
            f"Sanitizer(mode={self.mode!r}, "
            f"{len(self._all_caches())} caches, "
            f"{self.references_seen} refs seen, "
            f"{self.sweeps} sweeps)"
        )


def attach(obj, mode="full", **kwargs):
    """Convenience: build a :class:`Sanitizer` and attach ``obj``."""
    return Sanitizer(mode=mode, **kwargs).attach(obj)


__all__ = ["Sanitizer", "InvariantViolation", "MODES", "attach"]
