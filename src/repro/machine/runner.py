"""Experiment execution: one run = one machine + one workload.

:class:`ExperimentRunner` reproduces the paper's measurement
discipline: each data point is a fresh machine (cold cache, empty
memory) driven by a freshly instantiated workload; repetitions use
distinct seeds; multi-point experiments can be order-randomised the
way Section 4.2's five-repetition design was.

Because every run is a pure function of (config, workload recipe,
seed, reference cap), the multi-run entry points hand their cells to
:func:`repro.parallel.execute_cells`, which can fan them out over
worker processes (``RunOptions(workers=N)``; results are bit-identical
to the serial path, only faster), and skip cells a
:class:`~repro.parallel.cache.ResultCache` already holds — which is
also how a killed campaign resumes.
"""

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.rng import DeterministicRng
from repro.common.units import SPUR_CYCLE_TIME_SECONDS
from repro.counters.events import Event
from repro.machine.simulator import SpurMachine
from repro.observe.series import RunObservation
from repro.options import RunOptions
from repro.workloads.base import take_chunks


@dataclass
class RunResult:
    """Everything measured during one simulation run.

    ``host_seconds`` is measurement *about* the host, not the
    simulation: it is excluded from equality (``compare=False``) and
    from cache serialisation so wall-clock noise can never fail a
    result comparison or defeat a cache hit.  ``observation`` follows
    the same discipline — the counter time series and phase profile of
    an observed run ride alongside the result, never inside equality
    or the cache, so observing a run cannot change what it measured.
    """

    workload: str
    config_name: str
    memory_bytes: int
    dirty_policy: str
    reference_policy: str
    seed: int
    references: int
    cycles: int
    events: Dict[Event, int]
    page_ins: int
    page_outs: int
    zero_fills: int
    potentially_modified: int
    not_modified: int
    host_seconds: float = field(default=0.0, compare=False)
    #: Always 0.  Kept only because the end-to-end benchmark harness
    #: (``benchmarks/e2e/cells.py``) reads it.  Excluded from equality
    #: and cache serialisation.
    scalar_bailouts: int = field(default=0, compare=False)
    observation: Optional[RunObservation] = field(
        default=None, compare=False, repr=False
    )

    @property
    def elapsed_seconds(self):
        """Simulated elapsed time at the 150 ns prototype cycle."""
        return self.cycles * SPUR_CYCLE_TIME_SECONDS

    @property
    def cycles_per_reference(self):
        return self.cycles / self.references if self.references else 0.0

    def event(self, event):
        """Count of one performance-counter event (0 if unseen)."""
        return self.events.get(event, 0)


class ExperimentRunner:
    """Builds machines and executes workload runs.

    Parameters
    ----------
    master_seed:
        Seeds the execution-order shuffle of :meth:`run_matrix` only.
        Repetition ``rep`` always runs with ``seed=rep``, so two
        runners with different master seeds produce identical results.
    options:
        A :class:`~repro.options.RunOptions` bundling every execution
        knob (workers, caching, sanitizing, observation); defaults to
        ``RunOptions()``.  Its ``cache_dir`` names the result cache
        the multi-run entry points consult, exposed as ``cache``.
    """

    def __init__(self, master_seed=1234, options=None):
        options = RunOptions.coerce(options)
        self.options = options
        self.master_seed = master_seed
        self.cache = options.build_cache()

    def _call_options(self, options):
        """Resolve per-call options: explicit ones win over the runner's."""
        if options is None:
            return self.options
        return RunOptions.coerce(options)

    def run(self, config, workload, seed=0, max_references=None,
            label=None, options=None):
        """One cold-start run; returns a :class:`RunResult`.

        Parameters
        ----------
        config:
            :class:`repro.machine.config.MachineConfig` (policies and
            memory size included).
        workload:
            A :class:`repro.workloads.base.Workload` recipe.
        seed:
            Repetition seed mixed into the workload's RNG.
        max_references:
            Optional cap on references simulated (smoke tests);
            negative caps raise ``ValueError``.
        label:
            Optional name carried into trace events and the run's
            observation (never into the result itself).
        options:
            Per-call :class:`~repro.options.RunOptions` overriding the
            runner's own for this run only.
        """
        options = self._call_options(options)
        if max_references is not None and max_references < 0:
            raise ValueError(
                f"max_references must be >= 0, got {max_references}"
            )
        instance = workload.instantiate(config.page_bytes, seed=seed)
        machine = SpurMachine(config, instance.space_map)
        sanitizer = None
        if options.sanitize:
            from repro.sanitize.sanitizer import Sanitizer

            sanitizer = Sanitizer(mode=options.sanitize)
            sanitizer.attach(machine)
        observer = None
        if options.observe:
            from repro.observe.observer import RunObserver

            # Attached after the sanitizer so epoch segmentation feeds
            # the sanitizer-wrapped entry points.
            observer = RunObserver(
                epoch_refs=options.epoch_refs, label=label
            )
            observer.attach(machine)
        chunks = instance.access_chunks()
        if max_references is not None:
            chunks = take_chunks(chunks, max_references)
        started = time.perf_counter()
        machine.run_chunks(chunks)
        host_seconds = time.perf_counter() - started
        if sanitizer is not None:
            sanitizer.check_now()
        if observer is not None:
            merge_started = time.perf_counter()
        swap_stats = machine.swap.stats
        events = machine.counters.snapshot().as_dict()
        observation = None
        if observer is not None:
            observer.charge(
                "merge", time.perf_counter() - merge_started
            )
            observation = observer.finish()
        result = RunResult(
            workload=instance.name,
            config_name=config.name,
            memory_bytes=config.memory_bytes,
            dirty_policy=machine.dirty_policy.name,
            reference_policy=machine.reference_policy.name,
            seed=seed,
            references=machine.references,
            cycles=machine.cycles,
            events=events,
            page_ins=swap_stats.page_ins,
            page_outs=swap_stats.page_outs,
            zero_fills=swap_stats.zero_fills,
            potentially_modified=swap_stats.potentially_modified,
            not_modified=swap_stats.not_modified,
            host_seconds=host_seconds,
            observation=observation,
        )
        if options.trace_sink is not None:
            from repro.observe.sinks import emit_run

            emit_run(options.trace_sink, result, label=label)
        return result

    def run_many(self, specs, options=None, labels=None):
        """Run ``(config, workload, seed, max_references)`` specs.

        The building block the multi-run entry points (and
        :class:`~repro.analysis.sweeps.SweepDriver`) share: turns each
        spec into a :class:`~repro.parallel.executor.RunCell` and runs
        them all through :func:`~repro.parallel.execute_cells`, which
        resolves them against the runner's cache, simulates the rest,
        and returns results in spec order.  A failing cell raises
        :class:`~repro.parallel.executor.CampaignError` after every
        other cell has run.

        ``options`` (a :class:`~repro.options.RunOptions`) overrides
        the runner's own for this call.  ``labels`` optionally names
        each spec for trace events and observations.
        """
        specs = list(specs)
        options = self._call_options(options)
        cache = self.cache
        if options is not self.options and options.cache_dir:
            cache = options.build_cache()
        if labels is None:
            labels = [None] * len(specs)
        from repro.parallel import RunCell, execute_cells

        cells = [
            RunCell(config, workload, seed=seed,
                    max_references=max_references,
                    sanitize=options.sanitize,
                    label=label,
                    observe=options.observe,
                    epoch_refs=options.epoch_refs)
            for (config, workload, seed, max_references), label
            in zip(specs, labels)
        ]
        return execute_cells(
            cells, workers=options.workers, cache=cache,
            sink=options.trace_sink, progress=options.progress,
        )

    def run_repetitions(self, config, workload, repetitions=5,
                        max_references=None, options=None):
        """Independent repetitions with distinct seeds.

        ``options`` (a :class:`~repro.options.RunOptions`) overrides
        the runner's own for this call.
        """
        return self.run_many(
            [
                (config, workload, rep, max_references)
                for rep in range(repetitions)
            ],
            options=options,
            labels=[f"rep{rep}" for rep in range(repetitions)],
        )

    def run_matrix(self, points, repetitions=1, randomize=True,
                   max_references=None, options=None):
        """Run a list of ``(label, config, workload)`` points.

        Labels must be unique: duplicates would silently interleave
        two points' repetitions under one key, so they raise
        ``ValueError`` instead.

        With ``randomize`` the (point, repetition) cells execute in a
        shuffled order — the paper's randomised experiment design
        (Section 4.2) — which matters there for warm hardware and
        here only for honest wall-clock interleaving, but is kept for
        methodological fidelity.  Returns ``{label: [RunResult, ...]}``
        with repetitions in seed order regardless of execution order
        or worker count.  ``options`` (a
        :class:`~repro.options.RunOptions`) overrides the runner's own
        for this call.
        """
        label_counts = Counter(label for label, _, _ in points)
        duplicates = [
            label for label, count in label_counts.items() if count > 1
        ]
        if duplicates:
            raise ValueError(
                f"duplicate point labels in run_matrix: {duplicates!r};"
                f" each point needs a unique label"
            )
        cells = [
            (label, config, workload, rep)
            for label, config, workload in points
            for rep in range(repetitions)
        ]
        if randomize:
            DeterministicRng(self.master_seed).shuffle(cells)
        results = {label: [None] * repetitions
                   for label, _, _ in points}
        outcomes = self.run_many(
            [
                (config, workload, rep, max_references)
                for _, config, workload, rep in cells
            ],
            options=options,
            labels=[
                f"{_label_text(label)}/rep{rep}" if repetitions > 1
                else _label_text(label)
                for label, _, _, rep in cells
            ],
        )
        for (label, _, _, rep), result in zip(cells, outcomes):
            results[label][rep] = result
        return results


def _label_text(label):
    """Render a matrix point label (string or tuple) for telemetry."""
    if isinstance(label, tuple):
        return "/".join(str(part) for part in label)
    return str(label)

