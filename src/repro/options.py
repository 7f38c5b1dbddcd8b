"""RunOptions: one object carrying every execution knob.

The multi-run entry points grew their knobs one keyword at a time —
``workers``, ``cache``, ``sanitize`` — and the
observability layer would have added four more to every signature.
:class:`RunOptions` collects them all in a single frozen value that
the runner, the sweep driver and their multi-run methods accept; the
table drivers take the runner::

    options = RunOptions(workers=4, cache_dir=".cache",
                         observe=True, trace_sink=JsonlSink("t.jsonl"))
    runner = ExperimentRunner(options=options)
    run_table_3_3(runner=runner)

None of these knobs may change what a run *measures*: workers,
caching, sanitizing, and observing all produce bit-identical
:class:`~repro.machine.runner.RunResult` values.  Options therefore
never participate in result equality or cache keys.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.observe.series import DEFAULT_EPOCH_REFS


@dataclass(frozen=True)
class RunOptions:
    """Execution settings shared by every experiment entry point.

    Parameters
    ----------
    workers:
        Worker-process count for multi-cell entry points; 1 runs
        in-process.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables
        caching.  Every finished cell is stored durably before it is
        reported, so rerunning with the same directory resumes a
        killed campaign.
    sanitize:
        Optional :mod:`repro.sanitize` mode name; runs execute under
        an attached invariant sanitizer.
    observe:
        Attach a :class:`~repro.observe.observer.RunObserver` to every
        run, populating ``RunResult.observation`` with the counter
        time series and phase profile.  Observed results are
        bit-identical to unobserved ones.
    epoch_refs:
        Requested references per observation epoch (rounded up to the
        machine's poll alignment at attach time).
    trace_sink:
        Optional sink object (``emit(dict)``/``close()``) receiving
        structured trace events; excluded from equality/hashing since
        sinks are stateful handles, not settings.
    progress:
        Campaign progress reporting: ``False``/``None`` off, ``True``
        for a stderr line, or a
        :class:`~repro.observe.progress.CampaignProgress` instance.
        Likewise excluded from equality.
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    sanitize: Optional[str] = None
    observe: bool = False
    epoch_refs: int = DEFAULT_EPOCH_REFS
    trace_sink: Optional[Any] = field(
        default=None, compare=False, hash=False
    )
    progress: Any = field(default=None, compare=False, hash=False)

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.epoch_refs < 1:
            raise ValueError(
                f"epoch_refs must be >= 1, got {self.epoch_refs}"
            )
        if self.sanitize is not None:
            from repro.sanitize.sanitizer import MODES

            if self.sanitize not in MODES:
                raise ValueError(
                    f"unknown sanitize mode {self.sanitize!r}; "
                    f"expected one of {sorted(MODES)}"
                )

    def build_cache(self):
        """The :class:`ResultCache` these options describe, or ``None``."""
        if not self.cache_dir:
            return None
        from repro.parallel.cache import ResultCache

        return ResultCache(self.cache_dir)

    def replace(self, **changes):
        """A copy with *changes* applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def coerce(cls, options):
        """Normalise ``None`` to default options (driver entry helper)."""
        if options is None:
            return cls()
        if not isinstance(options, cls):
            raise TypeError(
                f"options must be a RunOptions, got "
                f"{type(options).__name__}"
            )
        return options


__all__ = ["RunOptions"]
