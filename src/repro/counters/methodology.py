"""The paper's measurement methodology, as an executable procedure.

The hardware could only count sixteen events at once, selected by the
mode register; measuring everything the analysis needs therefore took
*multiple runs of the same workload* with different modes — which is
exactly why the paper needed repeatable synthetic scripts.

:class:`MeasurementCampaign` executes that procedure: one cold-start
run per requested mode, with identical configuration and seed, and an
assembled cross-mode snapshot at the end.  It also verifies the
assumption the methodology rests on — that repeated runs see the same
events — by comparing any event measured in more than one mode.
"""

from typing import Dict, Iterable

from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event, MODE_SETS

# SpurMachine is imported lazily inside execute(): this module is
# re-exported by the counters package, which the machine package
# itself depends on — a top-level import would make package import
# order load-bearing.


class InconsistentRunsError(RuntimeError):
    """Two modes measured different values for a shared event.

    Under this simulator that indicates non-determinism (a bug); on
    the real prototype it would have indicated an unrepeatable
    workload.
    """

    def __init__(self, event, values):
        super().__init__(
            f"{event.name} disagrees across modes: {values}"
        )
        self.event = event
        self.values = values


class MeasurementCampaign:
    """Measure a workload the way the prototype had to.

    Parameters
    ----------
    config:
        Machine configuration for every run.
    workload:
        Workload recipe (re-instantiated per run with ``seed``).
    modes:
        Counter modes to run; defaults to all four.
    """

    def __init__(self, config, workload, modes=None, seed=0):
        self.config = config
        self.workload = workload
        self.modes = tuple(modes) if modes is not None else (0, 1, 2, 3)
        self.seed = seed
        self.runs: Dict[int, PerformanceCounters] = {}
        self.machines: Dict[int, object] = {}

    def execute(self, max_references=None):
        """Run once per mode; returns the assembled event dict."""
        from repro.machine.simulator import SpurMachine
        from repro.workloads.base import take_chunks

        for mode in self.modes:
            instance = self.workload.instantiate(
                self.config.page_bytes, seed=self.seed
            )
            counters = PerformanceCounters(mode=mode)
            machine = SpurMachine(
                self.config, instance.space_map, counters=counters
            )
            chunks = instance.access_chunks()
            if max_references is not None:
                chunks = take_chunks(chunks, max_references)
            machine.run_chunks(chunks)
            self.runs[mode] = counters
            self.machines[mode] = machine
        return self.assemble()

    def assemble(self):
        """Merge per-mode counters into one event dictionary.

        Events visible in several modes are cross-checked; any
        disagreement raises :class:`InconsistentRunsError`.
        """
        assembled: Dict[Event, int] = {}
        sources: Dict[Event, Dict[int, int]] = {}
        for mode, counters in self.runs.items():
            for event in MODE_SETS[mode]:
                value = counters.read(event)
                sources.setdefault(event, {})[mode] = value
        for event, values in sources.items():
            distinct = set(values.values())
            if len(distinct) > 1:
                raise InconsistentRunsError(event, values)
            assembled[event] = distinct.pop()
        return assembled

    def coverage(self):
        """Events measurable with the selected modes."""
        covered = set()
        for mode in self.modes:
            covered.update(MODE_SETS[mode])
        return covered

    def runs_needed_for(self, events: Iterable[Event]):
        """Minimal set of modes covering ``events`` (greedy).

        The scheduling question the SPUR experimenters faced: which
        modes must the workload be re-run under to observe a given
        event list?
        """
        wanted = set(events)
        unknown = wanted - set().union(*MODE_SETS.values())
        if unknown:
            names = ", ".join(e.name for e in unknown)
            raise ValueError(f"not measurable in any mode: {names}")
        chosen = []
        remaining = set(wanted)
        while remaining:
            best = max(
                MODE_SETS,
                key=lambda mode: len(remaining & set(MODE_SETS[mode])),
            )
            gain = remaining & set(MODE_SETS[best])
            if not gain:
                break
            chosen.append(best)
            remaining -= gain
        return tuple(sorted(chosen))
