"""Generic parameter sweeps over machine configurations.

The ablation benches share one shape: vary a single configuration
knob across values, run a workload per point (possibly per policy),
and compare a few result metrics.  :class:`SweepDriver` factors that
shape out, returning structured results plus a ready
:class:`~repro.analysis.tables.Table` and line plot.
"""

import dataclasses
from typing import Callable, Dict

from repro.analysis.charts import line_plot
from repro.analysis.tables import Table
from repro.machine.runner import ExperimentRunner


#: Standard metric extractors by name.
METRICS: Dict[str, Callable] = {
    "page_ins": lambda result: result.page_ins,
    "page_outs": lambda result: result.page_outs,
    "cycles": lambda result: result.cycles,
    "elapsed_seconds": lambda result: result.elapsed_seconds,
    "cycles_per_reference": lambda result: (
        result.cycles_per_reference
    ),
}


class SweepDriver:
    """Run a one-dimensional configuration sweep.

    Parameters
    ----------
    base_config:
        The configuration every point derives from.
    field:
        Name of the :class:`MachineConfig` field to vary, or a
        callable ``(config, value) -> config`` for derived changes.
    values:
        Points of the sweep.
    workload_factory:
        Zero-argument callable producing a fresh workload per run.
    runner:
        Optional shared :class:`ExperimentRunner`.
    options:
        Optional :class:`~repro.options.RunOptions` the driver's
        default runner is built from (and :meth:`run` uses per call).
    """

    def __init__(self, base_config, field, values, workload_factory,
                 runner=None, seed=0, options=None):
        self.base_config = base_config
        self.values = tuple(values)
        if not self.values:
            raise ValueError("sweep needs at least one value")
        self.workload_factory = workload_factory
        self.options = options
        if runner is None:
            runner = ExperimentRunner(options=options)
        self.runner = runner
        self.seed = seed
        if callable(field):
            self._apply = field
            self.field_name = getattr(field, "__name__", "derived")
        else:
            if field not in {
                f.name for f in dataclasses.fields(base_config)
            }:
                raise ValueError(
                    f"{field!r} is not a MachineConfig field"
                )
            self.field_name = field
            self._apply = lambda config, value: dataclasses.replace(
                config, **{field: value}
            )

    def run(self, variants=None, options=None):
        """Execute the sweep.

        Parameters
        ----------
        variants:
            Optional ``{label: config-transform}`` dict producing a
            separate series per label (e.g. one per policy); the
            transform is applied after the swept field.  Defaults to
            a single unlabelled series.
        options:
            Per-call :class:`~repro.options.RunOptions` (workers,
            caching, observation); defaults to the driver's own.

        Returns ``{label: {value: RunResult}}``.
        """
        variants = variants or {"": lambda config: config}
        grid = [
            (label, value, transform(
                self._apply(self.base_config, value)
            ))
            for label, transform in variants.items()
            for value in self.values
        ]
        outcomes = self.runner.run_many(
            [
                (config, self.workload_factory(), self.seed, None)
                for _, _, config in grid
            ],
            options=options if options is not None else self.options,
            labels=[
                f"{self.field_name}={value}" + (f"/{label}" if label
                                                else "")
                for label, value, _ in grid
            ],
        )
        results = {}
        for (label, value, _), outcome in zip(grid, outcomes):
            results.setdefault(label, {})[value] = outcome
        return results

    def tabulate(self, results, metric="page_ins"):
        """Render sweep results for one metric."""
        extract = METRICS[metric] if isinstance(metric, str) else metric
        labels = list(results)
        table = Table(
            f"Sweep of {self.field_name}: {metric}",
            [self.field_name] + [label or "value" for label in labels],
        )
        for value in self.values:
            table.add_row(value, *[
                f"{extract(results[label][value]):g}"
                for label in labels
            ])
        return table

    def plot(self, results, metric="page_ins", **plot_kwargs):
        """Line plot of the sweep (numeric sweep values only)."""
        extract = METRICS[metric] if isinstance(metric, str) else metric
        series = {
            (label or "value"): [
                (float(value), float(extract(run)))
                for value, run in by_value.items()
            ]
            for label, by_value in results.items()
        }
        plot_kwargs.setdefault(
            "title", f"{metric} vs {self.field_name}"
        )
        return line_plot(series, **plot_kwargs)
