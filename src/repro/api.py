"""Stable public facade: one import surface for the whole toolkit.

Everything an experiment script needs lives here under a single,
explicitly curated namespace::

    from repro.api import (
        ExperimentRunner, RunOptions, JsonlSink, scaled_config,
        Workload1,
    )

    options = RunOptions(workers=4, cache_dir=".cache", observe=True)
    runner = ExperimentRunner(options=options)
    result = runner.run(scaled_config(memory_ratio=48),
                        Workload1(length_scale=0.1))

The facade re-exports, it never defines: each name's documentation
and behaviour live in its home module, and ``repro.api`` pins which
of those names are contract.  Anything importable here is covered by
the compatibility promise in README.md; reaching into submodules
(``repro.machine.simulator`` internals, private helpers) is not.

Groups, in import order below:

* errors and primitives (:mod:`repro.common`),
* performance counters (:mod:`repro.counters`),
* machine configuration and simulators (:mod:`repro.machine`),
* observability — time series, sinks, progress, reports
  (:mod:`repro.observe`),
* the unified execution-options object (:mod:`repro.options`),
* campaign execution and the result cache that resumes campaigns
  (:mod:`repro.parallel`),
* policy models and overhead analysis (:mod:`repro.policies`),
* workloads (:mod:`repro.workloads`),
* experiment drivers and sweeps (:mod:`repro.analysis`).
"""

from repro.common import (
    Access,
    AccessKind,
    DeterministicRng,
    Protection,
    ReproError,
)
from repro.counters import Event, PerformanceCounters
from repro.machine import (
    ExperimentRunner,
    MachineConfig,
    RunResult,
    SmpSystem,
    SpurMachine,
    paper_config,
    scaled_config,
)
from repro.observe import (
    DEFAULT_EPOCH_REFS,
    CampaignProgress,
    EpochSample,
    JsonlSink,
    MemorySink,
    NullSink,
    RunObservation,
    RunObserver,
    observe,
    read_trace,
    render_report,
    summarize_trace,
)
from repro.options import RunOptions
from repro.parallel import (
    CampaignError,
    CellFailure,
    ResultCache,
    RunCell,
    cell_key,
    execute_cells,
)
from repro.policies import (
    EventCounts,
    ExcessFaultModel,
    TimeParameters,
    make_dirty_policy,
    make_reference_policy,
    overhead,
    overhead_table,
)
from repro.workloads import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
    RecordedWorkload,
    ScriptedWorkload,
    SlcWorkload,
    Workload1,
    record_workload,
    workload_by_name,
)
from repro.analysis import (
    SweepDriver,
    Table,
    build_table_3_4,
    run_table_3_3,
    run_table_3_5,
    run_table_4_1,
)

__all__ = [
    "Access",
    "AccessKind",
    "CampaignError",
    "CampaignProgress",
    "CellFailure",
    "DEFAULT_EPOCH_REFS",
    "DEV_SYSTEM_PROFILES",
    "DeterministicRng",
    "DevSystemWorkload",
    "EpochSample",
    "Event",
    "EventCounts",
    "ExcessFaultModel",
    "ExperimentRunner",
    "JsonlSink",
    "MachineConfig",
    "MemorySink",
    "NullSink",
    "PerformanceCounters",
    "Protection",
    "RecordedWorkload",
    "ReproError",
    "ResultCache",
    "RunCell",
    "RunObservation",
    "RunObserver",
    "RunOptions",
    "RunResult",
    "ScriptedWorkload",
    "SlcWorkload",
    "SmpSystem",
    "SpurMachine",
    "SweepDriver",
    "Table",
    "TimeParameters",
    "Workload1",
    "build_table_3_4",
    "cell_key",
    "execute_cells",
    "make_dirty_policy",
    "make_reference_policy",
    "observe",
    "overhead",
    "overhead_table",
    "paper_config",
    "read_trace",
    "record_workload",
    "render_report",
    "run_table_3_3",
    "run_table_3_5",
    "run_table_4_1",
    "scaled_config",
    "summarize_trace",
    "workload_by_name",
]
