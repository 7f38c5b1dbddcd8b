"""repro: a reproduction of Wood & Katz, "Supporting Reference and
Dirty Bits in SPUR's Virtual Address Cache" (ISCA 1989).

The package simulates the SPUR workstation's memory system — a
virtually addressed direct-mapped unified cache with in-cache address
translation, the Berkeley Ownership coherency protocol, on-chip
performance counters, and a Sprite-like virtual-memory system — and
uses it to re-evaluate the paper's dirty-bit alternatives (FAULT,
FLUSH, SPUR, WRITE, MIN) and reference-bit policies (MISS, REF,
NOREF).

Quickstart::

    from repro import ExperimentRunner, scaled_config, Workload1

    config = scaled_config(memory_ratio=48, dirty_policy="FAULT",
                           reference_policy="MISS")
    result = ExperimentRunner().run(config, Workload1(length_scale=0.1))
    print(result.page_ins, result.elapsed_seconds)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.  The full
curated import surface (execution options, observability, campaign
errors, experiment drivers) lives in :mod:`repro.api`.
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
    SpurMachine,
    paper_config,
    scaled_config,
)
from repro.options import RunOptions
from repro.parallel import (
    CampaignError,
    CellFailure,
    ResultCache,
    RunCell,
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
    SlcWorkload,
    Workload1,
    workload_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "Access",
    "AccessKind",
    "CampaignError",
    "CellFailure",
    "DEV_SYSTEM_PROFILES",
    "DeterministicRng",
    "DevSystemWorkload",
    "Event",
    "EventCounts",
    "ExcessFaultModel",
    "ExperimentRunner",
    "MachineConfig",
    "PerformanceCounters",
    "Protection",
    "ReproError",
    "ResultCache",
    "RunCell",
    "RunOptions",
    "RunResult",
    "execute_cells",
    "SlcWorkload",
    "SpurMachine",
    "TimeParameters",
    "Workload1",
    "__version__",
    "make_dirty_policy",
    "make_reference_policy",
    "overhead",
    "overhead_table",
    "paper_config",
    "scaled_config",
    "workload_by_name",
]
