"""The whole-machine SPUR simulator.

:class:`SpurMachine` wires a processor reference stream through the
virtual-address cache, the in-cache translator, the Sprite-like VM,
and the active dirty/reference-bit policies, accumulating cycles with
the Table 2.1 timing model and events in the performance counters.

:mod:`repro.machine.config` provides the paper-scale configuration
(128 KB cache, 4 KB pages, 5-8 MB memory) and the scaled configuration
the benches use by default (same ratios, ~1/8 linear size) — see
DESIGN.md for the substitution argument.
"""

from repro.machine.config import (
    MachineConfig,
    TABLE_2_1,
    paper_config,
    scaled_config,
    sun3_like_config,
)
from repro.machine.simulator import SpurMachine
from repro.machine.runner import ExperimentRunner, RunResult
from repro.machine.inspect import (
    cache_lines,
    cache_summary,
    machine_summary,
    vm_summary,
)

__all__ = [
    "ExperimentRunner",
    "MachineConfig",
    "RunResult",
    "SpurMachine",
    "TABLE_2_1",
    "cache_lines",
    "cache_summary",
    "machine_summary",
    "paper_config",
    "scaled_config",
    "sun3_like_config",
    "vm_summary",
]
