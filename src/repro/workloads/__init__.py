"""Synthetic workloads standing in for the paper's measurement scripts.

The paper drove its prototype with two repeatable synthetic workloads —
WORKLOAD1 (a CAD-tool developer's mix of edits, compiles, a link and
debug of espresso, with the same CAD tool optimising a large PLA in the
background) and SLC (the SPUR Common Lisp compiler over a benchmark
suite) — plus long-running measurements of six Sprite development
machines (Table 3.5).

None of those traces survive, so this package generates equivalents:
multi-process reference streams with phased working sets, zero-fill
heap/stack allocation, file scans, and round-robin context switching,
tuned to reproduce the *event ratios* the paper's analysis consumes
(read-before-write fraction, zero-fill share of dirty faults, paging
pressure vs. memory size).  See DESIGN.md §2 for the substitution
argument.  Every stream is generated in memory from a seed, and
:func:`workload_by_name` maps the CLI's workload names to these
recipes.
"""

from repro.workloads.base import (
    DEFAULT_CHUNK_REFS,
    IFETCH,
    READ,
    WRITE,
    Workload,
    WorkloadInstance,
    chunk_accesses,
)
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage
from repro.workloads.mix import RoundRobinScheduler, SerialChain, serial
from repro.workloads.workload1 import Workload1
from repro.workloads.slc import SlcWorkload
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemProfile,
    DevSystemWorkload,
)
from repro.workloads.catalog import workload_by_name

__all__ = [
    "DEFAULT_CHUNK_REFS",
    "DEV_SYSTEM_PROFILES",
    "DevSystemProfile",
    "DevSystemWorkload",
    "IFETCH",
    "Phase",
    "PhasedProcess",
    "ProcessImage",
    "READ",
    "RoundRobinScheduler",
    "SerialChain",
    "SlcWorkload",
    "WRITE",
    "Workload",
    "Workload1",
    "WorkloadInstance",
    "chunk_accesses",
    "serial",
    "workload_by_name",
]
