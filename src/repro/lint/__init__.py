"""Repo-specific static analysis for the SPUR reproduction.

Seven rules encode discipline the simulator depends on but generic
linters cannot check::

    python -m repro.lint src/

Syntactic (per-file):

* **R001** hot-path purity in ``SpurMachine._run_refs``'s reference
  loop and ``SpurMachine.run_chunks``'s chunk loop
* **R002** parallel tag-array write discipline
* **R003** ``Event`` exhaustiveness (mode maps + increment sites)
* **R004** ``Event`` documentation coverage in ``docs/events.md``

Whole-program (symbol table + call graph + effect inference over the
scanned tree):

* **R005** determinism audit of everything reachable from the
  simulator hot loops
* **R006** cache-key soundness for ``MachineConfig``/``RunOptions``
  field reads on the simulation path
* **R008** transitive hot-path purity (R001's call ban as a proof)

See ``docs/analysis.md`` for the rule catalogue and the effect
lattice.
"""

from repro.lint.callgraph import CallGraph, CallSite
from repro.lint.effects import NONDET, EffectTable, classify
from repro.lint.engine import (
    Module,
    Project,
    build_project,
    run_lint,
)
from repro.lint.findings import Finding, LintConfig
from repro.lint.flowrules import (
    FLOW_RULES,
    check_cache_key,
    check_determinism,
    check_transitive_purity,
)
from repro.lint.rules import (
    ALL_RULES,
    check_event_docs,
    check_event_exhaustiveness,
    check_hot_loops,
    check_tag_array_writes,
)
from repro.lint.symbols import SymbolTable

__all__ = [
    "ALL_RULES",
    "CallGraph",
    "CallSite",
    "EffectTable",
    "FLOW_RULES",
    "Finding",
    "LintConfig",
    "Module",
    "NONDET",
    "Project",
    "SymbolTable",
    "build_project",
    "check_cache_key",
    "check_determinism",
    "check_event_docs",
    "check_event_exhaustiveness",
    "check_hot_loops",
    "check_tag_array_writes",
    "check_transitive_purity",
    "classify",
    "run_lint",
]
