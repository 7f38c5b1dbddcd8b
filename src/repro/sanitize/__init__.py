"""Runtime invariant checking for the SPUR reproduction.

Quick start::

    from repro.sanitize import Sanitizer

    sanitizer = Sanitizer(mode="full").attach(machine)
    machine.run_chunks(instance.access_chunks())  # raises on breach
    sanitizer.check_now()      # or sweep explicitly at any time

See ``docs/invariants.md`` for the checked catalogue and
``python -m repro.sanitize --help`` for the self-check CLI.
"""

from repro.sanitize.checks import (
    check_cache_arrays,
    check_column_store,
    check_dirty_policy,
    check_line,
    check_vm,
)
from repro.sanitize.sanitizer import MODES, Sanitizer, attach
from repro.sanitize.violation import InvariantViolation

__all__ = [
    "Sanitizer",
    "InvariantViolation",
    "MODES",
    "attach",
    "check_cache_arrays",
    "check_column_store",
    "check_dirty_policy",
    "check_line",
    "check_vm",
]
