"""Resolve workload names to recipes (the CLI's vocabulary).

``slc``/``lisp``, ``workload1``/``w1``/``cad`` and ``dev-<host>`` all
map to workload recipes here.
Library callers get a :class:`ValueError` on unknown names; the CLI
wraps that into a ``SystemExit`` with the same message.
"""

from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1


def workload_by_name(name, length_scale=1.0):
    """The workload recipe for a CLI-style *name*.

    Accepts ``slc``/``lisp``, ``workload1``/``w1``/``cad``,
    or ``dev-<host>`` (a Table 3.5 development system).  Raises
    :class:`ValueError` for anything else.
    """
    lowered = name.lower()
    if lowered in ("slc", "lisp"):
        return SlcWorkload(length_scale=length_scale)
    if lowered in ("workload1", "w1", "cad"):
        return Workload1(length_scale=length_scale)
    if lowered.startswith("dev-"):
        host = lowered[4:]
        for profile in DEV_SYSTEM_PROFILES:
            if profile.hostname == host:
                return DevSystemWorkload(profile,
                                         length_scale=length_scale)
        raise ValueError(
            f"unknown host {host!r}; known: "
            f"{sorted({p.hostname for p in DEV_SYSTEM_PROFILES})}"
        )
    raise ValueError(
        f"unknown workload {name!r}; try slc, workload1 or dev-<host>"
    )


__all__ = ["workload_by_name"]
