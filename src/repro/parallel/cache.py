"""On-disk result cache keyed by a stable hash of run inputs.

A simulation run is a pure function of (machine config, workload
recipe, seed, reference cap): the machine starts cold, the workload
re-instantiates from its recipe, and every random draw descends from
the seed.  :func:`cache_key` derives a SHA-256 digest from a canonical
JSON rendering of exactly those inputs, so equal inputs hash equally
across processes and sessions and *any* field change — a different
memory size, policy, length scale, seed — produces a different key
(config change => cache miss).

The cache stores one JSON payload per key under
``<root>/<key[:2]>/<key>.json``.  Payloads carry a format version;
bump :data:`CACHE_FORMAT` when simulator semantics change so stale
entries become misses instead of wrong answers.  The host-timing field
``host_seconds`` is deliberately excluded from the payload (and from
:class:`~repro.machine.runner.RunResult` equality): wall-clock noise
must never defeat a cache hit or fail a parallel-vs-serial comparison.
"""

import dataclasses
import enum
import hashlib
import json
import os
import pathlib

from repro.counters.events import Event
from repro.machine.runner import RunResult

#: Bump when RunResult fields or simulator semantics change; old
#: payloads then read as misses rather than stale hits.
CACHE_FORMAT = 1


class CacheKeyError(TypeError):
    """An input value has no canonical (stable) rendering."""


def _canonical(value):
    """Render *value* as JSON-serialisable, deterministic structure.

    Handles the types experiment inputs are made of: primitives,
    sequences, dicts, enums, and (nested) dataclasses such as
    :class:`MachineConfig` and the workload profile records.  Anything
    else raises :class:`CacheKeyError` — a loud failure beats a key
    that silently varies between processes (e.g. a default ``repr``
    embedding an object address).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips floats exactly and avoids 1 vs 1.0 JSON
        # ambiguity against the int branch above.
        return {"__float__": repr(value)}
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__qualname__}.{value.name}"}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__qualname__,
            "fields": {
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        rendered = [_canonical(item) for item in value]
        return {"__set__": sorted(rendered, key=_sort_key)}
    if isinstance(value, dict):
        items = [
            [_canonical(key), _canonical(val)]
            for key, val in value.items()
        ]
        items.sort(key=lambda pair: _sort_key(pair[0]))
        return {"__dict__": items}
    raise CacheKeyError(
        f"cannot derive a stable cache key from "
        f"{type(value).__qualname__!r} value {value!r}"
    )


def _sort_key(rendered):
    """A total order over canonical renderings (for sets and dicts)."""
    return json.dumps(rendered, sort_keys=True)


def workload_spec(workload):
    """Canonical spec of a workload recipe: class plus constructor state.

    Recipes are plain objects whose ``__dict__`` holds only scalars
    and profile dataclasses, so their instance state *is* their spec;
    the class identity distinguishes two recipes that happen to share
    field names.
    """
    cls = type(workload)
    return {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "state": _canonical(vars(workload)),
    }


def cache_key(config, workload, seed=0, max_references=None):
    """Stable hex digest of one run's complete input set."""
    spec = {
        "format": CACHE_FORMAT,
        "config": _canonical(config),
        "workload": workload_spec(workload),
        "seed": seed,
        "max_references": max_references,
    }
    encoded = json.dumps(
        spec, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def cell_key(cell):
    """The :class:`~repro.parallel.executor.RunCell`'s cache key, or
    ``None``.

    ``None`` means the cell's inputs have no canonical rendering
    (:class:`CacheKeyError`): such a cell can be simulated but never
    cached or resumed, because it has no stable identity.
    """
    try:
        return cache_key(
            cell.config, cell.workload, cell.seed, cell.max_references
        )
    except CacheKeyError:
        return None


def result_to_payload(result):
    """Serialise a :class:`RunResult` for the cache.

    ``host_seconds`` is excluded by design: it measures this host's
    wall clock, not the simulation, and would otherwise make every
    cached result compare unequal to its recomputation.
    """
    return {
        "format": CACHE_FORMAT,
        "workload": result.workload,
        "config_name": result.config_name,
        "memory_bytes": result.memory_bytes,
        "dirty_policy": result.dirty_policy,
        "reference_policy": result.reference_policy,
        "seed": result.seed,
        "references": result.references,
        "cycles": result.cycles,
        "events": {
            event.name: count for event, count in result.events.items()
        },
        "page_ins": result.page_ins,
        "page_outs": result.page_outs,
        "zero_fills": result.zero_fills,
        "potentially_modified": result.potentially_modified,
        "not_modified": result.not_modified,
    }


def result_from_payload(payload):
    """Rebuild a :class:`RunResult` from a cache payload.

    Raises ``KeyError``/``TypeError`` on malformed payloads and on
    payloads of another :data:`CACHE_FORMAT`; callers treat those as
    cache misses.  ``host_seconds`` comes back 0.0 — a cache hit did
    no host work.
    """
    if (not isinstance(payload, dict)
            or payload.get("format") != CACHE_FORMAT
            or not isinstance(payload.get("events"), dict)):
        raise TypeError("not a current-format result payload")
    return RunResult(
        workload=payload["workload"],
        config_name=payload["config_name"],
        memory_bytes=payload["memory_bytes"],
        dirty_policy=payload["dirty_policy"],
        reference_policy=payload["reference_policy"],
        seed=payload["seed"],
        references=payload["references"],
        cycles=payload["cycles"],
        events={
            Event[name]: count
            for name, count in payload["events"].items()
        },
        page_ins=payload["page_ins"],
        page_outs=payload["page_outs"],
        zero_fills=payload["zero_fills"],
        potentially_modified=payload["potentially_modified"],
        not_modified=payload["not_modified"],
    )


class ResultCache:
    """Directory of cached :class:`RunResult` payloads.

    Entries are written atomically (temp file + ``os.replace``) so a
    killed run never leaves a truncated payload behind; unreadable or
    version-mismatched entries read as misses.  ``hits`` / ``misses``
    / ``stores`` count this instance's traffic, which is what the
    equivalence tests (and ``repro campaign``) report.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key):
        """Where *key*'s payload lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key):
        """The cached :class:`RunResult` for *key*, or ``None``."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        try:
            result = result_from_payload(payload)
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key, result):
        """Persist *result* under *key* (atomic replace)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            result_to_payload(result), sort_keys=True
        )
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(payload + "\n", encoding="utf-8")
        os.replace(tmp, path)
        self.stores += 1

    def __len__(self):
        return sum(
            1 for _ in self.root.glob("??/*.json")
        )

    def clear(self):
        """Drop every cached entry (keeps the directory)."""
        for path in self.root.glob("??/*.json"):
            path.unlink()

    def stats_line(self):
        """One-line traffic summary for CLI output."""
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores ({self.root})"
        )
