"""Data-driven workloads: define a workload as a JSON/dict spec.

Studying a new scenario shouldn't require writing Python: a workload
spec is a plain dictionary (or JSON file) naming processes, their
region sizes, phase scripts and scheduler weights, validated eagerly
against the same rules as the code-defined workloads.  The CLI accepts
spec files wherever it accepts a workload name.

Example spec::

    {
      "name": "editor-vs-compiler",
      "quantum": 8192,
      "processes": [
        {
          "name": "editor", "weight": 0.5,
          "code_pages": 4, "heap_pages": 64, "file_pages": 16,
          "phases": [
            {"duration": 50000, "ws_pages": 32, "write_frac": 0.2,
             "scan_pages": 8}
          ]
        },
        {
          "name": "compiler",
          "code_pages": 8, "heap_pages": 256, "file_pages": 32,
          "phases": [
            {"duration": 80000, "ws_pages": 120, "write_frac": 0.4,
             "alloc_pages": 90, "scan_pages": 24}
          ]
        }
      ]
    }

Phase keys are exactly the :class:`~repro.workloads.synthetic.Phase`
fields; unknown keys are rejected rather than ignored.
"""

import dataclasses
import json
import pathlib

from repro.common.errors import ConfigurationError
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.mix import RoundRobinScheduler
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage

#: Global-space slice reserved per process image.
_SLICE = 0x0100_0000

#: Keys a process entry may carry besides its phases.
_PROCESS_KEYS = {
    "name", "weight", "code_pages", "heap_pages", "stack_pages",
    "data_pages", "file_pages", "phases",
}

_PHASE_KEYS = {field.name for field in dataclasses.fields(Phase)}


class ScriptedWorkload(Workload):
    """A workload built from a validated spec dictionary."""

    def __init__(self, spec, length_scale=1.0):
        if isinstance(spec, (str, pathlib.Path)):
            spec = json.loads(pathlib.Path(spec).read_text())
        self.spec = spec
        self.length_scale = length_scale
        self.name = spec.get("name", "scripted")
        self._validate()

    def _validate(self):
        spec = self.spec
        processes = spec.get("processes")
        if not processes:
            raise ConfigurationError(
                "spec needs a non-empty 'processes' list"
            )
        for entry in processes:
            unknown = set(entry) - _PROCESS_KEYS
            if unknown:
                raise ConfigurationError(
                    f"process {entry.get('name', '?')!r}: unknown "
                    f"keys {sorted(unknown)}"
                )
            if "heap_pages" not in entry or "code_pages" not in entry:
                raise ConfigurationError(
                    f"process {entry.get('name', '?')!r}: needs "
                    f"code_pages and heap_pages"
                )
            phases = entry.get("phases")
            if not phases:
                raise ConfigurationError(
                    f"process {entry.get('name', '?')!r}: needs at "
                    f"least one phase"
                )
            for phase in phases:
                unknown = set(phase) - _PHASE_KEYS
                if unknown:
                    raise ConfigurationError(
                        f"process {entry.get('name', '?')!r}: "
                        f"unknown phase keys {sorted(unknown)}"
                    )
                if "duration" not in phase:
                    raise ConfigurationError(
                        f"process {entry.get('name', '?')!r}: every "
                        f"phase needs a duration"
                    )

    def instantiate(self, page_bytes, seed=0):
        """Build the process images and scheduler from the spec."""
        rng = self._rng(seed)
        space_map = AddressSpaceMap(page_bytes)
        scale = self.length_scale

        scheduled = []
        length_hint = 0
        for pid, entry in enumerate(self.spec["processes"]):
            space = ProcessAddressSpace(
                pid, (pid + 1) * _SLICE, _SLICE, space_map
            )
            image = ProcessImage(
                space,
                code_pages=entry["code_pages"],
                heap_pages=entry["heap_pages"],
                stack_pages=entry.get("stack_pages", 2),
                data_pages=entry.get("data_pages", 0),
                file_pages=entry.get("file_pages", 0),
            )
            phases = []
            for phase_spec in entry["phases"]:
                values = dict(phase_spec)
                values["duration"] = max(
                    1024, int(values["duration"] * scale)
                )
                phases.append(Phase(**values))
                length_hint += values["duration"]
            process = PhasedProcess(
                image, phases,
                rng.substream(entry.get("name", f"p{pid}")),
            )
            scheduled.append(
                (process, float(entry.get("weight", 1.0)))
            )

        space_map.seal()
        scheduler = RoundRobinScheduler(
            scheduled, quantum=int(self.spec.get("quantum", 8192))
        )
        return WorkloadInstance(
            self.name, space_map, scheduler.access_chunks, length_hint,
        )
