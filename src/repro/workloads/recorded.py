"""Recorded workloads: capture once, replay everywhere.

Trace-driven simulation was the methodology the paper *wanted* ("it
provides precise repeatability") but could not use at scale in 1989.
Here it is cheap: :func:`record_workload` captures a synthetic
workload's reference stream plus its region map to disk, and
:class:`RecordedWorkload` replays the capture as a drop-in
:class:`~repro.workloads.base.Workload` — bit-identical input for
policy comparisons, cross-machine regression tests, or archiving the
exact stimulus behind a published number.

A capture is two files: ``<path>`` (the binary reference stream, see
:mod:`repro.workloads.tracefile`) and ``<path>.regions`` (a small text
header with the page size and one region per line).
"""

import itertools
import pathlib

from repro.common.errors import TraceFormatError
from repro.vm.segments import AddressSpaceMap, Region, RegionKind
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.tracefile import read_trace_chunks, write_trace

_REGIONS_MAGIC = "SPUR-REGIONS-1"


def _regions_path(trace_path):
    return pathlib.Path(str(trace_path) + ".regions")


def record_workload(workload, page_bytes, trace_path, seed=0,
                    max_references=None):
    """Capture a workload instantiation to disk.

    Returns the number of references recorded.  A negative
    ``max_references`` raises ``ValueError``.
    """
    if max_references is not None and max_references < 0:
        raise ValueError(
            f"max_references must be >= 0, got {max_references}"
        )
    instance = workload.instantiate(page_bytes, seed=seed)
    accesses = instance.accesses()
    if max_references is not None:
        accesses = itertools.islice(accesses, max_references)
    count = write_trace(trace_path, accesses)

    lines = [
        _REGIONS_MAGIC,
        f"name={instance.name}",
        f"page_bytes={page_bytes}",
        f"references={count}",
    ]
    for region in instance.space_map.regions():
        lines.append(
            f"region {region.name} {region.kind.value} "
            f"{region.start} {region.size} {region.pid}"
        )
    _regions_path(trace_path).write_text("\n".join(lines) + "\n")
    return count


class RecordedWorkload(Workload):
    """Replay a capture produced by :func:`record_workload`."""

    def __init__(self, trace_path):
        self.trace_path = pathlib.Path(trace_path)
        regions_path = _regions_path(trace_path)
        if not regions_path.exists():
            raise TraceFormatError(
                f"{regions_path}: region sidecar missing"
            )
        (self.name, self.page_bytes, self.length_hint,
         self._regions) = self._parse_regions(regions_path)

    @staticmethod
    def _parse_regions(path):
        lines = path.read_text().splitlines()
        if not lines or lines[0] != _REGIONS_MAGIC:
            raise TraceFormatError(f"{path}: bad region-file magic")
        header = {}
        regions = []
        for line in lines[1:]:
            if not line.strip():
                continue
            if line.startswith("region "):
                try:
                    _, name, kind, start, size, pid = line.split()
                    regions.append(Region(
                        name=name,
                        kind=RegionKind(kind),
                        start=int(start),
                        size=int(size),
                        pid=int(pid),
                    ))
                except ValueError as error:
                    raise TraceFormatError(
                        f"{path}: malformed region line {line!r}"
                    ) from error
            else:
                key, _, value = line.partition("=")
                header[key] = value
        try:
            return (
                header["name"],
                int(header["page_bytes"]),
                int(header["references"]),
                regions,
            )
        except KeyError as error:
            raise TraceFormatError(
                f"{path}: missing header field {error}"
            ) from None

    def instantiate(self, page_bytes, seed=0):
        """Rebuild the instance.  ``seed`` is ignored (it's a replay);
        ``page_bytes`` must match the recording."""
        if page_bytes != self.page_bytes:
            raise TraceFormatError(
                f"trace was recorded at page size {self.page_bytes}, "
                f"asked to replay at {page_bytes}"
            )
        space_map = AddressSpaceMap(self.page_bytes)
        for region in self._regions:
            space_map.add(region)
        space_map.seal()
        return WorkloadInstance(
            f"{self.name}@recorded",
            space_map,
            lambda chunk_refs: read_trace_chunks(
                self.trace_path, chunk_refs
            ),
            self.length_hint,
        )
