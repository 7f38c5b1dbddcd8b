"""Trace serialisation.

A tiny binary format for storing reference streams: useful for exact
repeatability across machines, for regression-testing the generators,
and for replaying a captured stream against many configurations
without regeneration cost.

Format: an 16-byte header (magic, version, record count) followed by
one ``<BQ`` record per reference (kind byte, 64-bit virtual address),
little endian throughout.
"""

import struct

from array import array

from repro.common.errors import TraceFormatError
from repro.workloads.base import DEFAULT_CHUNK_REFS

_MAGIC = b"SPURTRC1"
_HEADER = struct.Struct("<8sQ")
_RECORD = struct.Struct("<BQ")
_CHUNK_RECORDS = 4096


def write_trace(path, accesses):
    """Write ``(kind, vaddr)`` tuples to ``path``; returns the count."""
    count = 0
    pack = _RECORD.pack
    with open(path, "wb") as stream:
        stream.write(_HEADER.pack(_MAGIC, 0))  # count patched below
        buffer = []
        for kind, vaddr in accesses:
            buffer.append(pack(kind, vaddr))
            count += 1
            if len(buffer) >= _CHUNK_RECORDS:
                stream.write(b"".join(buffer))
                buffer.clear()
        if buffer:
            stream.write(b"".join(buffer))
        stream.seek(0)
        stream.write(_HEADER.pack(_MAGIC, count))
    return count


def read_trace_chunks(path, chunk_refs=DEFAULT_CHUNK_REFS):
    """Yield flat ``array('q')`` chunks of ``chunk_refs`` references.

    Records are bulk-unpacked straight into the interleaved
    ``kind, vaddr`` layout the hot loop consumes (a repeated ``<BQ`` struct unpacks
    to exactly that flat sequence), skipping per-record tuple
    construction entirely.

    Raises
    ------
    TraceFormatError
        On a bad magic number, a truncated file, or an address of
        2**63 or more (the reference format is signed 64-bit).
    """
    if chunk_refs <= 0:
        raise ValueError("chunk_refs must be positive")
    record_size = _RECORD.size
    full_chunk = struct.Struct("<" + "BQ" * chunk_refs)
    with open(path, "rb") as stream:
        header = stream.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        remaining = count
        while remaining > 0:
            records = min(remaining, chunk_refs)
            data = stream.read(record_size * records)
            if len(data) != record_size * records:
                raise TraceFormatError(
                    f"{path}: truncated after "
                    f"{count - remaining} of {count} records"
                )
            if records == chunk_refs:
                values = full_chunk.unpack(data)
            else:
                values = struct.Struct("<" + "BQ" * records).unpack(
                    data
                )
            try:
                chunk = array("q", values)
            except OverflowError:
                raise TraceFormatError(
                    f"{path}: an address at or after record "
                    f"{count - remaining} is 2**63 or more"
                ) from None
            yield chunk
            remaining -= records
