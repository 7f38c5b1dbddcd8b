"""Unit tests for trace serialisation."""

import pytest

from repro.common.errors import TraceFormatError
from repro.workloads.base import IFETCH, READ, WRITE
from repro.workloads.tracefile import read_trace_chunks, write_trace
from tests.oracle import pairs


def read_trace(path):
    """The ``(kind, vaddr)`` records of a trace file, in order."""
    return list(pairs(read_trace_chunks(path)))


def test_round_trip(tmp_path):
    path = tmp_path / "trace.bin"
    refs = [(READ, 0x1000), (WRITE, 0xDEADBEEF), (IFETCH, 0)]
    assert write_trace(path, refs) == 3
    assert list(read_trace(path)) == refs


def test_empty_trace(tmp_path):
    path = tmp_path / "empty.bin"
    write_trace(path, [])
    assert list(read_trace(path)) == []


def test_large_trace_spans_chunks(tmp_path):
    path = tmp_path / "big.bin"
    refs = [(i % 3, i * 32) for i in range(10_000)]
    write_trace(path, refs)
    assert list(read_trace(path)) == refs


def test_64_bit_addresses(tmp_path):
    # References are signed 64-bit: the widest address round-trips,
    # and a wider one written to the file is refused on reading.
    path = tmp_path / "wide.bin"
    refs = [(READ, (1 << 63) - 1)]
    write_trace(path, refs)
    assert list(read_trace(path)) == refs
    write_trace(path, [(READ, (1 << 63) + 5)])
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTATRCE" + b"\x00" * 8)
    with pytest.raises(TraceFormatError):
        list(read_trace(path))


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"SPUR")
    with pytest.raises(TraceFormatError):
        list(read_trace(path))


def test_truncated_body_rejected(tmp_path):
    path = tmp_path / "cut.bin"
    write_trace(path, [(READ, 1), (READ, 2)])
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(TraceFormatError):
        list(read_trace(path))


def test_generator_input(tmp_path):
    path = tmp_path / "gen.bin"
    write_trace(path, ((READ, i) for i in range(100)))
    assert sum(1 for _ in read_trace(path)) == 100
