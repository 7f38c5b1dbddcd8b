"""Unit tests for the round-robin scheduler and serial chains.

Each test stream tags its references with a per-stream kind (0, 1 or
2), so the interleave reads straight off the kinds of the flattened
chunk stream.
"""

import pytest

from repro.workloads.base import chunk_accesses
from repro.workloads.mix import RoundRobinScheduler, serial
from tests.oracle import pairs

A, B = 0, 1


def stream(label, count):
    for index in range(count):
        yield (label, index)


def labels_of(composition):
    return [label for label, _ in pairs(composition.access_chunks())]


class TestRoundRobin:
    def test_interleaves_in_quanta(self):
        scheduler = RoundRobinScheduler(
            [stream(A, 6), stream(B, 6)], quantum=2
        )
        assert labels_of(scheduler) == [A, A, B, B] * 3

    def test_all_references_delivered(self):
        scheduler = RoundRobinScheduler(
            [stream(A, 7), stream(B, 3)], quantum=4
        )
        assert len(labels_of(scheduler)) == 10

    def test_finished_processes_drop_out(self):
        scheduler = RoundRobinScheduler(
            [stream(A, 2), stream(B, 8)], quantum=2
        )
        labels = labels_of(scheduler)
        # After a's two refs, only b runs.
        assert labels[2:] == [B] * 8

    def test_weights_scale_quanta(self):
        scheduler = RoundRobinScheduler(
            [(stream(A, 8), 1.0), (stream(B, 8), 0.5)], quantum=4
        )
        assert labels_of(scheduler)[:6] == [A] * 4 + [B] * 2

    def test_accepts_objects_with_access_chunks_method(self):
        class Proc:
            def access_chunks(self, chunk_refs):
                return chunk_accesses(stream(2, 3), chunk_refs)

        scheduler = RoundRobinScheduler([Proc()], quantum=2)
        assert labels_of(scheduler) == [2, 2, 2]

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler([], quantum=0)

    def test_empty_scheduler(self):
        assert labels_of(RoundRobinScheduler([])) == []


class TestSerial:
    def test_runs_back_to_back(self):
        chained = serial([stream(A, 2), stream(B, 2)])
        assert labels_of(chained) == [A, A, B, B]

    def test_accepts_process_objects(self):
        class Proc:
            def __init__(self, label):
                self.label = label

            def access_chunks(self, chunk_refs):
                return chunk_accesses(stream(self.label, 1), chunk_refs)

        assert labels_of(serial([Proc(A), Proc(B)])) == [A, B]
