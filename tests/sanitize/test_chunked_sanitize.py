"""Sanitizer coverage of the chunked hot loop (``run_chunks``)."""

import pytest

from repro.cache.coherence import CoherencyState
from repro.sanitize import InvariantViolation, attach
from repro.workloads.base import READ, WRITE, chunk_accesses

from tests.conftest import make_machine, simple_space


@pytest.fixture
def rig():
    space_map, regions = simple_space()
    machine = make_machine(space_map)
    return machine, regions["heap"].start


def chunked(refs, chunk_refs=32):
    return chunk_accesses(iter(refs), chunk_refs)


def corrupting_chunks(machine, heap, chunk_refs=8):
    """Clean chunk, corrupt the touched line, then more chunks."""
    refs = [(READ, heap)] * chunk_refs
    yield next(chunked(refs, chunk_refs))
    index = machine.cache.probe(heap)
    machine.cache.state[index] = CoherencyState.UNOWNED
    machine.cache.block_dirty[index] = True
    yield next(chunked(refs, chunk_refs))


@pytest.mark.parametrize("mode", ["full", "sampled", "epoch"])
class TestCleanChunkedRuns:
    def test_clean_run_passes(self, rig, mode):
        machine, heap = rig
        sanitizer = attach(machine, mode=mode)
        processed = machine.run_chunks(chunked(
            [(READ, heap + i * 4) for i in range(200)], 64
        ))
        sanitizer.check_now()
        assert processed == 200
        assert sanitizer.references_seen >= 200 or mode == "full"
        assert sanitizer.sweeps >= 1

    def test_results_match_unsanitized(self, rig, mode):
        machine, heap = rig
        refs = [
            (WRITE if i % 3 == 0 else READ, heap + (i * 37 % 96) * 4)
            for i in range(500)
        ]
        machine.run_chunks(chunked(list(refs), 96))
        baseline = (machine.cycles, machine.references,
                    machine.counters.snapshot().as_dict())

        space_map, regions = simple_space()
        watched = make_machine(space_map)
        sanitizer = attach(watched, mode=mode)
        shifted = [
            (kind, vaddr - heap + regions["heap"].start)
            for kind, vaddr in refs
        ]
        watched.run_chunks(chunked(shifted, 96))
        sanitizer.check_now()
        assert (watched.cycles, watched.references,
                watched.counters.snapshot().as_dict()) == baseline


class TestChunkedDetection:
    def test_full_mode_catches_corruption_per_chunk(self, rig):
        machine, heap = rig
        sanitizer = attach(machine, mode="full")
        machine.run_chunks(chunked([(READ, heap)], 8))
        with pytest.raises(InvariantViolation) as excinfo:
            machine.run_chunks(corrupting_chunks(machine, heap))
        assert excinfo.value.invariant == "cache.dirty-owned"
        assert sanitizer.references_seen > 0

    def test_full_mode_catches_line_block_skew(self, rig):
        # A skewed ``line_block`` on a line the stream then touches is
        # self-repairing (the false miss refills it), so corrupt a
        # line the rest of the stream leaves alone: the stream-end
        # sweep must flag the disagreement.
        machine, heap = rig
        sanitizer = attach(machine, mode="full")
        machine.run_chunks(chunked([(READ, heap)] * 4, 4))
        index = machine.cache.probe(heap)
        machine.cache.line_block[index] += 1
        other_page = heap + 128
        with pytest.raises(InvariantViolation) as excinfo:
            machine.run_chunks(chunked([(READ, other_page)] * 4, 4))
        assert excinfo.value.invariant == "cache.line-block-index"
        assert sanitizer.line_checks > 0

    def test_sampled_mode_spot_checks_chunk_tails(self, rig):
        machine, heap = rig
        sanitizer = attach(machine, mode="sampled")
        with pytest.raises(InvariantViolation):
            machine.run_chunks(corrupting_chunks(machine, heap))
        assert sanitizer.line_checks >= 1

    def test_epoch_mode_catches_at_call_end(self, rig):
        machine, heap = rig
        attach(machine, mode="epoch")
        with pytest.raises(InvariantViolation):
            machine.run_chunks(corrupting_chunks(machine, heap))


class TestDetach:
    def test_detach_restores_run_chunks(self, rig):
        machine, heap = rig
        original = machine.run_chunks
        sanitizer = attach(machine, mode="full")
        assert machine.run_chunks is not original
        sanitizer.detach()
        assert machine.run_chunks == original
        machine.cache.line_block[0] = 12345  # silent after detach
        machine.run_chunks(chunked([(READ, heap)], 4))
