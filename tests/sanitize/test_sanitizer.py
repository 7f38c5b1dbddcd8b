"""Sanitizer behavior: attachment, modes, detection latency, detach."""

import pytest

from repro.cache.cache import VirtualCache
from repro.cache.coherence import CoherencyState
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection
from repro.sanitize import InvariantViolation, MODES, Sanitizer, attach
from repro.workloads.base import READ, WRITE, chunk_accesses

from tests.conftest import make_machine, simple_space


def corrupting_stream(machine, heap, refs_before=2, refs_after=2):
    """Yield hits on ``heap``, corrupting its line partway through."""
    for _ in range(refs_before):
        yield (READ, heap)
    index = machine.cache.probe(heap)
    machine.cache.state[index] = CoherencyState.UNOWNED
    machine.cache.block_dirty[index] = True
    for _ in range(refs_after):
        yield (READ, heap)


@pytest.fixture
def rig():
    space_map, regions = simple_space()
    machine = make_machine(space_map)
    return machine, regions["heap"].start


class TestConstruction:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Sanitizer(mode="paranoid")

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            Sanitizer().attach(object())

    def test_modes_catalogue(self):
        assert MODES == ("full", "sampled", "epoch")


class TestFullMode:
    def test_clean_run_passes(self, rig):
        machine, heap = rig
        sanitizer = attach(machine, mode="full")
        processed = machine.run(
            [(READ, heap + i * 4) for i in range(64)]
        )
        sanitizer.check_now()
        assert processed == 64
        assert sanitizer.line_checks >= 64
        assert sanitizer.sweeps >= 1

    def test_corruption_caught_at_next_reference(self, rig):
        machine, heap = rig
        sanitizer = attach(machine, mode="full")
        machine.run([(READ, heap)])
        with pytest.raises(InvariantViolation) as excinfo:
            machine.run(corrupting_stream(machine, heap))
        assert excinfo.value.invariant == "cache.dirty-owned"
        # Caught while the stream was still flowing, not at the end:
        # two clean refs before the corruption, the violating one after.
        assert excinfo.value.ref_index is not None

    def test_periodic_sweeps(self, rig):
        machine, heap = rig
        sanitizer = Sanitizer(mode="full", sweep_interval=16)
        sanitizer.attach(machine)
        machine.run([(READ, heap + i * 4) for i in range(64)])
        assert sanitizer.sweeps >= 4


class TestEpochMode:
    def test_corruption_caught_at_run_end(self, rig):
        machine, heap = rig
        attach(machine, mode="epoch")
        machine.run([(READ, heap)])
        with pytest.raises(InvariantViolation):
            machine.run(corrupting_stream(machine, heap))
        # Epoch mode never touches the stream, so every reference was
        # processed before the end-of-run sweep fired.
        assert machine.references == 5

    def test_clean_run_sweeps_once_per_run(self, rig):
        machine, heap = rig
        sanitizer = attach(machine, mode="epoch")
        machine.run([(READ, heap)])
        machine.run([(READ, heap)])
        assert sanitizer.sweeps == 2


class TestSampledMode:
    def test_corruption_caught_by_final_sweep(self, rig):
        machine, heap = rig
        attach(machine, mode="sampled")
        machine.run([(READ, heap)])
        with pytest.raises(InvariantViolation):
            machine.run(corrupting_stream(machine, heap))

    def test_spot_checks_happen(self, rig):
        machine, heap = rig
        sanitizer = attach(machine, mode="sampled")
        refs = [(READ, heap + i * 4) for i in range(64)]
        # One spot check per chunk: its last reference.
        machine.run_chunks(chunk_accesses(refs, 8))
        assert sanitizer.line_checks == 64 // 8
        assert sanitizer.references_seen == 64


class TestDetach:
    def test_detach_restores_run(self, rig):
        machine, heap = rig
        sanitizer = attach(machine, mode="full")
        machine.run([(READ, heap)])
        sanitizer.detach()
        # With the instrumentation gone, the same corruption pattern
        # sails through the hot loop unnoticed.
        processed = machine.run(corrupting_stream(machine, heap))
        assert processed == 4

    def test_reattach_after_detach(self, rig):
        machine, heap = rig
        sanitizer = attach(machine, mode="full")
        sanitizer.detach()
        sanitizer.attach(machine)
        with pytest.raises(InvariantViolation):
            machine.run(corrupting_stream(machine, heap))


class TestBareCache:
    def build(self):
        return VirtualCache(
            CacheGeometry(size_bytes=1024, block_bytes=32),
            MemoryTiming(),
            name="bare",
        )

    def test_full_mode_wraps_mutators(self):
        cache = self.build()
        sanitizer = attach(cache, mode="full")
        cache.fill(0x400, Protection.READ_WRITE, False, False)
        assert sanitizer.line_checks == 1
        cache.invalidate(cache.probe(0x400))
        assert sanitizer.line_checks == 2
        sanitizer.detach()
        cache.fill(0x800, Protection.READ_WRITE, False, False)
        assert sanitizer.line_checks == 2

    def test_check_now_sweeps_registered_cache(self):
        cache = self.build()
        sanitizer = attach(cache, mode="epoch")
        index = cache.fill(0x400, Protection.READ_WRITE, False, False)[0]
        cache.line_block[index] ^= 1
        with pytest.raises(InvariantViolation):
            sanitizer.check_now()


class TestUniprocessorOwnership:
    """OWNED_SHARED needs a second cache holding a copy; the machine
    has one, so a write hit's only ownership transition is UNOWNED to
    OWNED_EXCLUSIVE."""

    @pytest.mark.parametrize("mode", MODES)
    def test_planted_shared_owner_detected(self, rig, mode):
        machine, heap = rig
        attach(machine, mode=mode)
        machine.run([(READ, heap)])
        index = machine.cache.probe(heap)
        machine.cache.state[index] = CoherencyState.OWNED_SHARED
        with pytest.raises(InvariantViolation) as excinfo:
            machine.run([(READ, heap)])
        assert excinfo.value.invariant == "cache.no-shared-owner"


class TestFixture:
    def test_sanitized_machine_fixture(self, sanitized_machine):
        heap = sanitized_machine.test_regions["heap"].start
        sanitized_machine.run([(READ, heap), (WRITE, heap)])
        assert sanitized_machine.sanitizer.references_seen == 2


class TestCli:
    def test_full_mode_clean_run(self, capsys):
        from repro.sanitize.cli import main
        assert main(["--refs", "1500", "--mode", "full"]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "no violations" in out

    def test_sampled_mode_run(self, capsys):
        from repro.sanitize.cli import main
        code = main(["--refs", "1200", "--mode", "sampled"])
        assert code == 0
        assert "ok:" in capsys.readouterr().out

    def test_cpus_option_is_gone(self, capsys):
        # The sanitized machine is the one uniprocessor board.
        from repro.sanitize.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["--refs", "1200", "--cpus", "2"])
        assert excinfo.value.code == 2
        assert "--cpus" in capsys.readouterr().err
