"""RunObserver attach/sample/detach mechanics on tiny machines."""

import pytest

from repro.machine.simulator import SpurMachine
from repro.observe.observer import (
    RunObserver,
    effective_epoch_refs,
    observe,
)
from repro.workloads.base import READ, WRITE, chunk_accesses

from tests.conftest import simple_space, tiny_config


def heap_trace(regions, count):
    heap = regions["heap"].start
    return [
        (WRITE if i % 3 == 0 else READ, heap + (i * 37 % 96) * 32)
        for i in range(count)
    ]


class TestEffectiveEpochRefs:
    @pytest.mark.parametrize("requested,alignment,expected", [
        (500, 256, 512),
        (512, 256, 512),
        (1, 256, 256),
        (257, 256, 512),
        (500, 1, 500),
        (500, 0, 500),
    ])
    def test_rounds_up_to_alignment(self, requested, alignment,
                                    expected):
        assert effective_epoch_refs(requested, alignment) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_epoch_refs(0, 64)


class TestAttachment:
    def test_attach_wraps_and_detach_restores(self):
        space_map, _ = simple_space()
        machine = SpurMachine(tiny_config(), space_map)

        observer = RunObserver(epoch_refs=100).attach(machine)
        assert getattr(machine.run_chunks, "__func__", None) is not (
            SpurMachine.run_chunks
        )
        # The tuple convenience stays unwrapped: it reaches the
        # instance's wrapped run_chunks.
        assert "run" not in vars(machine)

        observer.detach()
        assert machine.run_chunks.__func__ is SpurMachine.run_chunks

    def test_double_attach_rejected(self):
        space_map, _ = simple_space()
        machine = SpurMachine(tiny_config(), space_map)
        observer = RunObserver().attach(machine)
        with pytest.raises(RuntimeError):
            observer.attach(machine)
        observer.detach()

    def test_unknown_target_rejected(self):
        with pytest.raises(TypeError):
            RunObserver().attach(object())

    def test_alignment_from_machine_poll_interval(self):
        space_map, _ = simple_space()
        machine = SpurMachine(tiny_config(daemon_poll_refs=64),
                              space_map)
        observer = RunObserver(epoch_refs=100).attach(machine)
        observation = observer.finish()
        assert observation.epoch_refs == 128

    def test_alignment_trivial_when_polling_disabled(self):
        space_map, _ = simple_space()
        machine = SpurMachine(tiny_config(daemon_poll_refs=0),
                              space_map)
        assert machine.observation_alignment() == 1
        observer = RunObserver(epoch_refs=100).attach(machine)
        observation = observer.finish()
        assert observation.epoch_refs == 100


class TestSampling:
    def test_tuple_path_samples_on_cadence(self):
        space_map, regions = simple_space()
        machine = SpurMachine(tiny_config(), space_map)
        observer = observe(machine, epoch_refs=100, label="tuple")
        count = machine.run(heap_trace(regions, 250))
        observation = observer.finish()

        assert count == 250
        # Baseline + epochs at 100, 200 + stream end at 250.
        refs = [sample.references for sample in observation.samples]
        assert refs == [0, 100, 200, 250]
        assert observation.label == "tuple"
        assert observation.references == 250
        assert observation.is_monotone()

    def test_chunked_path_samples_on_cadence(self):
        space_map, regions = simple_space()
        machine = SpurMachine(tiny_config(), space_map)
        observer = observe(machine, epoch_refs=100)
        trace = heap_trace(regions, 250)
        count = machine.run_chunks(chunk_accesses(iter(trace), 64))
        observation = observer.finish()

        assert count == 250
        refs = [sample.references for sample in observation.samples]
        assert refs == [0, 100, 200, 250]

    def test_final_sample_matches_machine_state(self):
        space_map, regions = simple_space()
        machine = SpurMachine(tiny_config(), space_map)
        observer = observe(machine, epoch_refs=64)
        machine.run(heap_trace(regions, 200))
        observation = observer.finish()

        last = observation.samples[-1]
        assert last.references == machine.references
        assert last.cycles == machine.cycles
        assert last.events == machine.counters.snapshot().as_dict()

    def test_phase_seconds_accumulate(self):
        space_map, regions = simple_space()
        machine = SpurMachine(tiny_config(), space_map)
        observer = observe(machine, epoch_refs=100)
        machine.run(heap_trace(regions, 250))
        observer.charge("merge", 0.5)
        observation = observer.finish()

        assert set(observation.phases) >= {"generate", "simulate",
                                           "merge"}
        assert observation.phases["simulate"] > 0.0
        assert observation.phases["merge"] == pytest.approx(0.5)

    def test_exact_epoch_multiple_has_no_duplicate_sample(self):
        space_map, regions = simple_space()
        machine = SpurMachine(tiny_config(), space_map)
        observer = observe(machine, epoch_refs=100)
        machine.run(heap_trace(regions, 200))
        observation = observer.finish()
        refs = [sample.references for sample in observation.samples]
        assert refs == [0, 100, 200]

