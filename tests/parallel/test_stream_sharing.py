"""Cells that read one reference stream generate it once.

``run_many`` and ``run_pending`` run same-stream cells as a batch: the
first run records the stream, the later runs replay it.  Every test
here checks that sharing is invisible in the results — against
per-cell ``ExperimentRunner.run`` calls and ``tests/golden/golden.json``
— and that generation really happens once per (stream, batch).
"""

import gc
import random

import pytest

from repro.analysis.experiments import MEMORY_POINTS
from repro.common.errors import ProtectionFault
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.simulator import SpurMachine
from repro.options import RunOptions
from repro.parallel.executor import (
    CampaignError,
    RunCell,
    execute_cells,
    run_batch,
    stream_batches,
    stream_key,
)
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.vm.system import VirtualMemorySystem
from repro.workloads import synthetic
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1
from tests.golden.regen import LENGTH_SCALE, cell_record, load_golden
from tests.oracle import scalar_run_chunks

TINY = 0.01


def table_4_1_grid():
    """``[(label, spec)]`` of the reduced Table 4.1 grid, seed 0."""
    grid = []
    for name, recipe in (("SLC", SlcWorkload), ("WORKLOAD1", Workload1)):
        for memory_mb, ratio in MEMORY_POINTS:
            for policy in REFERENCE_POLICY_NAMES:
                config = scaled_config(
                    memory_ratio=ratio, dirty_policy="SPUR",
                    reference_policy=policy,
                )
                grid.append((
                    f"{name}/{memory_mb}/{policy}",
                    (config, recipe(length_scale=LENGTH_SCALE), 0, None),
                ))
    random.Random(7).shuffle(grid)
    return grid


def policy_specs(workload=None, seed=3, max_references=None):
    """Three cells on one Workload1 stream under different policies."""
    return [
        (scaled_config(memory_ratio=24, dirty_policy=dirty,
                       reference_policy=ref),
         workload or Workload1(length_scale=TINY), seed, max_references)
        for dirty, ref in (("SPUR", "MISS"), ("FAULT", "REF"),
                           ("FLUSH", "NOREF"))
    ]


def per_cell(specs, options=None):
    """Each spec run on its own, with no stream sharing."""
    runner = ExperimentRunner(options=options)
    return [
        runner.run(config, workload, seed=seed,
                   max_references=max_references)
        for config, workload, seed, max_references in specs
    ]


@pytest.fixture
def bursts(monkeypatch):
    """Counts calls of ``PhasedProcess._make_burst``."""
    calls = [0]
    real = synthetic.PhasedProcess._make_burst

    def counted(self, phase):
        calls[0] += 1
        return real(self, phase)

    monkeypatch.setattr(synthetic.PhasedProcess, "_make_burst", counted)
    return calls


@pytest.fixture(scope="module")
def grid_per_cell():
    grid = table_4_1_grid()
    return grid, per_cell([spec for _, spec in grid])


@pytest.mark.parametrize("workers", [1, 2])
def test_shuffled_table_4_1_matches_per_cell_runs_and_golden(
        grid_per_cell, workers):
    grid, expected = grid_per_cell
    results = ExperimentRunner().run_many(
        [spec for _, spec in grid],
        options=RunOptions(workers=workers),
        labels=[label for label, _ in grid],
    )
    assert results == expected
    golden = load_golden()["4.1"]
    for (label, _), result in zip(grid, results):
        assert cell_record(result) == golden[label], label


def test_stream_generated_once_per_batch(bursts):
    specs = policy_specs()
    per_cell(specs[:1])
    one_run = bursts[0]
    bursts[0] = 0
    assert ExperimentRunner().run_many(specs) == per_cell(specs)
    assert bursts[0] == one_run + 3 * one_run  # shared run + per-cell

    # Two batches of one stream generate it twice.
    cells = [RunCell(*spec) for spec in specs]
    batches = stream_batches(cells, range(3), splits=2)
    assert batches == [[0, 1], [2]]
    bursts[0] = 0
    run_batch(batches[0], lambda index: per_cell(specs[index:index + 1]))
    run_batch(batches[1], lambda index: per_cell(specs[index:index + 1]))
    assert bursts[0] == 2 * one_run


def test_single_cell_stream_is_never_recorded(monkeypatch):
    claims = [0]
    real_claim = synthetic.StreamRecording.claim

    def claim(self):
        claims[0] += 1
        return real_claim(self)

    monkeypatch.setattr(synthetic.StreamRecording, "claim", claim)
    shared, alone = policy_specs()[:2], policy_specs(seed=4)[:1]
    processes = per_cell_process_count(shared[0])
    ExperimentRunner().run_many(shared + alone)
    # Only the shared stream's two runs claimed tapes.
    assert claims[0] == 2 * processes


def per_cell_process_count(spec):
    config, workload, seed, _ = spec
    count = [0]
    real_init = synthetic.PhasedProcess.__init__

    def init(self, *args, **kwargs):
        count[0] += 1
        real_init(self, *args, **kwargs)

    synthetic.PhasedProcess.__init__ = init
    try:
        workload.instantiate(config.page_bytes, seed=seed)
    finally:
        synthetic.PhasedProcess.__init__ = real_init
    return count[0]


def test_partial_recording_is_never_replayed(bursts, monkeypatch):
    specs = policy_specs() + policy_specs()[:1]
    expected = per_cell(specs)
    one_run = bursts[0] // len(specs)
    armed = [True]
    faults = [0]
    real_fault = VirtualMemorySystem.handle_page_fault

    def page_fault(self, vpn):
        if armed[0]:
            faults[0] += 1
            if faults[0] == 300:
                armed[0] = False
                raise ProtectionFault(vpn * self.page_bytes,
                                      "injected fault")
        return real_fault(self, vpn)

    monkeypatch.setattr(VirtualMemorySystem, "handle_page_fault",
                        page_fault)
    bursts[0] = 0
    with pytest.raises(CampaignError) as excinfo:
        execute_cells([RunCell(*spec) for spec in specs])
    results = excinfo.value.results
    assert results[0] is None
    assert results[1:] == expected[1:]
    # The torn first run recorded part of the stream; the second run
    # recorded it afresh and the last two replayed.
    assert one_run < bursts[0] < 2 * one_run


def test_pool_batch_keeps_its_other_cells_when_one_faults(monkeypatch):
    specs = policy_specs()
    expected = per_cell(specs)
    real_fault = VirtualMemorySystem.handle_page_fault

    def page_fault(self, vpn):
        if self.machine.config.dirty_policy == "FAULT":
            raise ProtectionFault(vpn * self.page_bytes, "injected fault")
        return real_fault(self, vpn)

    # Forked pool workers inherit the patch.
    monkeypatch.setattr(VirtualMemorySystem, "handle_page_fault",
                        page_fault)
    with pytest.raises(CampaignError) as excinfo:
        execute_cells([RunCell(*spec) for spec in specs], workers=2)
    (failure,) = excinfo.value.failures
    assert failure.index == 1
    assert failure.error.startswith("ProtectionFault: injected fault")
    results = excinfo.value.results
    assert [results[0], results[2]] == [expected[0], expected[2]]


@pytest.mark.parametrize("options,scalar", [
    (RunOptions(), True),
    (RunOptions(sanitize="sampled"), False),
    (RunOptions(observe=True), False),
], ids=["scalar-oracle", "sanitized", "observed"])
def test_execution_modes_match_per_cell_runs(options, scalar, monkeypatch):
    if scalar:
        monkeypatch.setattr(SpurMachine, "run_chunks", scalar_run_chunks)
    specs = policy_specs()
    results = ExperimentRunner().run_many(specs, options=options)
    assert results == per_cell(specs, options)
    if options.observe:
        for result in results:
            final = result.observation.samples[-1]
            assert final.references == result.references


def test_capped_cells_run_alone_and_match():
    specs = policy_specs(max_references=3000)
    cells = [RunCell(*spec) for spec in specs]
    assert stream_batches(cells, range(3)) == [[0], [1], [2]]
    assert ExperimentRunner().run_many(specs) == per_cell(specs)


def test_over_budget_recording_regenerates(bursts, monkeypatch):
    specs = policy_specs()
    expected = per_cell(specs)
    generated = bursts[0]
    monkeypatch.setattr(synthetic, "RECORDING_BUDGET_BYTES", 1000)
    bursts[0] = 0
    assert ExperimentRunner().run_many(specs) == expected
    assert bursts[0] == generated


def test_uncanonical_workload_shares_nothing():
    class Opaque(Workload1):
        pass

    workload = Opaque(length_scale=TINY)
    workload.handle = object()
    cell = RunCell(*policy_specs(workload=workload)[0])
    assert stream_key(cell) is None
    assert stream_key(RunCell(*policy_specs()[0])) is not None


def test_batches_split_near_equally_in_index_order():
    a = RunCell(*policy_specs()[0])
    b = RunCell(*policy_specs(seed=4)[0])
    cells = [a, b, a, a, b, a, a]
    assert stream_batches(cells, range(7)) == [[0, 2, 3, 5, 6], [1, 4]]
    assert stream_batches(cells, range(7), splits=2) == [
        [0, 2, 3], [5, 6], [1], [4],
    ]
    assert stream_batches(cells, [3, 4, 6], splits=4) == [[3], [6], [4]]


def test_no_machine_outlives_run_many():
    specs = policy_specs()
    gc.collect()
    before = count_machines()
    gc.disable()
    try:
        ExperimentRunner().run_many(specs)
        assert count_machines() == before
    finally:
        gc.enable()


def count_machines():
    return sum(isinstance(obj, SpurMachine) for obj in gc.get_objects())
