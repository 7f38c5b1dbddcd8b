"""Pooled cells are bit-identical to in-process cells.

A cell has two execution routes: in-process (``workers=1``) and the
process pool.  For any cell set the pool must return the same
counters, cycles, page traffic, and cached-result keys as the
in-process route — across the full dirty x reference policy grid,
several cell counts, poll schedules, trimmed streams, telemetry, and
a cell whose stream tears mid-run.
"""

import dataclasses

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.observe.sinks import MemorySink
from repro.options import RunOptions
from repro.parallel.cache import ResultCache
from repro.parallel.executor import (
    CampaignError,
    RunCell,
    execute_cells,
)
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

TINY = 0.01
MAX_REFS = 4000
POOL = RunOptions(workers=2)


def tiny_config(**overrides):
    return scaled_config(memory_ratio=40, **overrides)


def policy_grid_specs(max_refs=MAX_REFS, poll=777):
    """5 dirty x 3 reference policies, staggered stream trims."""
    specs = []
    for i, dirty in enumerate(DIRTY_POLICY_NAMES):
        for j, ref in enumerate(REFERENCE_POLICY_NAMES):
            config = tiny_config(
                dirty_policy=dirty, reference_policy=ref,
                daemon_poll_refs=poll,
                name=f"{dirty}-{ref}",
            )
            specs.append((
                config, Workload1(length_scale=TINY), 11,
                max_refs + 13 * (3 * i + j),
            ))
    return specs


def assert_results_identical(serial, pooled):
    assert len(serial) == len(pooled)
    for a, b in zip(serial, pooled):
        assert a.references == b.references
        assert a.cycles == b.cycles
        assert a.events == b.events
        assert a.page_ins == b.page_ins
        assert a.page_outs == b.page_outs
        # The dataclass as a whole (host_seconds, scalar_bailouts,
        # and observation are excluded from equality by design).
        assert a == b


class TestPoolBitEquivalence:
    def test_policy_grid_with_poll_schedule(self):
        specs = policy_grid_specs()
        runner = ExperimentRunner()
        serial = runner.run_many(specs, options=RunOptions())
        pooled = runner.run_many(specs, options=POOL)
        assert_results_identical(serial, pooled)

    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_cell_counts(self, count):
        refs = 1500 if count > 3 else MAX_REFS
        specs = [
            (tiny_config(), Workload1(length_scale=TINY), seed, refs)
            for seed in range(count)
        ]
        runner = ExperimentRunner()
        serial = runner.run_many(specs, options=RunOptions())
        pooled = runner.run_many(specs, options=POOL)
        assert_results_identical(serial, pooled)

    def test_mixed_workloads_and_geometries(self):
        """SLC + WORKLOAD1 at two geometries in one pool."""
        specs = []
        for scale in (8, 16):
            for workload in (SlcWorkload(length_scale=TINY),
                             Workload1(length_scale=TINY)):
                specs.append((
                    scaled_config(memory_ratio=40, scale=scale),
                    workload, 3, MAX_REFS,
                ))
        runner = ExperimentRunner()
        serial = runner.run_many(specs, options=RunOptions())
        pooled = runner.run_many(specs, options=POOL)
        assert_results_identical(serial, pooled)

    def test_poll_disabled(self):
        specs = [
            (tiny_config(daemon_poll_refs=0),
             Workload1(length_scale=TINY), seed, MAX_REFS)
            for seed in range(3)
        ]
        runner = ExperimentRunner()
        serial = runner.run_many(specs, options=RunOptions())
        pooled = runner.run_many(specs, options=POOL)
        assert_results_identical(serial, pooled)


def make_cells(count=4, **overrides):
    return [
        RunCell(config=tiny_config(daemon_poll_refs=777),
                workload=Workload1(length_scale=TINY),
                seed=seed, max_references=2000,
                label=f"cell{seed}", **overrides)
        for seed in range(count)
    ]


class TestPoolCampaign:
    def test_campaign_started_event_names_the_route(self):
        sink = MemorySink()
        execute_cells(make_cells(2), workers=2, sink=sink)
        started = sink.of_type("campaign_started")
        assert len(started) == 1
        assert started[0]["workers"] == 2
        assert "fleet" not in started[0]
        pools = sink.of_type("worker_pool_started")
        assert [event["workers"] for event in pools] == [2]

    def test_mid_stream_failure_degrades_gracefully(self):
        cells = make_cells(3)
        cells.insert(1, dataclasses.replace(
            cells[0],
            workload=_ExplodingWorkload(),
            label="doomed",
        ))
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells, workers=2)
        error = excinfo.value
        assert len(error.failures) == 1
        assert error.failures[0].label == "doomed"
        assert error.results[1] is None
        good = [r for i, r in enumerate(error.results) if i != 1]
        assert all(r is not None for r in good)
        # The surviving cells match a clean serial campaign.
        clean = execute_cells(make_cells(3))
        assert good == clean

    def test_result_cache_round_trip(self, tmp_path):
        cells = make_cells()
        cache = ResultCache(tmp_path)
        sink = MemorySink()
        first = execute_cells(cells, cache=cache, workers=2)
        second = execute_cells(cells, cache=cache, sink=sink)
        assert first == second
        assert len(sink.of_type("cell_cached")) == len(cells)
        # Entries written by the pool satisfy an in-process campaign
        # byte-for-byte, and a cleared cache recomputes them equally.
        cache.clear()
        assert execute_cells(cells, cache=cache) == first


class _ExplodingWorkload:
    """Workload whose stream raises after its first chunk."""

    def instantiate(self, page_bytes, seed=0):
        good = Workload1(length_scale=TINY).instantiate(
            page_bytes, seed=seed
        )
        return _ExplodingInstance(good)


class _ExplodingInstance:
    def __init__(self, inner):
        self.inner = inner
        self.space_map = inner.space_map
        self.name = "exploding"

    def access_chunks(self, chunk_refs=256):
        # Small chunks: several fit under the cell's reference cap, so
        # the stream tears mid-run.
        for i, chunk in enumerate(
            self.inner.access_chunks(chunk_refs)
        ):
            if i == 1:
                raise RuntimeError("stream torn mid-run")
            yield chunk


class TestPoolTelemetry:
    def test_observer_parity(self):
        specs = policy_grid_specs(max_refs=2500)[:3]
        runner = ExperimentRunner()
        serial = runner.run_many(specs, options=RunOptions())
        pooled = runner.run_many(
            specs,
            options=POOL.replace(observe=True, epoch_refs=800),
        )
        assert_results_identical(serial, pooled)
        for result in pooled:
            observation = result.observation
            assert observation is not None
            assert len(observation.samples) >= 2
            final = observation.samples[-1]
            assert final.references == result.references
            assert final.cycles == result.cycles

    @pytest.mark.parametrize("mode", ["full", "sampled"])
    def test_sanitized_pool_matches_serial(self, mode):
        specs = policy_grid_specs(max_refs=1500)[:3]
        runner = ExperimentRunner()
        serial = runner.run_many(specs, options=RunOptions())
        pooled = runner.run_many(
            specs, options=POOL.replace(sanitize=mode),
        )
        assert_results_identical(serial, pooled)
