"""Parallel-vs-serial equivalence and cached-matrix behaviour.

The determinism contract (docs/parallel.md): for any ``workers``
value, the multi-run entry points return bit-identical results —
cycles, event counts, page-ins/outs — because each cell is a pure
function of its inputs and merging happens in seed order.  The matrix
here is Table 4.1-shaped ({SLC, WORKLOAD1} x three memories x three
policies x repetitions) at a tiny length scale.
"""

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.options import RunOptions
from repro.parallel import ResultCache, RunCell, execute_cells
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

TINY_SCALE = 0.004
MAX_REFS = 2500


def table_4_1_points():
    """A Table 4.1-shaped point list at test scale."""
    points = []
    for name, cls in (("SLC", SlcWorkload), ("WORKLOAD1", Workload1)):
        for ratio in (40, 48, 64):
            for policy in REFERENCE_POLICY_NAMES:
                config = scaled_config(
                    memory_ratio=ratio, reference_policy=policy,
                )
                points.append((
                    (name, ratio, policy), config,
                    cls(length_scale=TINY_SCALE),
                ))
    return points


def assert_matrices_identical(serial, parallel):
    assert set(serial) == set(parallel)
    for label, runs in serial.items():
        other = parallel[label]
        assert len(runs) == len(other)
        for a, b in zip(runs, other):
            assert a.seed == b.seed
            assert a.cycles == b.cycles
            assert a.events == b.events
            assert a.page_ins == b.page_ins
            assert a.page_outs == b.page_outs
            assert a.zero_fills == b.zero_fills
            # And the dataclass as a whole (host_seconds excluded
            # from equality by design).
            assert a == b


class TestParallelEquivalence:
    def test_workers_4_matches_workers_1(self):
        points = table_4_1_points()
        serial = ExperimentRunner().run_matrix(
            points, repetitions=2, max_references=MAX_REFS,
        )
        parallel = ExperimentRunner().run_matrix(
            points, repetitions=2, max_references=MAX_REFS,
            options=RunOptions(workers=4),
        )
        assert_matrices_identical(serial, parallel)

    def test_run_repetitions_parallel_matches_serial(self):
        runner = ExperimentRunner()
        serial = runner.run_repetitions(
            scaled_config(memory_ratio=40),
            SlcWorkload(length_scale=TINY_SCALE),
            repetitions=3, max_references=MAX_REFS,
        )
        parallel = runner.run_repetitions(
            scaled_config(memory_ratio=40),
            SlcWorkload(length_scale=TINY_SCALE),
            repetitions=3, max_references=MAX_REFS,
            options=RunOptions(workers=3),
        )
        assert serial == parallel
        assert [r.seed for r in parallel] == [0, 1, 2]

    def test_execute_cells_preserves_submission_order(self):
        cells = [
            RunCell(scaled_config(memory_ratio=40),
                    SlcWorkload(length_scale=TINY_SCALE),
                    seed=seed, max_references=MAX_REFS)
            for seed in (5, 1, 3)
        ]
        results = execute_cells(cells, workers=3)
        assert [r.seed for r in results] == [5, 1, 3]


class TestCachedMatrix:
    def test_warm_cache_simulates_zero_cells(self, tmp_path):
        points = table_4_1_points()
        runner = ExperimentRunner(options=RunOptions(
            workers=2, cache_dir=str(tmp_path),
        ))
        cache = runner.cache
        first = runner.run_matrix(
            points, repetitions=2, max_references=MAX_REFS,
        )
        cells = 2 * len(points)
        assert cache.stores == cells
        assert cache.hits == 0
        second = runner.run_matrix(
            points, repetitions=2, max_references=MAX_REFS,
        )
        # Every cell hit: nothing was re-simulated, nothing re-stored.
        assert cache.hits == cells
        assert cache.stores == cells
        assert_matrices_identical(first, second)

    def test_cached_results_match_uncached(self, tmp_path):
        points = table_4_1_points()[:3]
        uncached = ExperimentRunner().run_matrix(
            points, repetitions=1, max_references=MAX_REFS,
        )
        runner = ExperimentRunner(
            options=RunOptions(cache_dir=str(tmp_path))
        )
        cache = runner.cache
        runner.run_matrix(points, repetitions=1,
                          max_references=MAX_REFS)
        reloaded = runner.run_matrix(points, repetitions=1,
                                     max_references=MAX_REFS)
        assert cache.hits == len(points)
        assert_matrices_identical(uncached, reloaded)

    def test_config_change_invalidates_only_changed_cells(
            self, tmp_path):
        runner = ExperimentRunner(
            options=RunOptions(cache_dir=str(tmp_path))
        )
        cache = runner.cache
        workload = SlcWorkload(length_scale=TINY_SCALE)
        base = [("a", scaled_config(memory_ratio=40), workload),
                ("b", scaled_config(memory_ratio=48), workload)]
        runner.run_matrix(base, repetitions=1,
                          max_references=MAX_REFS)
        assert cache.stores == 2
        # Change one point's config: that cell misses, the other hits.
        changed = [("a", scaled_config(memory_ratio=40,
                                       reference_policy="NOREF"),
                    workload),
                   ("b", scaled_config(memory_ratio=48), workload)]
        runner.run_matrix(changed, repetitions=1,
                          max_references=MAX_REFS)
        assert cache.hits == 1
        assert cache.stores == 3

    def test_uncacheable_workload_still_runs(self, tmp_path):
        """Cells whose inputs cannot be hashed simulate every time."""
        class Opaque:
            pass

        workload = SlcWorkload(length_scale=TINY_SCALE)
        workload.helper = Opaque()
        cache = ResultCache(tmp_path)
        cells = [RunCell(scaled_config(memory_ratio=40), workload,
                         seed=0, max_references=MAX_REFS)]
        results = execute_cells(cells, cache=cache)
        assert results[0].references > 0
        assert cache.stores == 0


class TestSweepDriverParallel:
    def test_sweep_workers_match_serial(self, tmp_path):
        from repro.analysis.sweeps import SweepDriver

        def build(runner):
            return SweepDriver(
                scaled_config(memory_ratio=40), "memory_bytes",
                [640 * 1024, 768 * 1024],
                lambda: SlcWorkload(length_scale=TINY_SCALE),
                runner=runner,
            )

        serial = build(ExperimentRunner()).run()
        pool = RunOptions(workers=2)
        parallel = build(ExperimentRunner()).run(options=pool)
        assert serial == parallel
        cached_runner = ExperimentRunner(
            options=RunOptions(cache_dir=str(tmp_path))
        )
        cache = cached_runner.cache
        cached_driver = build(cached_runner)
        cached_driver.run(options=pool)
        again = cached_driver.run(options=pool)
        assert cache.hits == 2
        assert again == serial
