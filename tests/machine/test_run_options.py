"""RunOptions: validation, coercion, and the options-first API."""

import dataclasses
import inspect

import pytest

import repro.api
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.simulator import SpurMachine
from repro.observe.sinks import MemorySink
from repro.options import RunOptions
from repro.parallel.cache import ResultCache
from repro.workloads.slc import SlcWorkload
from tests.oracle import scalar_run_chunks

CONFIG = scaled_config(memory_ratio=24, scale=8)
MAX_REFS = 1500


def run_with(runner, **kwargs):
    return runner.run(CONFIG, SlcWorkload(length_scale=0.01),
                      seed=1, max_references=MAX_REFS, **kwargs)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"workers": -2},
        {"epoch_refs": -5},
        {"epoch_refs": 0},
        {"sanitize": "bogus"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunOptions(**kwargs)

    def test_accepts_known_sanitize_modes(self):
        for mode in ("full", "sampled", "epoch"):
            assert RunOptions(sanitize=mode).sanitize == mode

    def test_frozen(self):
        options = RunOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.workers = 4

    def test_replace(self):
        options = RunOptions().replace(workers=4, observe=True)
        assert (options.workers, options.observe) == (4, True)
        assert RunOptions().workers == 1

    def test_coerce(self):
        assert RunOptions.coerce(None) == RunOptions()
        options = RunOptions(workers=3)
        assert RunOptions.coerce(options) is options
        with pytest.raises(TypeError):
            RunOptions.coerce({"workers": 3})

    def test_handles_are_not_settings(self):
        # Sinks and progress reporters are stateful handles: two
        # options objects differing only there compare equal.
        assert RunOptions(trace_sink=MemorySink()) == RunOptions()
        assert RunOptions(progress=True) == RunOptions()
        assert RunOptions(workers=2) != RunOptions()

    def test_build_cache(self, tmp_path):
        assert RunOptions().build_cache() is None
        cache = RunOptions(cache_dir=str(tmp_path)).build_cache()
        assert isinstance(cache, ResultCache)


class TestRunnerAcceptsOptions:
    def test_tuple_stream_option_matches_chunks(self, monkeypatch):
        chunked = run_with(ExperimentRunner())
        monkeypatch.setattr(SpurMachine, "run_chunks", scalar_run_chunks)
        assert run_with(ExperimentRunner()) == chunked

    def test_runner_defaults_to_default_options(self):
        assert ExperimentRunner().options == RunOptions()

    def test_cache_dir_names_the_runner_cache(self, tmp_path):
        assert ExperimentRunner().cache is None
        runner = ExperimentRunner(
            options=RunOptions(cache_dir=str(tmp_path / "mine")),
        )
        assert isinstance(runner.cache, ResultCache)
        assert runner.cache.root == tmp_path / "mine"

    def test_per_call_options_override_runner(self):
        runner = ExperimentRunner()
        observed = run_with(
            runner, options=RunOptions(observe=True, epoch_refs=500)
        )
        assert observed.observation is not None
        # The runner's own options are untouched.
        assert run_with(runner).observation is None
        assert observed == run_with(runner)

    def test_per_call_cache_dir_replaces_runner_cache(self, tmp_path):
        runner = ExperimentRunner(
            options=RunOptions(cache_dir=str(tmp_path / "runner")),
        )
        specs = [(CONFIG, SlcWorkload(length_scale=0.01), 1,
                  MAX_REFS)]
        fresh = runner.run_many(specs, options=RunOptions(
            cache_dir=str(tmp_path / "call"),
        ))
        assert runner.cache.misses == 0
        assert len(ResultCache(str(tmp_path / "call"))) == 1
        # Per-call options without a cache_dir keep the runner's.
        cached = runner.run_many(specs, options=RunOptions(workers=1,
                                                           observe=True))
        assert runner.cache.misses == 1
        assert cached == fresh

    def test_per_call_workers_come_from_options(self):
        runner = ExperimentRunner()
        assert runner._call_options(RunOptions(workers=4)).workers == 4
        assert runner._call_options(None) is runner.options


class TestDriversAcceptOptions:
    def test_sweep_driver_threads_options(self):
        from repro.analysis.sweeps import SweepDriver

        base = scaled_config(memory_ratio=24, scale=8)
        driver = SweepDriver(
            base, "memory_bytes",
            (24 * base.cache.size_bytes, 48 * base.cache.size_bytes),
            lambda: SlcWorkload(length_scale=0.005),
            options=RunOptions(observe=True, epoch_refs=500),
        )
        results = driver.run()
        for run in results[""].values():
            assert run.observation is not None
            label = run.observation.label
            assert label.startswith("memory_bytes=")

    def test_run_repetitions_accepts_options(self):
        runner = ExperimentRunner()
        sink = MemorySink()
        results = runner.run_repetitions(
            CONFIG, SlcWorkload(length_scale=0.01), repetitions=2,
            max_references=MAX_REFS,
            options=RunOptions(trace_sink=sink),
        )
        assert len(results) == 2
        labels = [event["label"]
                  for event in sink.of_type("run_finished")]
        assert sorted(labels) == ["rep0", "rep1"]

    def test_table_3_3_threads_options(self):
        from repro.analysis.experiments import run_table_3_3

        sink = MemorySink()
        rows, _ = run_table_3_3(
            length_scale=0.01, max_references=30_000,
            options=RunOptions(trace_sink=sink),
        )
        assert len(rows) == 6
        labels = {event["label"]
                  for event in sink.of_type("run_finished")}
        assert labels == {
            f"{name}/{mb}MB"
            for name in ("SLC", "WORKLOAD1") for mb in (5, 6, 8)
        }

    def test_run_matrix_labels_points(self):
        runner = ExperimentRunner()
        sink = MemorySink()
        results = runner.run_matrix(
            [("a", CONFIG, SlcWorkload(length_scale=0.01)),
             ("b", CONFIG, SlcWorkload(length_scale=0.01))],
            repetitions=2,
            options=RunOptions(trace_sink=sink),
        )
        assert set(results) == {"a", "b"}
        labels = {event["label"]
                  for event in sink.of_type("run_finished")}
        assert labels == {"a/rep0", "a/rep1", "b/rep0", "b/rep1"}


class TestOptionsAreTheOnlyWay:
    """Execution settings travel in ``RunOptions`` and nowhere else."""

    def test_fields_are_the_execution_knobs(self):
        assert [f.name for f in dataclasses.fields(RunOptions)] == [
            "workers", "cache_dir",
            "sanitize", "observe", "epoch_refs", "trace_sink",
            "progress",
        ]

    @pytest.mark.parametrize("entry,keyword", [
        ("ExperimentRunner", "cache"),
        ("ExperimentRunner", "chunk_refs"),
        ("ExperimentRunner", "sanitize"),
        ("ExperimentRunner.run_many", "workers"),
        ("ExperimentRunner.run_repetitions", "workers"),
        ("ExperimentRunner.run_matrix", "workers"),
        ("SweepDriver", "chunk_refs"),
        ("SweepDriver.run", "workers"),
        ("run_table_3_3", "workers"),
        ("run_table_3_3", "chunk_refs"),
        ("run_table_3_5", "workers"),
        ("run_table_3_5", "chunk_refs"),
        ("run_table_4_1", "workers"),
        ("run_table_4_1", "chunk_refs"),
    ])
    def test_entry_point_takes_options_not_keyword(self, entry,
                                                   keyword):
        owner, _, method = entry.partition(".")
        target = getattr(repro.api, owner)
        target = getattr(target, method) if method else target
        parameters = inspect.signature(target).parameters
        assert "options" in parameters
        assert keyword not in parameters
