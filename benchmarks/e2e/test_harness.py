"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository
root.  Runs of the simulator here use ``length_scale=0.01``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import cells
import run
import spans

cells.use_checkout_source()

from repro.api import ExperimentRunner  # noqa: E402


class FakeClock:
    """A ``perf_counter`` stand-in that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


@pytest.fixture
def short(monkeypatch):
    monkeypatch.setattr(cells, "LENGTH_SCALE", 0.01)


# -- spans ---------------------------------------------------------------

def test_self_time_subtracts_nested_spans(clock):
    tracer = spans.Tracer()

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()

    def root():
        clock.now += 0.5
        traced_middle()
        clock.now += 0.25

    traced_leaf = tracer.span("leaf", leaf)
    traced_middle = tracer.span("middle", middle)
    tracer.label = "cell"
    tracer.span("root", root)()
    assert tracer.rows() == [
        ["cell", "leaf", "middle", 2, 4.0, 4.0],
        ["cell", "middle", "root", 1, 5.0, 1.0],
        ["cell", "root", None, 1, 5.75, 0.75],
    ]


def test_span_closes_when_the_call_raises(clock):
    tracer = spans.Tracer()

    def fails():
        clock.now += 1.0
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.span("fails", fails)()
    assert tracer.rows() == [[None, "fails", None, 1, 1.0, 1.0]]
    assert not tracer._stack


def test_generator_span_times_each_next(clock):
    tracer = spans.Tracer()

    def chunks():
        for _ in range(3):
            clock.now += 2.0
            yield "chunk"
        clock.now += 0.5

    def consume(stream):
        clock.now += 1.0
        return list(stream)

    stream = tracer.generator_span("generate", chunks)()
    assert tracer.span("consume", consume)(stream) == ["chunk"] * 3
    totals = spans.totals(tracer.rows())
    # Three chunks produced; the exhausting next() is timed, not counted.
    assert totals["generate"] == [3, 6.5, 6.5]
    assert totals["consume"] == [1, 7.5, 1.0]


# -- traced runs ---------------------------------------------------------

def _layer_methods():
    methods = {}
    for module, class_name, attr, _ in spans.LAYER_SPANS:
        for cls in spans._subtree(spans._class(module, class_name)):
            if attr in vars(cls):
                methods[cls, attr] = vars(cls)[attr]
    for module, class_name, attr in (
            ("repro.workloads", "WorkloadInstance", "access_chunks"),
            ("repro.api", "ExperimentRunner", "run")):
        cls = spans._class(module, class_name)
        methods[cls, attr] = vars(cls)[attr]
    return methods


def test_traced_run_restores_methods_and_matches_untraced(short):
    specs = [(config, recipe, seed, None)
             for _, config, recipe, seed in cells.grid_cells(
                 "dirty-write", 0)]
    originals = _layer_methods()
    plain = ExperimentRunner().run_many(specs)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = ExperimentRunner().run_many(specs)
    finally:
        tracer.restore()
    assert _layer_methods() == originals
    assert traced == plain
    names = {row[1] for row in tracer.rows()}
    assert {"machine.run_chunks", "translation.translate",
            "policies.dirty", spans.GENERATE_SPAN} <= names


def test_traced_record_gives_every_listed_metric(short):
    untraced = cells.run_workload("table41", 0)
    traced = cells.run_workload("table41", 0, traced=True)
    assert traced["cells"] == untraced["cells"]
    assert not any(traced["problems"].values())
    metrics = run.per_layer(traced, [untraced])
    listed = {m["name"] for m in run.load_spec()["per_layer"]}
    assert listed <= set(metrics)
    # Every span runs inside run_chunks, so the self times add up to it.
    assert run.span_closure(traced) == pytest.approx(1.0, rel=1e-9)
    assert metrics["translation.translate_calls"] <= metrics[
        "machine.misses"]


@pytest.mark.skipif(cells.pool_workers() < 2, reason="needs two CPUs")
def test_pool_trace_collects_worker_spans(short):
    serial = cells.run_workload("table41", 0, traced=True)
    pooled = cells.run_workload("table41-pool", 0, traced=True)
    assert pooled["cells"] == serial["cells"]
    counts = {name: entry[0]
              for name, entry in spans.totals(serial["spans"]).items()}
    assert counts == {name: entry[0] for name, entry
                      in spans.totals(pooled["spans"]).items()}
    assert not list(cells.HERE.glob("spool-*"))


# -- correctness checks --------------------------------------------------

def _record(cells_by_label, problems=None):
    return {
        "workload": "w",
        "cells": cells_by_label,
        "problems": problems or {label: [] for label in cells_by_label},
    }


def test_golden_mismatch_counts_as_failed():
    golden = {"a": {"cycles": 10}, "b": {"cycles": 20}}
    assert run.count_failures([_record(dict(golden))], golden) == (2, 0)
    assert run.count_failures(
        [_record({"a": {"cycles": 10}, "b": {"cycles": 21}})], golden
    ) == (2, 1)
    assert run.count_failures(
        [_record({"a": {"cycles": 10}})], golden) == (2, 1)
    assert run.count_failures(
        [_record(dict(golden), {"a": ["broken"], "b": []})], golden
    ) == (2, 1)


def test_golden_file_round_trips(tmp_path, monkeypatch):
    monkeypatch.setattr(cells, "GOLDEN_DIR", tmp_path)
    grids = {grid: {"X/1": {"cycles": 1, "events_sha256": "ab"},
                    "X/2": {"cycles": 2, "events_sha256": "cd"}}
             for grid in cells.GRIDS}
    cells.write_golden(7, grids)
    assert cells.load_golden(7) == grids
    assert cells.load_golden(8) is None


def test_cell_problems_flag_broken_identities(short):
    from repro.api import Event

    _, config, recipe, seed = cells.grid_cells("resident", 0)[0]
    result = ExperimentRunner().run(config, recipe, seed=seed)
    assert cells.cell_problems(result) == []
    result.events[Event.TRANSLATION] += 1
    result.page_ins += 1
    assert len(cells.cell_problems(result)) == 2


# -- compare -------------------------------------------------------------

BASE = [10.0, 10.1, 9.9, 10.05, 9.95]


def test_verdict_ok_within_bound():
    assert run.verdict(BASE, [10.2, 10.3, 10.1], 0.05, "lower") == "ok"
    assert run.verdict([0.0], [0.0], 0.0, "lower") == "ok"


def test_verdict_regression_beyond_bound():
    assert run.verdict(BASE, [11.0, 11.1, 10.9], 0.05,
                       "lower") == "regression"
    assert run.verdict([100.0, 101.0, 99.0], [90.0, 91.0, 89.0], 0.05,
                       "higher") == "regression"
    assert run.verdict([0.0], [0.25], 0.0, "lower") == "regression"


def test_verdict_unresolved_when_spread_exceeds_bound():
    assert run.verdict(BASE, [8.0, 12.0, 10.0, 13.0], 0.05,
                       "lower") == "unresolved"
    # ...unless every new run beats every base run.
    assert run.verdict(BASE, [5.0, 7.0, 9.0], 0.05, "lower") == "ok"


def _result_file(path, wall, numpy=True, nproc=2):
    samples = {"wall_s": wall, "refs_per_s": [1e6 / w for w in wall],
               "setup_s": [0.2] * 5, "peak_rss_mb": [50.0],
               "failed_frac": [0.0]}
    path.write_text(json.dumps({
        "meta": {"numpy": numpy, "nproc": nproc},
        "workloads": {"resident": {"samples": samples}},
    }))
    return str(path)


def test_compare_exit_status(tmp_path, capsys):
    base = _result_file(tmp_path / "base.json", [10.0, 10.1, 9.9])
    same = _result_file(tmp_path / "same.json", [10.05, 9.95, 10.0])
    slow = _result_file(tmp_path / "slow.json", [14.0, 14.1, 13.9])
    assert run.compare(base, same) == 0
    assert run.compare(base, slow) == 1
    assert "regression" in capsys.readouterr().out


def test_compare_refuses_different_hosts(tmp_path):
    base = _result_file(tmp_path / "base.json", [10.0])
    for name, kwargs in (("numpy", {"numpy": False}),
                         ("nproc", {"nproc": 4})):
        other = _result_file(tmp_path / f"{name}.json", [10.0], **kwargs)
        assert run.compare(base, other) == 2


# -- command line --------------------------------------------------------

def test_fails_without_simulator_sources(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in ("run.py", "cells.py", "spans.py"):
        shutil.copy(cells.HERE / name, bench / name)
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "resident", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
