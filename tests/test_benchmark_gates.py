"""Per-trace regression gates in benchmarks/run_benchmarks.py.

The checker itself is plain arithmetic over two JSON payloads, so it
is tested directly with synthetic results — no timing involved.
"""

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", ROOT / "benchmarks" / "run_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("run_benchmarks", module)
    spec.loader.exec_module(module)
    return module


bench = load_bench_module()


def results_with(speedups):
    return {
        "traces": {
            shape: {"speedup": value}
            for shape, value in speedups.items()
        }
    }


def write_baseline(tmp_path, speedups, gates=None):
    payload = results_with(speedups)
    if gates is not None:
        payload["gates"] = gates
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestPerTraceGates:
    def test_each_shape_is_gated_individually(self, tmp_path,
                                              capsys):
        baseline = write_baseline(
            tmp_path,
            {"hits": 2.2, "misses": 3.5, "writes": 3.7},
            gates=bench.DEFAULT_GATES,
        )
        # A misses-only regression: the old fractional check
        # (3.5 * 0.7 = 2.45 floor) would have let this through.
        fresh = results_with(
            {"hits": 2.1, "misses": 2.45, "writes": 3.4}
        )
        assert bench.check_regression(fresh, baseline, 0.3) == 1
        err = capsys.readouterr().err
        assert "misses" in err and "gates.misses.min_speedup" in err
        assert "writes" not in err and "hits" not in err

    def test_passes_at_or_above_every_gate(self, tmp_path):
        baseline = write_baseline(
            tmp_path,
            {"hits": 2.2, "misses": 3.5, "writes": 3.7},
            gates=bench.DEFAULT_GATES,
        )
        fresh = results_with(
            {"hits": 1.7, "misses": 2.5, "writes": 2.6}
        )
        assert bench.check_regression(fresh, baseline, 0.3) == 0

    def test_ungated_shape_falls_back_to_fraction(self, tmp_path,
                                                  capsys):
        baseline = write_baseline(
            tmp_path, {"hits": 2.0},
            gates={"misses": {"min_speedup": 0.95}},
        )
        fresh = results_with({"hits": 1.3})
        assert bench.check_regression(fresh, baseline, 0.3) == 1
        assert "baseline 2.000" in capsys.readouterr().err
        assert bench.check_regression(
            results_with({"hits": 1.5}), baseline, 0.3
        ) == 0

    def test_committed_baseline_records_the_gates(self):
        payload = json.loads(
            (ROOT / "BENCH_throughput.json").read_text()
        )
        assert payload["gates"] == bench.DEFAULT_GATES
        for shape, gate in payload["gates"].items():
            assert (payload["traces"][shape]["speedup"]
                    >= gate["min_speedup"])


class TestCheckAgainstItsOwnFile:
    def test_check_never_rewrites_its_baseline(self, tmp_path):
        # ``hits`` is recorded far above any real speedup and is not
        # gated, so the fractional fallback must fail the run; a run
        # that wrote its results first would pass against itself.
        baseline = write_baseline(tmp_path, {"hits": 1000.0}, gates={})
        before = pathlib.Path(baseline).read_text()
        status = bench.main([
            "--count", "200", "--repeat", "1", "--chunk-refs", "64",
            "--out", baseline, "--check", baseline,
        ])
        assert status == 1
        assert pathlib.Path(baseline).read_text() == before


class TestLoadGates:
    def test_missing_file_yields_defaults(self, tmp_path):
        gates = bench.load_gates(str(tmp_path / "nope.json"))
        assert gates == bench.DEFAULT_GATES

    def test_recorded_gates_survive_a_remeasure(self, tmp_path):
        path = tmp_path / "baseline.json"
        tuned = {"hits": {"min_speedup": 1.9}}
        path.write_text(json.dumps({"gates": tuned}))
        gates = bench.load_gates(str(path))
        # The tuned threshold wins over the default...
        assert gates["hits"] == tuned["hits"]
        # ...while shapes the baseline predates (a freshly added
        # trace) pick up their DEFAULT_GATES entry instead of
        # silently going ungated.
        for shape, gate in bench.DEFAULT_GATES.items():
            if shape != "hits":
                assert gates[shape] == gate


class TestObserveOverhead:
    def test_median_discards_outlier_runs(self):
        # One slow observed run (the old best-of pairing would have
        # been at the mercy of it) does not move the median.
        chunked = [100.0, 101.0, 99.0]
        observed = [95.0, 94.0, 20.0]
        assert bench.observe_overhead(chunked, observed) == 0.06

    def test_clamped_at_zero(self):
        # Observed faster than chunked is measurement noise, not a
        # negative cost; the recorded overhead floors at 0 so a later
        # real regression cannot hide behind a negative baseline.
        assert bench.observe_overhead([100.0], [103.0]) == 0.0
