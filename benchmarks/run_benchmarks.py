#!/usr/bin/env python
"""Standalone hot-loop throughput benchmark (no pytest needed).

Replays the three trace shapes from :mod:`bench_throughput` —
hit-dominated, miss-heavy, and write-slow-path — through both hot
loops and reports simulated references per second of host time:

* ``legacy``  — the per-tuple stream via the frozen scalar oracle
  :func:`tests.oracle.scalar_run` (the pre-batching loop, kept as
  the fixed denominator of every speedup),
* ``chunked`` — pre-built flat buffers via
  :meth:`SpurMachine.run_chunks`,
* ``observed`` — the chunked path with a live
  :class:`~repro.observe.observer.RunObserver` attached (epoch
  sampling on), including attach/detach in the timed region.

The ``chunked`` number doubles as the observation *disabled-path*
measurement: with no observer attached the hot loop carries zero
observation code, so any disabled-path overhead would show up as a
plain chunked regression against the committed baseline.

Payloads are materialised before the timer starts, so the numbers
measure simulation only.  Results land in ``BENCH_throughput.json``
at the repo root by default::

    python benchmarks/run_benchmarks.py
    python benchmarks/run_benchmarks.py --count 5000 \\
        --check BENCH_throughput.json --max-regression 0.3 \\
        --max-observe-overhead 0.25

``--check`` compares the fresh *speedups* (chunked over legacy, a
host-speed-independent ratio) against a committed baseline file.
Each trace shape is gated individually: the baseline's ``gates``
section records an absolute ``min_speedup`` floor per shape, so the
near-1.0 misses and writes ratios are held to "chunked must not fall
behind legacy beyond noise" rather than the fractional tolerance
that only ever bound the hit path.  Shapes without a recorded gate
fall back to ``baseline speedup * (1 - --max-regression)``.
``--max-observe-overhead`` gates the fractional throughput cost of
*enabled* observation (observed vs chunked, same host, same run).
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
for entry in (str(ROOT), str(ROOT / "src"), str(ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench_throughput import TRACES, tiny_machine  # noqa: E402
from repro.observe.observer import RunObserver  # noqa: E402
from repro.workloads.base import chunk_accesses  # noqa: E402
from tests.oracle import scalar_run  # noqa: E402

#: Per-shape speedup floors written into fresh baselines.  The hits
#: gate protects the chunk protocol's win over the tuple stream
#: (measured 2.1-2.4x); the misses and writes gates protect the
#: inline miss path and the write-hit resolver (measured 5.0-5.3x
#: and 5.1-7.1x).
DEFAULT_GATES = {
    "hits": {"min_speedup": 1.6},
    "misses": {"min_speedup": 2.5},
    "writes": {"min_speedup": 2.5},
}


def throughput_samples(fn, payload, refs, repeat):
    """``repeat`` refs-per-second samples of ``fn(payload)``."""
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn(payload)
        samples.append(refs / (time.perf_counter() - started))
    return samples


def observe_overhead(chunked_samples, observed_samples):
    """Fractional cost of enabled observation, noise-robust.

    Medians over the repeats of both variants, clamped at zero: a
    single lucky observed run used to record *negative* overhead,
    leaving room for a real observability regression to hide inside
    the noise band.  The median discards the outlier runs and the
    clamp keeps the committed baseline meaningful as a floor.
    """
    chunked = statistics.median(chunked_samples)
    observed = statistics.median(observed_samples)
    return round(max(0.0, 1.0 - observed / chunked), 3)


def observed_run_chunks(machine, chunks, epoch_refs):
    """One chunked run under a fresh observer (attach in the timing)."""
    observer = RunObserver(epoch_refs=epoch_refs).attach(machine)
    try:
        machine.run_chunks(chunks)
    finally:
        observer.detach()


def load_gates(path):
    """The ``gates`` of *path* over the defaults.

    Tuned thresholds in the committed baseline win; shapes the
    baseline predates (a freshly added trace) pick up their
    ``DEFAULT_GATES`` entry instead of silently going ungated.
    """
    gates = dict(DEFAULT_GATES)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            recorded = json.load(handle).get("gates")
    except (OSError, ValueError):
        recorded = None
    if recorded:
        gates.update(recorded)
    return gates


def run_benchmarks(count, repeat, chunk_refs, epoch_refs):
    traces = {}
    for shape, builder in TRACES:
        machine, heap = tiny_machine()
        trace = builder(heap.start, count)
        chunks = list(chunk_accesses(iter(trace), chunk_refs))
        scalar_run(machine, trace)  # warm the machine once
        legacy_samples = throughput_samples(
            lambda payload: scalar_run(machine, payload),
            trace, len(trace), repeat,
        )
        chunked_samples = throughput_samples(
            machine.run_chunks, chunks, len(trace), repeat
        )
        observed_samples = throughput_samples(
            lambda payload: observed_run_chunks(
                machine, payload, epoch_refs
            ),
            chunks, len(trace), repeat,
        )
        legacy = max(legacy_samples)
        chunked = max(chunked_samples)
        traces[shape] = {
            "legacy_refs_per_s": round(legacy),
            "chunked_refs_per_s": round(chunked),
            "observed_refs_per_s": round(max(observed_samples)),
            "speedup": round(chunked / legacy, 3),
            "observe_overhead": observe_overhead(
                chunked_samples, observed_samples
            ),
        }
    return {
        "bench": "hot-loop throughput",
        "count": count,
        "repeat": repeat,
        "chunk_refs": chunk_refs,
        "epoch_refs": epoch_refs,
        "traces": traces,
    }


def check_observe_overhead(results, max_overhead):
    """Nonzero if enabled observation costs more than *max_overhead*."""
    failures = []
    for shape, fresh in results["traces"].items():
        if fresh.get("observe_overhead", 0.0) > max_overhead:
            failures.append(
                f"{shape}: observe overhead "
                f"{fresh['observe_overhead']:.1%} above "
                f"{max_overhead:.1%}"
            )
    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    return 1 if failures else 0


def check_regression(results, baseline_path, max_regression):
    """Nonzero if any shape's speedup fell below its gate.

    Every trace shape is judged on its own: a recorded
    ``gates[shape]["min_speedup"]`` is an absolute floor; shapes the
    baseline does not gate fall back to the fractional tolerance
    against the baseline speedup.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    gates = baseline.get("gates", {})
    failures = []
    for shape, fresh in results["traces"].items():
        gate = gates.get(shape, {})
        if "min_speedup" in gate:
            floor = gate["min_speedup"]
            origin = f"gates.{shape}.min_speedup"
        else:
            reference = baseline.get("traces", {}).get(shape)
            if reference is None:
                continue
            floor = reference["speedup"] * (1.0 - max_regression)
            origin = (f"baseline {reference['speedup']:.3f} "
                      f"- {max_regression:.0%}")
        if fresh["speedup"] < floor:
            failures.append(
                f"{shape}: speedup {fresh['speedup']:.3f} below "
                f"{floor:.3f} ({origin})"
            )
    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="hot-loop throughput benchmark"
    )
    parser.add_argument(
        "--out", default=str(ROOT / "BENCH_throughput.json"),
        help="where to write the results JSON",
    )
    parser.add_argument("--count", type=int, default=20_000,
                        help="references per trace shape")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions (best is kept)")
    parser.add_argument("--chunk-refs", type=int, default=4096,
                        help="references per flat chunk")
    parser.add_argument("--epoch-refs", type=int, default=4096,
                        help="observation epoch for the observed "
                             "variant")
    parser.add_argument(
        "--max-observe-overhead", type=float, metavar="FRACTION",
        help="fail if enabled observation costs more than this "
             "fraction of chunked throughput (e.g. 0.25)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare speedups against this baseline JSON and exit "
             "nonzero on a regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.3,
        help="tolerated fractional speedup drop for --check "
             "(default 0.3)",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks(args.count, args.repeat,
                             args.chunk_refs, args.epoch_refs)
    # Carry the gate thresholds through a re-measure: they are policy,
    # not measurement, so a fresh run must not clobber tuned values.
    results["gates"] = load_gates(args.check or args.out
                                  or str(ROOT / "BENCH_throughput.json"))
    text = json.dumps(results, indent=2, sort_keys=True)
    print(text)
    # Check before writing anything, and never write over the
    # baseline: a run compared with itself always passes.
    status = 0
    if args.check:
        status |= check_regression(
            results, args.check, args.max_regression
        )
    if args.out and args.check and (
        pathlib.Path(args.out).resolve()
        == pathlib.Path(args.check).resolve()
    ):
        print(f"not writing over the baseline {args.check}",
              file=sys.stderr)
    elif args.out:
        pathlib.Path(args.out).write_text(text + "\n")
        print(f"written to {args.out}", file=sys.stderr)
    if args.max_observe_overhead is not None:
        status |= check_observe_overhead(
            results, args.max_observe_overhead
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
