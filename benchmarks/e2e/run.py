"""End-to-end benchmark of the SPUR simulator: wall clock, throughput,
set-up time and memory on four fixed workloads, with a traced run that
splits the time by layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py --out base.json      # one full set
    python3 benchmarks/e2e/run.py --workload table41 --seed 3 \\
        --repeats 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --compare base.json new.json
    python3 benchmarks/e2e/run.py --write-golden --seed 0

Each (workload, repeat) runs in a fresh interpreter (``--child``).
Repeats are interleaved across workloads; a round is started only
while at least ``--repeats`` rounds are still owed or the round is
expected to end within ``--seconds``.  With ``--trace 1`` one traced
run per workload follows the untraced rounds.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace
0``, the per-layer ones with ``--trace 1``.  Metric names, units,
directions and regression bounds live in ``BENCHMARK.json`` at the
repository root.  See ``README.md`` beside this file.
"""

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import cells
import spans

SPEC_PATH = cells.ROOT / "BENCHMARK.json"

#: Set-up time is sampled at least this many times per workload;
#: set-up-only children make up what the timed repeats do not give.
SETUP_SAMPLES = 5
#: A child that runs longer than this is killed with its pool.
CHILD_TIMEOUT_S = 150
#: ``failed_frac`` may not rise at all.
FAILED_BOUND = 0.0

#: Span names whose self time makes up ``slowpath_s``, the
#: structural slow path.
SLOW_PATH_SPANS = (
    "translation.translate", "cache.fill", "vm.page_fault",
    "vm.daemon_poll", "policies.reference", "policies.dirty",
    "machine.flush_page",
)
#: Spans reported as ``<name>_calls`` and ``<name>_s`` (self time).
COUNTED_SPANS = SLOW_PATH_SPANS + ("cache.fill_fast",)


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    return json.loads(SPEC_PATH.read_text())


# -- children ------------------------------------------------------------

def spawn(workload, seed, mode="run"):
    """Run one child; return its record with ``setup_s`` filled in.

    ``mode`` is ``run``, ``trace`` or ``setup``.  The child runs in
    its own session so that a timeout kills its pool workers too.
    """
    command = [sys.executable, str(cells.HERE / "run.py"),
               "--child", workload, "--seed", str(seed)]
    if mode == "trace":
        command += ["--trace", "1"]
    elif mode == "setup":
        command.append("--setup-only")
    spawned_at = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=cells.ROOT, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as error:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchmarkError(
                f"{workload} child ({mode}) timed out") from error
        raise
    if child.returncode != 0 or not out.strip():
        raise BenchmarkError(
            f"{workload} child ({mode}) exited with {child.returncode}"
        )
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["call_at"] - spawned_at
    return record


def child_main(args):
    """Run one workload in this process and print its record."""
    cells.use_checkout_source()
    record = cells.run_workload(args.child, args.seed,
                                traced=bool(args.trace),
                                setup_only=args.setup_only)
    print(json.dumps(record))
    return 0


# -- statistics ----------------------------------------------------------

def quartiles(values):
    """(first quartile, third quartile) as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def verdict(base, new, bound, better):
    """``ok``, ``regression`` or ``unresolved`` for one metric.

    A regression is a new median worse than the base median by more
    than ``bound`` (a share of the base median).  When either side's
    spread is wider than the bound the result is ``unresolved``,
    unless every new sample is better than every base sample.
    """
    if better == "lower":
        sign, all_better = 1, max(new) < min(base)
    else:
        sign, all_better = -1, min(new) > max(base)
    if all_better:
        return "ok"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    base_median = statistics.median(base)
    worse = sign * (statistics.median(new) - base_median)
    if base_median:
        worse /= abs(base_median)
    return "regression" if worse > bound else "ok"


# -- checking outputs ----------------------------------------------------

def count_failures(records, reference):
    """(cells attempted, cells failed) over *records*.

    A cell fails when it breaks an identity of :func:`cells.
    cell_problems` or differs from *reference* (``{label: cell
    record}``), and a reference cell missing from a record fails too.
    """
    attempted = failed = 0
    for record in records:
        labels = set(reference) | set(record["cells"])
        for label in sorted(labels):
            attempted += 1
            cell = record["cells"].get(label)
            if (cell is None or cell != reference.get(label)
                    or record["problems"][label]):
                failed += 1
                print(f"FAILED {record['workload']} {label}: "
                      f"{record['problems'].get(label) or 'differs'}",
                      file=sys.stderr)
    return attempted, failed


# -- metrics -------------------------------------------------------------

def end_to_end_samples(records, setups):
    return {
        "wall_s": [r["wall_s"] for r in records],
        "refs_per_s": [r["references"] / r["wall_s"] for r in records],
        "setup_s": setups,
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in records],
    }


def per_layer(traced, records):
    """Per-layer metrics of one workload from its traced run, and the
    ``parallel.*`` ones from its untraced runs."""
    totals = spans.totals(traced["spans"])
    empty = (0, 0.0, 0.0)
    metrics = {}
    for name in COUNTED_SPANS:
        count, _, own = totals.get(name, empty)
        metrics[f"{name}_calls"] = count
        metrics[f"{name}_s"] = own
    chunks, _, generate = totals.get(spans.GENERATE_SPAN, empty)
    _, run_chunks, machine_self = totals.get("machine.run_chunks", empty)
    misses = traced["misses"]
    translations = metrics["translation.translate_calls"]
    wall = statistics.median(r["wall_s"] for r in records)
    cell_sums = [sum(r["host_seconds"]) for r in records]
    metrics.update({
        "workloads.generate_s": generate,
        "workloads.chunks": chunks,
        "machine.run_chunks_s": run_chunks,
        "machine.self_s": machine_self,
        "machine.misses": misses,
        "machine.fast_miss_frac": (
            1 - translations / misses if misses else 0.0),
        "machine.scalar_bailouts": traced["scalar_bailouts"],
        "vm.page_ins": sum(c["page_ins"]
                           for c in traced["cells"].values()),
        "vm.page_outs": sum(c["page_outs"]
                            for c in traced["cells"].values()),
        "parallel.cell_s_sum": statistics.median(cell_sums),
        "parallel.cell_s_max": statistics.median(
            max(r["host_seconds"]) for r in records),
        "parallel.efficiency": statistics.median(
            s / (r["workers"] * r["wall_s"])
            for s, r in zip(cell_sums, records)),
        "slowpath_s": sum(metrics[f"{name}_s"]
                          for name in SLOW_PATH_SPANS),
        "trace.overhead_frac": traced["wall_s"] / wall - 1,
    })
    return metrics


def span_closure(traced):
    """Self times of every span under ``machine.run_chunks``, plus its
    own, as a share of its total; 1.0 when every span nests in it."""
    totals = spans.totals(traced["spans"])
    run_chunks = totals.get("machine.run_chunks")
    if not run_chunks or not run_chunks[1]:
        return None
    return sum(own for _, _, own in totals.values()) / run_chunks[1]


# -- the benchmark -------------------------------------------------------

def run_rounds(workloads, seed, repeats, seconds):
    """Untraced repeats, interleaved across *workloads*."""
    records = {w: [] for w in workloads}
    started = time.monotonic()
    rounds = 0
    while True:
        for workload in workloads:
            records[workload].append(spawn(workload, seed))
        rounds += 1
        elapsed = time.monotonic() - started
        if rounds >= repeats and elapsed * (rounds + 1) / rounds > seconds:
            return records


def metadata(args):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cells.ROOT, text=True,
            capture_output=True, timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": cells.nproc(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "commit": commit,
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "length_scale": cells.LENGTH_SCALE,
        "pool_workers": cells.pool_workers(),
    }


def run_benchmark(args):
    spec = load_spec()
    workloads = args.workload or list(cells.WORKLOADS)
    records = run_rounds(workloads, args.seed, args.repeats,
                         args.seconds)
    setups = {}
    for workload in workloads:
        setups[workload] = [r["setup_s"] for r in records[workload]]
        while len(setups[workload]) < SETUP_SAMPLES:
            setups[workload].append(
                spawn(workload, args.seed, "setup")["setup_s"])
    traced = {}
    if args.trace:
        traced = {w: spawn(w, args.seed, "trace") for w in workloads}

    golden = cells.load_golden(args.seed)
    results = {}
    for workload in workloads:
        grid = cells.WORKLOADS[workload][0]
        if golden is not None:
            reference = golden[grid]
        else:
            # No golden for this seed: every run of the grid, the pool
            # one included, must agree with the first serial run.
            first = next(w for w in workloads
                         if cells.WORKLOADS[w][0] == grid)
            reference = records[first][0]["cells"]
        checked = records[workload] + (
            [traced[workload]] if workload in traced else [])
        attempted, failed = count_failures(checked, reference)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "samples": end_to_end_samples(records[workload],
                                          setups[workload]),
        }
        entry["samples"]["failed_frac"] = [failed / attempted]
        if workload in traced:
            entry["per_layer"] = per_layer(traced[workload],
                                           records[workload])
            entry["span_closure"] = span_closure(traced[workload])
            entry["spans"] = traced[workload]["spans"]
        results[workload] = entry

    report(spec, results)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"meta": metadata(args), "workloads": results},
                      handle, indent=1)
            handle.write("\n")
    print(json.dumps(summary(spec, results, bool(args.trace))))
    return 0


def summary(spec, results, trace):
    """The final JSON line.  A lone workload's metrics are keyed by
    metric name; several workloads' by ``workload/metric``."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for workload, entry in results.items():
        prefix = "" if len(results) == 1 else f"{workload}/"
        for metric in listed:
            name = metric["name"]
            if trace:
                value = entry["per_layer"][name]
            else:
                value = statistics.median(entry["samples"][name])
            metrics[prefix + name] = {"value": value,
                                      "unit": metric["unit"]}
    attempted = sum(e["attempted"] for e in results.values())
    failed = sum(e["failed"] for e in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(spec, results):
    """Human-readable tables: medians with quartiles, then the split."""
    for workload, entry in results.items():
        samples = entry["samples"]
        print(f"\n{workload}: {len(samples['wall_s'])} timed run(s), "
              f"{entry['failed']} of {entry['attempted']} cells failed")
        for metric in spec["end_to_end"]:
            values = samples[metric["name"]]
            q1, q3 = quartiles(values)
            print(f"  {metric['name']:<14} {statistics.median(values):>12.4f}"
                  f" {metric['unit']:<6} q1 {q1:.4f}  q3 {q3:.4f}"
                  f"  n={len(values)}")
        if "per_layer" not in entry:
            continue
        for metric in spec["per_layer"]:
            value = entry["per_layer"][metric["name"]]
            print(f"  {metric['name']:<30} {value:>14.4f} {metric['unit']}")
        if entry["span_closure"] is not None:
            print(f"  spans under machine.run_chunks cover "
                  f"{100 * entry['span_closure']:.2f}% of it")


# -- compare -------------------------------------------------------------

def compare(base_path, new_path):
    spec = load_spec()
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    for key in ("numpy", "nproc"):
        if base["meta"][key] != new["meta"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({base['meta'][key]} vs {new['meta'][key]})",
                  file=sys.stderr)
            return 2
    metrics = [(m["name"], m["bound"], m["better"])
               for m in spec["end_to_end"]]
    metrics.append(("failed_frac", FAILED_BOUND, "lower"))
    regressions = 0
    print(f"{'workload':<13} {'metric':<12} {'base median [q1, q3]':>30}"
          f" {'new median [q1, q3]':>30}  verdict")
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        for name, bound, better in metrics:
            old = base["workloads"][workload]["samples"][name]
            now = new["workloads"][workload]["samples"][name]
            result = verdict(old, now, bound, better)
            regressions += result == "regression"
            print(f"{workload:<13} {name:<12} {_describe(old):>30}"
                  f" {_describe(now):>30}  {result}")
    return 1 if regressions else 0


def _describe(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


# -- goldens -------------------------------------------------------------

def write_golden(seed):
    """Run every grid at *seed* and write its golden file."""
    cells.use_checkout_source()
    grids = {}
    for grid in cells.GRIDS:
        # Each grid's serial workload carries the grid's name.
        record = cells.run_workload(grid, seed)
        broken = {label: problems
                  for label, problems in record["problems"].items()
                  if problems}
        if broken:
            raise BenchmarkError(f"{grid} breaks identities: {broken}")
        grids[grid] = record["cells"]
    print(cells.write_golden(seed, grids))
    return 0


# -- command line ----------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(cells.WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0,
                        help="keep starting rounds while they are "
                             "expected to end within this many seconds")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced rounds to run at least")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", help="write a result file for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--child", choices=sorted(cells.WORKLOADS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (cells.ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {cells.ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.child:
            return child_main(args)
        if args.write_golden:
            return write_golden(args.seed)
        return run_benchmark(args)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
