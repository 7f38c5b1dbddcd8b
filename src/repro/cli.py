"""Command-line interface: regenerate tables and run experiments.

::

    python -m repro table 3.3            # regenerate one paper table
    python -m repro table 3.4 --source paper
    python -m repro table 4.1 --reps 3 --length 0.5
    python -m repro run --workload slc --memory-ratio 48 \\
        --dirty FAULT --ref MISS
    python -m repro formats              # Figure 3.2 bit layouts
    python -m repro all --out-dir out/   # everything, to files
    python -m repro campaign --workers 4 --cache-dir .repro-cache

All commands print the rendered artefact; ``--out`` / ``--out-dir``
additionally write it to disk.  Everything is seeded and reproducible.
"""

import argparse
import pathlib
import sys

from repro.analysis.experiments import (
    build_table_3_4,
    run_table_3_3,
    run_table_3_5,
    run_table_4_1,
)
from repro.common.errors import ConfigurationError
from repro.counters.events import Event
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.observe.series import DEFAULT_EPOCH_REFS
from repro.options import RunOptions
from repro.policies.dirty import make_dirty_policy
from repro.policies.reference import make_reference_policy
from repro.workloads.catalog import workload_by_name

TABLE_CHOICES = ("2.1", "3.1", "3.2", "3.3", "3.4", "3.5", "4.1")


def _options_from_args(args):
    """Build the :class:`RunOptions` the CLI flags describe.

    An invalid flag value exits with a one-line message.  Opens a
    :class:`~repro.observe.sinks.JsonlSink` when ``--trace`` was given
    (after validation, so a rejected command leaves no trace file);
    callers close it via :func:`_close_sink` when the command
    finishes.
    """
    try:
        options = RunOptions(
            workers=getattr(args, "workers", 1),
            cache_dir=getattr(args, "cache_dir", None),
            sanitize=getattr(args, "sanitize", None),
            observe=getattr(args, "observe", False),
            epoch_refs=getattr(args, "epoch_refs", DEFAULT_EPOCH_REFS),
            progress=getattr(args, "progress", False) or None,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.observe import JsonlSink

        options = options.replace(trace_sink=JsonlSink(trace_out))
    return options


def _runner_from_args(args):
    """Build the ExperimentRunner the CLI flags describe."""
    return ExperimentRunner(options=_options_from_args(args))


def _close_sink(runner):
    """Close the runner's trace sink, if the CLI opened one."""
    sink = runner.options.trace_sink
    if sink is not None:
        sink.close()


def _report_cache(runner):
    """Print cache traffic after a cached command, if any."""
    if runner.cache is not None:
        print(runner.cache.stats_line(), file=sys.stderr)


def _finish(runner):
    """Wrap up a runner-backed command: cache stats, close the sink."""
    _report_cache(runner)
    _close_sink(runner)


def _emit(text, out=None):
    print(text)
    if out:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"\nwritten to {path}", file=sys.stderr)


def _reference_cap(args):
    """``--max-references``, or exit with a one-line message."""
    cap = args.max_references
    if cap is not None and cap < 0:
        raise SystemExit(f"max_references must be >= 0, got {cap}")
    return cap


def _check_scale(args):
    """Exit with one line on a ``--reps``/``--length`` no run honours."""
    reps = getattr(args, "reps", None)
    if reps is not None and reps < 1:
        raise SystemExit(f"reps must be >= 1, got {reps}")
    length = getattr(args, "length", None)
    if length is not None and not length > 0:
        raise SystemExit(f"length must be > 0, got {length}")


def _machine_config(args):
    """The scaled machine ``--memory-ratio``, ``--dirty`` and ``--ref``
    describe, or exit with a one-line message."""
    try:
        config = scaled_config(
            memory_ratio=args.memory_ratio,
            dirty_policy=args.dirty.upper(),
            reference_policy=args.ref.upper(),
        )
        make_dirty_policy(config.dirty_policy)
        make_reference_policy(config.reference_policy)
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None
    return config


def _workload_by_name(name, length_scale):
    """CLI shim over :func:`repro.workloads.workload_by_name`."""
    try:
        return workload_by_name(name, length_scale=length_scale)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def cmd_table(args):
    """Regenerate one paper table by number."""
    number = args.number
    if number == "2.1":
        # Import locally: the bench module owns the renderer.
        from repro.analysis.tables import Table
        from repro.machine.config import TABLE_2_1

        table = Table("Table 2.1: SPUR System Configuration",
                      ["Parameter", "Value"])
        for label, value in TABLE_2_1:
            table.add_row(label, value)
        _emit(table.render(), args.out)
    elif number == "3.1":
        from repro.analysis.tables import Table
        from repro.policies.dirty import make_dirty_policy

        table = Table(
            "Table 3.1: Dirty Bit Implementation Alternatives",
            ["Policy", "Description"],
        )
        for name in ("FAULT", "FLUSH", "SPUR", "WRITE", "MIN"):
            doc = make_dirty_policy(name).__doc__.strip()
            table.add_row(name, doc.splitlines()[0])
        _emit(table.render(), args.out)
    elif number == "3.2":
        from repro.analysis import paper_data
        from repro.analysis.tables import Table

        times = paper_data.TABLE_3_2
        table = Table("Table 3.2: Time Parameters",
                      ["Parameter", "Cycle Count"])
        for name in ("t_ds", "t_flush", "t_dm", "t_dc"):
            table.add_row(name, getattr(times, name))
        _emit(table.render(), args.out)
    elif number == "3.3":
        runner = _runner_from_args(args)
        _, table = run_table_3_3(length_scale=args.length,
                                 seed=args.seed, runner=runner)
        _emit(table.render(), args.out)
        _finish(runner)
    elif number == "3.4":
        if args.source == "paper":
            _, table = build_table_3_4(
                exclude_zero_fill=not args.include_zero_fill
            )
        else:
            runner = _runner_from_args(args)
            rows, _ = run_table_3_3(length_scale=args.length,
                                    seed=args.seed, runner=runner)
            _, table = build_table_3_4(
                rows, exclude_zero_fill=not args.include_zero_fill
            )
            _finish(runner)
        _emit(table.render(), args.out)
    elif number == "3.5":
        runner = _runner_from_args(args)
        _, table = run_table_3_5(length_scale=args.length,
                                 seed=args.seed, runner=runner)
        _emit(table.render(), args.out)
        _finish(runner)
    elif number == "4.1":
        runner = _runner_from_args(args)
        _, table = run_table_4_1(length_scale=args.length,
                                 repetitions=args.reps, runner=runner)
        _emit(table.render(), args.out)
        _finish(runner)
    return 0


def cmd_run(args):
    """One simulation run; prints the headline measurements."""
    config = _machine_config(args)
    workload = _workload_by_name(args.workload, args.length)
    runner = _runner_from_args(args)
    result = runner.run(
        config, workload, seed=args.seed,
        label=f"run/{args.workload}",
    )

    lines = [
        f"workload            {result.workload}",
        f"memory              {args.memory_ratio}x cache "
        f"({config.memory_bytes} bytes)",
        f"policies            dirty={result.dirty_policy} "
        f"ref={result.reference_policy}",
        f"references          {result.references:,}",
        f"cycles              {result.cycles:,}",
        f"elapsed (simulated) {result.elapsed_seconds:.2f} s",
        f"page-ins            {result.page_ins:,}",
        f"page-outs           {result.page_outs:,}",
        f"zero-fills          {result.zero_fills:,}",
        f"dirty faults        {result.event(Event.DIRTY_FAULT):,}"
        f" ({result.event(Event.ZERO_FILL_DIRTY_FAULT):,} zero-fill)",
        f"dirty-bit misses    "
        f"{result.event(Event.DIRTY_BIT_MISS):,}",
        f"excess faults       {result.event(Event.EXCESS_FAULT):,}",
        f"reference faults    "
        f"{result.event(Event.REFERENCE_FAULT):,}",
    ]
    observation = result.observation
    if observation is not None:
        lines.append(
            f"observation         {len(observation.samples)} samples "
            f"every {observation.epoch_refs:,} refs"
        )
        for phase in sorted(observation.phases):
            seconds = observation.phases[phase]
            rate = observation.refs_per_second(phase)
            lines.append(
                f"  phase {phase:<9} {seconds:.3f} s host"
                + (f" ({rate:,.0f} refs/s)" if rate else "")
            )
    _emit("\n".join(lines), args.out)
    _finish(runner)
    return 0


def cmd_formats(args):
    """Render the Figure 3.2 bit layouts."""
    from repro.cache.block import CACHE_TAG_LAYOUT
    from repro.translation.pte import PTE_LAYOUT

    _emit(
        "\n\n".join([PTE_LAYOUT.render(), CACHE_TAG_LAYOUT.render()]),
        args.out,
    )
    return 0


def cmd_all(args):
    """Regenerate the main tables into a directory."""
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = _runner_from_args(args)
    jobs = (
        ("table_3_3", lambda: run_table_3_3(
            length_scale=args.length, seed=args.seed,
            runner=runner)[1]),
        ("table_3_4_paper", lambda: build_table_3_4()[1]),
        ("table_3_5", lambda: run_table_3_5(
            length_scale=args.length, seed=args.seed,
            runner=runner)[1]),
        ("table_4_1", lambda: run_table_4_1(
            length_scale=args.length, repetitions=args.reps,
            runner=runner)[1]),
    )
    for name, job in jobs:
        print(f"regenerating {name} ...", file=sys.stderr)
        table = job()
        (out_dir / f"{name}.txt").write_text(table.render() + "\n")
    _finish(runner)
    print(f"artefacts in {out_dir}", file=sys.stderr)
    return 0


def cmd_campaign(args):
    """The full measured-table campaign, parallel, cached, resumable.

    Runs Tables 3.3, 3.4 (from the measured 3.3 counts), 3.5, and 4.1
    through one shared runner and cache, fanning the independent cells
    over ``--workers`` processes.  A warm cache re-runs the whole
    campaign without simulating a single cell, which also makes a
    killed campaign resume where it stopped.
    """
    from repro.parallel import CampaignError

    runner = _runner_from_args(args)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        print(f"table 3.3 ({args.workers} workers) ...",
              file=sys.stderr)
        rows_33, table_33 = run_table_3_3(
            length_scale=args.length, seed=args.seed, runner=runner,
        )
        _, table_34 = build_table_3_4(rows_33)
        print("table 3.5 ...", file=sys.stderr)
        _, table_35 = run_table_3_5(
            length_scale=args.length, seed=args.seed, runner=runner,
        )
        print("table 4.1 ...", file=sys.stderr)
        _, table_41 = run_table_4_1(
            length_scale=args.length, repetitions=args.reps,
            runner=runner,
        )
    except CampaignError as error:
        # Every cell had its chance (successes are cached), so a
        # re-run after the fix only simulates the failed cells.
        print("campaign FAILED:", file=sys.stderr)
        for failure in error.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        _finish(runner)
        return 1
    artefacts = (
        ("table_3_3", table_33),
        ("table_3_4_measured", table_34),
        ("table_3_5", table_35),
        ("table_4_1", table_41),
    )
    for name, table in artefacts:
        (out_dir / f"{name}.txt").write_text(table.render() + "\n")
    _finish(runner)
    print(f"artefacts in {out_dir}", file=sys.stderr)
    return 0


def cmd_characterize(args):
    """Measure a workload's reference-stream properties."""
    from repro.analysis.tracestats import analyze_trace
    from repro.machine.config import scaled_config

    cap = _reference_cap(args)
    page_bytes = scaled_config().page_bytes
    workload = _workload_by_name(args.workload, args.length)
    instance = workload.instantiate(page_bytes, seed=args.seed)
    stats = analyze_trace(
        instance.accesses(), page_bytes=page_bytes,
        max_references=cap,
    )
    _emit(
        f"workload {instance.name} "
        f"({page_bytes}-byte pages)\n"
        + "\n".join(stats.summary_lines()),
        args.out,
    )
    return 0


def cmd_record(args):
    """Capture a workload's reference stream to disk."""
    from repro.machine.config import scaled_config
    from repro.workloads.recorded import record_workload

    cap = _reference_cap(args)
    page_bytes = scaled_config().page_bytes
    workload = _workload_by_name(args.workload, args.length)
    count = record_workload(
        workload, page_bytes, args.trace, seed=args.seed,
        max_references=cap,
    )
    print(f"recorded {count:,} references of {workload.name} to "
          f"{args.trace} (+ .regions sidecar)", file=sys.stderr)
    return 0


def cmd_replay(args):
    """Simulate a recorded trace under chosen policies."""
    from repro.workloads.recorded import RecordedWorkload

    workload = RecordedWorkload(args.trace)
    config = _machine_config(args)
    if config.page_bytes != workload.page_bytes:
        raise SystemExit(
            f"trace uses {workload.page_bytes}-byte pages; the "
            f"default machine uses {config.page_bytes}"
        )
    result = ExperimentRunner().run(config, workload)
    lines = [
        f"replayed            {result.references:,} references of "
        f"{result.workload}",
        f"policies            dirty={result.dirty_policy} "
        f"ref={result.reference_policy}",
        f"cycles              {result.cycles:,}",
        f"page-ins            {result.page_ins:,}",
        f"dirty faults        {result.event(Event.DIRTY_FAULT):,}",
        f"dirty-bit misses    "
        f"{result.event(Event.DIRTY_BIT_MISS):,}",
        f"excess faults       {result.event(Event.EXCESS_FAULT):,}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_observe_report(args):
    """Summarise a JSONL trace; optionally export CSV/JSON."""
    from repro.common.errors import TraceFormatError
    from repro.observe.report import (
        read_trace,
        render_report,
        summarize_trace,
        trajectories_json,
        write_trajectories_csv,
    )

    try:
        events = read_trace(args.trace)
    except OSError as error:
        raise SystemExit(f"cannot read trace: {error}") from None
    except TraceFormatError as error:
        raise SystemExit(str(error)) from None
    summary = summarize_trace(events)
    _emit(render_report(summary), args.out)
    if args.csv:
        count = write_trajectories_csv(events, args.csv)
        print(f"{count} trajectory rows written to {args.csv}",
              file=sys.stderr)
    if args.json:
        import json as json_module

        payload = {
            "summary": summary.to_json_dict(),
            "trajectories": trajectories_json(events),
        }
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json_module.dumps(payload, indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"JSON export written to {path}", file=sys.stderr)
    return 0


def cmd_report(args):
    """Run every experiment and emit the Markdown report.

    Exits nonzero if any shape check fails."""
    from repro.analysis.report import generate_report

    text, all_passed = generate_report(
        length_scale=args.length, repetitions=args.reps,
        seed=args.seed,
    )
    _emit(text, args.out)
    return 0 if all_passed else 1


def cmd_lint(args):
    """Delegate to the analysis CLI (:mod:`repro.lint.cli`).

    The lint tool owns its own argument surface (``--explain``,
    ``--format``, ``--baseline``...), so everything after ``lint`` is
    forwarded verbatim rather than re-declared here."""
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_argv)


def build_parser():
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Wood & Katz (ISCA 1989): reference and "
            "dirty bits in SPUR's virtual address cache."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reps=False):
        p.add_argument("--length", type=float, default=1.0,
                       help="workload length multiplier (default 1.0)")
        p.add_argument("--seed", type=int, default=0,
                       help="run seed (default 0)" + (
                           "; Table 4.1 ignores it and runs "
                           "repetition seeds 0..reps-1" if reps else ""))
        p.add_argument("--out", help="also write the artefact here")
        if reps:
            p.add_argument("--reps", type=int, default=2,
                           help="repetitions (paper used 5)")

    def parallel_opts(p):
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for independent runs "
                            "(default 1 = serial; results are "
                            "bit-identical either way)")
        p.add_argument("--cache-dir",
                       help="reuse results cached here; only changed "
                            "(config, workload, seed) cells simulate, "
                            "so a killed run resumes where it stopped")

    def observe_opts(p):
        p.add_argument("--observe", action="store_true",
                       help="sample the counter bank on an epoch "
                            "cadence during every run (results stay "
                            "bit-identical)")
        p.add_argument("--epoch-refs", type=int,
                       default=DEFAULT_EPOCH_REFS,
                       help="references per observation epoch "
                            "(rounded up to the page-daemon poll "
                            "interval)")
        p.add_argument("--trace", dest="trace_out", metavar="PATH",
                       help="write JSON-lines trace events here "
                            "(read back with `repro observe report`); "
                            "combine with --observe for per-epoch "
                            "counter records")
        p.add_argument("--progress", action="store_true",
                       help="live cells-done/cached/failed progress "
                            "line on stderr")

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", choices=TABLE_CHOICES)
    p_table.add_argument("--source", choices=("paper", "measured"),
                         default="paper",
                         help="counts source for table 3.4")
    p_table.add_argument("--include-zero-fill", action="store_true",
                         help="keep N_zfod in the 3.4 models")
    common(p_table, reps=True)
    parallel_opts(p_table)
    observe_opts(p_table)
    p_table.set_defaults(func=cmd_table)

    p_run = sub.add_parser("run", help="one simulation run")
    p_run.add_argument("--workload", default="slc",
                       help="slc | workload1 | dev-<host> | spec.json")
    p_run.add_argument("--memory-ratio", type=int, default=48,
                       help="memory as a multiple of the cache "
                            "(40/48/64 = the paper's 5/6/8 MB)")
    p_run.add_argument("--dirty", default="SPUR",
                       help="FAULT|FLUSH|SPUR|PROTMISS|WRITE|MIN")
    p_run.add_argument("--ref", default="MISS",
                       help="MISS|REF|NOREF")
    common(p_run)
    observe_opts(p_run)
    p_run.set_defaults(func=cmd_run)

    p_formats = sub.add_parser(
        "formats", help="render the Figure 3.2 bit layouts"
    )
    p_formats.add_argument("--out")
    p_formats.set_defaults(func=cmd_formats)

    p_all = sub.add_parser("all", help="regenerate the main tables")
    p_all.add_argument("--out-dir", default="results")
    common(p_all, reps=True)
    parallel_opts(p_all)
    observe_opts(p_all)
    p_all.set_defaults(func=cmd_all)

    p_campaign = sub.add_parser(
        "campaign",
        help="the full measured-table campaign: parallel, cached, "
             "and resumable",
    )
    p_campaign.add_argument("--out-dir", default="results")
    p_campaign.add_argument(
        "--sanitize", choices=("full", "sampled", "epoch"),
        help="run every cell under the invariant sanitizer",
    )
    common(p_campaign, reps=True)
    parallel_opts(p_campaign)
    observe_opts(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_observe = sub.add_parser(
        "observe", help="observability: trace reports and exports"
    )
    observe_sub = p_observe.add_subparsers(
        dest="observe_command", required=True
    )
    p_obs_report = observe_sub.add_parser(
        "report", help="summarise a JSON-lines trace file"
    )
    p_obs_report.add_argument(
        "trace", help="trace path written by --trace"
    )
    p_obs_report.add_argument(
        "--csv", help="write counter-trajectory rows (long format) "
                      "to this CSV file"
    )
    p_obs_report.add_argument(
        "--json", help="write the summary plus trajectories to this "
                       "JSON file"
    )
    p_obs_report.add_argument("--out",
                              help="also write the report here")
    p_obs_report.set_defaults(func=cmd_observe_report)

    p_report = sub.add_parser(
        "report",
        help="run everything and emit a Markdown reproduction report",
    )
    common(p_report, reps=True)
    p_report.set_defaults(func=cmd_report)

    p_char = sub.add_parser(
        "characterize",
        help="measure a workload's reference-stream properties",
    )
    p_char.add_argument("--workload", default="slc")
    p_char.add_argument("--max-references", type=int, default=200_000)
    common(p_char)
    p_char.set_defaults(func=cmd_characterize)

    p_record = sub.add_parser(
        "record", help="capture a workload's reference stream"
    )
    p_record.add_argument("trace", help="output trace path")
    p_record.add_argument("--workload", default="slc")
    p_record.add_argument("--max-references", type=int, default=None)
    common(p_record)
    p_record.set_defaults(func=cmd_record)

    p_replay = sub.add_parser(
        "replay", help="simulate a recorded trace"
    )
    p_replay.add_argument("trace", help="trace path from `record`")
    p_replay.add_argument("--memory-ratio", type=int, default=48)
    p_replay.add_argument("--dirty", default="SPUR")
    p_replay.add_argument("--ref", default="MISS")
    p_replay.add_argument("--out", help="also write the artefact here")
    p_replay.set_defaults(func=cmd_replay)

    p_lint = sub.add_parser(
        "lint", add_help=False,
        help="whole-program static analysis (rules R001-R008)",
    )
    p_lint.add_argument("lint_argv", nargs=argparse.REMAINDER)
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # `lint` forwards its whole tail to the analysis CLI.  Done ahead
    # of argparse because REMAINDER refuses leading option-like tokens
    # (`repro lint --explain R006` would die as "unrecognized").
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_scale(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
