"""``python -m repro.sanitize``: self-check a simulation run.

Runs a workload on the scaled machine with the sanitizer attached in
the requested mode and reports what was checked.  Exit status 0 means
every invariant held for the whole run; an
:class:`~repro.sanitize.violation.InvariantViolation` is printed and
exits 1.

::

    python -m repro.sanitize                      # slc, full mode
    python -m repro.sanitize --mode sampled --refs 200000
    python -m repro.sanitize --workload workload1 --dirty FLUSH
"""

import argparse
import sys
import time

from repro.sanitize.sanitizer import MODES, Sanitizer
from repro.sanitize.violation import InvariantViolation


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro.sanitize",
        description=(
            "Run a workload under the runtime invariant sanitizer."
        ),
    )
    parser.add_argument("--mode", choices=MODES, default="full")
    parser.add_argument("--workload", default="slc",
                        help="slc | workload1 | dev-<host>")
    parser.add_argument("--refs", type=int, default=100_000,
                        help="references to simulate (default 100k)")
    parser.add_argument("--memory-ratio", type=int, default=48)
    parser.add_argument("--dirty", default="SPUR")
    parser.add_argument("--ref-policy", default="MISS")
    parser.add_argument("--sweep-interval", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    return parser


def run_sanitized(args):
    """Build machine + workload, run sanitized; returns (refs, seconds)."""
    from repro.cli import _workload_by_name
    from repro.machine.config import scaled_config
    from repro.machine.simulator import SpurMachine
    from repro.workloads.base import take_chunks

    config = scaled_config(
        memory_ratio=args.memory_ratio,
        dirty_policy=args.dirty.upper(),
        reference_policy=args.ref_policy.upper(),
    )
    workload = _workload_by_name(args.workload, 1.0)
    instance = workload.instantiate(config.page_bytes, seed=args.seed)
    sanitizer = Sanitizer(
        mode=args.mode, sweep_interval=args.sweep_interval,
    )

    started = time.perf_counter()
    machine = SpurMachine(config, instance.space_map)
    sanitizer.attach(machine)
    processed = machine.run_chunks(
        take_chunks(instance.access_chunks(), args.refs)
    )
    sanitizer.check_now()
    elapsed = time.perf_counter() - started
    return sanitizer, processed, elapsed


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        sanitizer, processed, elapsed = run_sanitized(args)
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION\n{violation}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"repro.sanitize: {error}", file=sys.stderr)
        return 2
    print(
        f"ok: {processed:,} references under mode={args.mode} "
        f"in {elapsed:.2f}s\n"
        f"    {sanitizer.line_checks:,} per-reference line checks, "
        f"{sanitizer.sweeps} full sweeps, no violations"
    )
    return 0
