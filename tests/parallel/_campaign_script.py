"""Subprocess half of the kill-resume tests: a paced journaled campaign.

Run as a script (``python _campaign_script.py --journal J --cache-dir
C --delay 0.3``) it executes the Table 4.1-shaped grid below through
:func:`~repro.parallel.execute_cells`, sleeping ``--delay`` seconds
after each computed cell's ``cell_finished`` event (which follows the
cell's cache store and journal record) so the parent test can kill it
mid-campaign at a known point.  The test imports
:func:`campaign_cells` from this same file, so both processes agree
on the grid by construction.
"""

import argparse
import sys
import time

from repro.machine.config import scaled_config
from repro.parallel import ResultCache, RunCell, execute_cells
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

TINY_SCALE = 0.003
MAX_REFS = 2000


def campaign_cells():
    """A small Table 4.1-shaped grid: 2 workloads x 2 memories x 2 seeds."""
    cells = []
    for name, cls in (("SLC", SlcWorkload), ("WORKLOAD1", Workload1)):
        for ratio in (40, 48):
            for seed in (0, 1):
                cells.append(RunCell(
                    scaled_config(memory_ratio=ratio),
                    cls(length_scale=TINY_SCALE),
                    seed=seed,
                    max_references=MAX_REFS,
                    label=f"{name}-{ratio}-s{seed}",
                ))
    return cells


class PacingSink:
    """A trace sink that sleeps after every ``cell_finished`` event."""

    def __init__(self, delay):
        self.delay = delay

    def emit(self, event):
        if event.get("type") == "cell_finished" and self.delay > 0:
            time.sleep(self.delay)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--delay", type=float, default=0.0)
    args = parser.parse_args(argv)
    execute_cells(
        campaign_cells(),
        cache=ResultCache(args.cache_dir),
        journal=args.journal,
        sink=PacingSink(args.delay),
    )
    print("campaign complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
