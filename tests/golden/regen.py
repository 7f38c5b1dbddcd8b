"""Absolute golden results for a reduced Tables 3.3, 3.5 and 4.1 grid.

``golden.json`` pins the simulated output of every cell the three
table drivers run at ``length_scale`` 0.02, one repetition, seed 0:
the reference count, cycles, paging statistics and the full
performance-counter event dict.  Its ``slow_path`` grid pins, the
same way, eight paging-heavy cells at ``length_scale`` 0.1 (see
:func:`run_slow_path`).  ``test_golden.py`` checks every execution
mode against this file, so a change that shifts all modes the same
way still fails.

Regenerating the file is a deliberate, reviewed edit, never a test
side effect.  From the repository root::

    python tests/golden/regen.py
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.analysis.experiments import (  # noqa: E402
    run_table_3_3,
    run_table_3_5,
    run_table_4_1,
)
from repro.machine.config import scaled_config  # noqa: E402
from repro.machine.runner import ExperimentRunner  # noqa: E402
from repro.workloads.workload1 import Workload1  # noqa: E402

LENGTH_SCALE = 0.02
SEED = 0
TABLES = ("3.3", "3.5", "4.1")

#: Length of the ``slow_path`` grid: long enough for WORKLOAD1 at
#: 5 MB to page out under every policy and to reach the 65,536-ref
#: daemon polls, which the 0.02 tables never do.
SLOW_PATH_LENGTH = 0.1
DIRTY_POLICIES = ("FAULT", "FLUSH", "MIN", "PROTMISS", "SPUR", "WRITE")

#: The RunResult fields a cell record pins besides ``events``.  Host
#: fields (``host_seconds``, ``scalar_bailouts``) are left out.
RESULT_FIELDS = (
    "references", "cycles", "page_ins", "page_outs", "zero_fills",
    "potentially_modified", "not_modified",
)


class RecordingRunner(ExperimentRunner):
    """An ExperimentRunner that keeps every result by its label."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.records = {}

    def run_many(self, specs, options=None, labels=None):
        results = super().run_many(specs, options=options, labels=labels)
        for label, result in zip(labels, results):
            self.records[label] = cell_record(result)
        return results


def cell_record(result):
    """The simulated output of one cell, as JSON-ready values."""
    record = {name: getattr(result, name) for name in RESULT_FIELDS}
    record["events"] = {
        event.name: count for event, count in sorted(
            result.events.items(), key=lambda item: item[0].name
        )
    }
    return record


def run_table(table, options=None):
    """``{label: cell record}`` of one table driver's cells."""
    runner = RecordingRunner(options=options)
    if table == "3.3":
        run_table_3_3(length_scale=LENGTH_SCALE, runner=runner, seed=SEED)
    elif table == "3.5":
        run_table_3_5(length_scale=LENGTH_SCALE, runner=runner, seed=SEED)
    elif table == "4.1":
        # Repetition r runs at seed r, so repetition 0 is seed 0.
        run_table_4_1(length_scale=LENGTH_SCALE, runner=runner,
                      repetitions=1)
    else:
        raise ValueError(f"unknown table {table!r}")
    return runner.records


def run_slow_path(options=None):
    """``{label: cell record}`` of the ``slow_path`` grid.

    WORKLOAD1 at 5 MB (cache ratio 40) under the six dirty-bit
    policies with MISS reference bits, plus SPUR/REF with the tagless
    flush: every page fault, eviction, flush and daemon route a policy
    can take.
    """
    grid = [
        (f"WORKLOAD1/5MB/{policy}/MISS",
         scaled_config(memory_ratio=40, dirty_policy=policy,
                       reference_policy="MISS"))
        for policy in DIRTY_POLICIES
    ]
    grid.append(("WORKLOAD1/5MB/SPUR/REF/tagless", scaled_config(
        memory_ratio=40, dirty_policy="SPUR", reference_policy="REF",
        flush_strategy="tagless")))
    runner = RecordingRunner(options=options)
    runner.run_many(
        [(config, Workload1(length_scale=SLOW_PATH_LENGTH), SEED, None)
         for _, config in grid],
        labels=[label for label, _ in grid],
    )
    return runner.records


def load_golden():
    """``{table: {label: cell record}}`` from ``golden.json``."""
    return json.loads(GOLDEN_PATH.read_text())["tables"]


def load_slow_path_golden():
    """``{label: cell record}`` of the ``slow_path`` grid."""
    return json.loads(GOLDEN_PATH.read_text())["slow_path"]


def main():
    document = {
        "length_scale": LENGTH_SCALE,
        "seed": SEED,
        "repetitions": 1,
        "tables": {
            table: dict(sorted(run_table(table).items()))
            for table in TABLES
        },
        "slow_path_length_scale": SLOW_PATH_LENGTH,
        "slow_path": dict(sorted(run_slow_path().items())),
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n")
    cells = sum(len(cells) for cells in document["tables"].values())
    cells += len(document["slow_path"])
    print(f"wrote {cells} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
