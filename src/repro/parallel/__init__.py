"""Campaign execution, deterministic result caching, and resume.

The experiment matrices behind the paper's tables are embarrassingly
parallel: every (config, workload, seed) cell is an independent
cold-start simulation.  :func:`execute_cells` is the one orchestrator
for such a grid: it runs cells in-process or over a
:class:`~concurrent.futures.ProcessPoolExecutor` and merges the
results back in submission order, so parallel runs are bit-identical
to serial ones.  :class:`ResultCache` persists each cell's
:class:`~repro.machine.runner.RunResult` under a stable hash of its
inputs, so re-running a bench or sweep only simulates changed cells;
:class:`CampaignJournal` records each finished cell durably, so a
killed campaign resumes where it stopped.

See ``docs/parallel.md`` for the cache-key derivation, the
determinism guarantees, and resume.
"""

from repro.parallel.cache import (
    CACHE_FORMAT,
    CacheKeyError,
    ResultCache,
    cache_key,
    cell_key,
    result_from_payload,
    result_to_payload,
    workload_spec,
)
from repro.parallel.executor import (
    CampaignError,
    CellFailure,
    RunCell,
    execute_cells,
    run_pending,
    simulate_cell,
)
from repro.parallel.journal import (
    JOURNAL_FORMAT,
    CampaignJournal,
    JournalReplay,
    read_journal,
)

__all__ = [
    "CACHE_FORMAT",
    "CacheKeyError",
    "CampaignError",
    "CampaignJournal",
    "CellFailure",
    "JOURNAL_FORMAT",
    "JournalReplay",
    "ResultCache",
    "RunCell",
    "cache_key",
    "cell_key",
    "execute_cells",
    "read_journal",
    "result_from_payload",
    "result_to_payload",
    "run_pending",
    "simulate_cell",
    "workload_spec",
]
