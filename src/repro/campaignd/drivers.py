"""Drivers: interchangeable execution backends for the campaign service.

A driver's whole contract is one method::

    driver.run(cells, pending, record)

where ``cells`` is the full :class:`~repro.parallel.executor.RunCell`
list, ``pending`` the indices to simulate, and ``record(index,
outcome)`` the service's single-threaded callback — called once per
pending index with a :class:`~repro.machine.runner.RunResult` on
success or an exception on failure, always from the calling process.
Drivers never touch the journal, the cache of record, or the sink;
the service owns those, which is what keeps every backend's resume
and telemetry semantics identical.

Two backends ship:

:class:`LocalDriver`
    The in-process serial and process-pool paths, via
    :func:`repro.parallel.run_pending`.  Cannot enforce per-cell
    timeouts (a stuck pool worker cannot be killed without killing
    the pool), and says so through ``supports_timeout``.
:class:`SubprocessDriver`
    Round-robin shards pending cells over ``repro worker``
    subprocesses that coordinate only through a shared cache
    directory — the multi-host sharding story, exercised on one
    host.  Workers stream results back as JSON lines; because cells
    are independent and results content-addressed, any shard count
    merges to the bit-identical campaign.

:class:`RetryPolicy` is the service-level knob bundle (attempts,
backoff, per-cell timeout) that the service applies around whichever
driver it drives.
"""

import json
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.campaignd.cells import cell_to_spec
from repro.parallel.cache import result_from_payload
from repro.parallel.executor import run_pending


@dataclass(frozen=True)
class RetryPolicy:
    """How the service re-drives failed cells.

    ``retries`` extra attempts per campaign (0 = fail fast);
    ``backoff_seconds`` is the base of the exponential sleep between
    attempts (attempt *n* sleeps ``backoff_seconds * 2**(n-1)``);
    ``timeout_seconds`` bounds one worker shard's wall-clock time and
    requires a driver with ``supports_timeout``.
    """

    retries: int = 0
    backoff_seconds: float = 0.5
    timeout_seconds: Optional[float] = None

    def sleep_before(self, attempt):
        """Backoff delay (seconds) before retry *attempt* (1-based)."""
        if attempt <= 0 or self.backoff_seconds <= 0:
            return 0.0
        return self.backoff_seconds * (2 ** (attempt - 1))


class LocalDriver:
    """Run pending cells in this process (serial or pool).

    The campaign service's default backend: a thin adapter over
    :func:`repro.parallel.run_pending`, so service campaigns inherit
    the exact execution semantics — and bit-identical results — of
    :func:`~repro.parallel.execute_cells`.
    """

    #: A stuck pool worker cannot be killed individually, so the
    #: service refuses timeout policies on this driver up front.
    supports_timeout = False
    #: Results come back through ``record`` only; the service stores
    #: them into the cache itself.
    stores_results = False

    def __init__(self, workers=1, sink=None):
        self.workers = workers
        self.sink = sink

    def describe(self):
        """One-line rendering for status output and logs."""
        return f"local(workers={self.workers})"

    def run(self, cells, pending, record):
        """Simulate *pending* and feed every outcome to ``record``."""
        run_pending(cells, pending, record, workers=self.workers,
                    sink=self.sink)


class _Shard:
    """One worker subprocess and its reporting state."""

    def __init__(self, number, indices, proc, stderr_path):
        self.number = number
        self.indices = indices
        self.proc = proc
        self.stderr_path = stderr_path
        self.reported = set()
        self.timed_out = False


def _pump(shard, events):
    """Reader thread: forward one shard's stdout lines to the queue."""
    try:
        for line in shard.proc.stdout:
            events.put((shard, line))
    finally:
        shard.proc.stdout.close()
        events.put((shard, None))


def _stderr_tail(path, limit=800):
    """Last *limit* characters of a worker's captured stderr."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError:
        return ""
    return text[-limit:].strip()


class SubprocessDriver:
    """Shard pending cells over ``repro worker`` subprocesses.

    Each worker gets a spec file (its shard of cells, round-robin in
    cell order) and the shared ``cache_dir``; results stream back as
    JSON lines on the worker's stdout and are fed to ``record`` from
    the parent — never from a thread — preserving the service's
    single-threaded record contract.  Worker stderr goes to temp
    files, not pipes, so a chatty worker can never deadlock the
    parent; the tail is attached to the diagnosis when a worker dies.

    ``worker_args`` is appended to every worker command line (e.g.
    ``("--delay-seconds", "0.2")`` in timeout tests).  A per-shard
    ``timeout_seconds`` deadline kills overdue workers and records a
    :class:`TimeoutError` for their unreported cells.
    """

    supports_timeout = True

    def __init__(self, workers=2, cache_dir=None, worker_args=(),
                 timeout_seconds=None):
        self.workers = max(1, int(workers))
        self.cache_dir = cache_dir
        self.worker_args = tuple(worker_args)
        self.timeout_seconds = timeout_seconds

    @property
    def stores_results(self):
        """Workers store into the shared cache when one is shared."""
        return self.cache_dir is not None

    def describe(self):
        """One-line rendering for status output and logs."""
        return f"subprocess(workers={self.workers})"

    def _command(self, spec_path):
        command = [
            sys.executable, "-m", "repro", "worker",
            "--cells", spec_path,
        ]
        if self.cache_dir is not None:
            command += ["--cache-dir", str(self.cache_dir)]
        command += list(self.worker_args)
        return command

    def _environment(self):
        # Workers must import the same repro the parent runs, wherever
        # the parent found it (src/ checkout or installed).
        import repro

        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        return env

    def _spawn(self, number, indices, cells, workdir, env):
        spec_path = os.path.join(workdir, f"shard-{number}.jsonl")
        with open(spec_path, "w", encoding="utf-8") as handle:
            for index in indices:
                handle.write(json.dumps({
                    "index": index,
                    "cell": cell_to_spec(cells[index]),
                }, sort_keys=True) + "\n")
        stderr_path = os.path.join(workdir, f"shard-{number}.stderr")
        proc = subprocess.Popen(
            self._command(spec_path),
            stdout=subprocess.PIPE,
            stderr=open(stderr_path, "w", encoding="utf-8"),
            env=env,
            text=True,
        )
        return _Shard(number, indices, proc, stderr_path)

    def run(self, cells, pending, record):
        """Simulate *pending* across worker subprocesses."""
        if not pending:
            return
        shard_count = min(self.workers, len(pending))
        assignments = [
            pending[offset::shard_count] for offset in range(shard_count)
        ]
        events = queue.Queue()
        deadline = (
            time.monotonic() + self.timeout_seconds
            if self.timeout_seconds is not None else None
        )
        with tempfile.TemporaryDirectory(prefix="repro-shards-") as workdir:
            env = self._environment()
            shards = [
                self._spawn(number, indices, cells, workdir, env)
                for number, indices in enumerate(assignments)
            ]
            threads = [
                threading.Thread(
                    target=_pump, args=(shard, events), daemon=True
                )
                for shard in shards
            ]
            for thread in threads:
                thread.start()
            open_streams = len(shards)
            while open_streams:
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - time.monotonic())
                try:
                    shard, line = events.get(
                        timeout=timeout if deadline is not None else None
                    )
                except queue.Empty:
                    # Deadline passed with shards still running: kill
                    # them.  Their streams close, the pumps signal EOF,
                    # and the drain below records the timeouts.
                    for shard in shards:
                        if shard.proc.poll() is None:
                            shard.timed_out = True
                            shard.proc.kill()
                    deadline = None
                    continue
                if line is None:
                    open_streams -= 1
                    continue
                self._handle_line(shard, line, record)
            for shard in shards:
                shard.proc.wait()
            for thread in threads:
                thread.join()
            for shard in shards:
                self._drain_unreported(shard, record)

    def _handle_line(self, shard, line, record):
        """Fold one worker stdout line into the campaign (main thread)."""
        line = line.strip()
        if not line:
            return
        try:
            event = json.loads(line)
        except ValueError:
            return
        if not isinstance(event, dict):
            return
        kind = event.get("type")
        if kind == "worker_cell_done":
            index = event.get("index")
            if index not in shard.reported:
                shard.reported.add(index)
                try:
                    result = result_from_payload(event["result"])
                except (KeyError, TypeError) as error:
                    record(index, RuntimeError(
                        f"worker {shard.number} sent an undecodable "
                        f"result for cell {index}: {error}"
                    ))
                else:
                    record(index, result)
        elif kind == "worker_cell_failed":
            index = event.get("index")
            if index not in shard.reported:
                shard.reported.add(index)
                record(index, RuntimeError(
                    event.get("error", "worker reported failure")
                ))

    def _drain_unreported(self, shard, record):
        """Record an outcome for every cell the shard never reported."""
        missing = [
            index for index in shard.indices
            if index not in shard.reported
        ]
        if not missing:
            return
        if shard.timed_out:
            for index in missing:
                record(index, TimeoutError(
                    f"worker {shard.number} exceeded "
                    f"{self.timeout_seconds}s and was killed before "
                    f"reporting cell {index}"
                ))
            return
        tail = _stderr_tail(shard.stderr_path)
        detail = f" stderr: {tail}" if tail else ""
        for index in missing:
            record(index, RuntimeError(
                f"worker {shard.number} exited with code "
                f"{shard.proc.returncode} before reporting cell "
                f"{index}.{detail}"
            ))


__all__ = ["LocalDriver", "RetryPolicy", "SubprocessDriver"]
