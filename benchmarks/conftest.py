"""Shared benchmark plumbing.

Each benchmark regenerates one of the paper's figures, its smaller
tables (2.1, 3.1, 3.2, Table 3.4's t_dc sweep), an ablation or an
extension, writes the rendered artefact to ``benchmarks/results/``,
asserts its own shape checks (gated by :func:`shape_asserts_enabled`)
and reports its wall time through pytest-benchmark
(``--benchmark-only`` runs the full set).

Tables 3.3, 3.4, 3.5 and 4.1 and their paper-shape targets
(:mod:`repro.analysis.targets`) are written and checked by ``repro
campaign``, which renders ``REPRODUCTION_REPORT.md``.

Environment knob:

``REPRO_BENCH_SCALE``
    Workload length multiplier (default 1.0).  0.1 gives a fast smoke
    pass with weaker statistics.
"""

import os
import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# bench_throughput times the frozen scalar oracle in tests/oracle.py.
_ROOT = str(pathlib.Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def bench_scale():
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def shape_asserts_enabled():
    """Whether the ablation and extension benches' own shape
    assertions should run.

    Quick smoke passes (``REPRO_BENCH_SCALE`` below 0.5) shorten the
    traces past the point where paging statistics are meaningful; they
    still regenerate every artefact but skip the shape checks.
    """
    return bench_scale() >= 0.5


def write_result(name, text):
    """Persist a rendered table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@pytest.fixture
def record_result(capsys):
    """Write an artefact and echo it to the terminal."""

    def _record(name, text):
        path = write_result(name, text)
        with capsys.disabled():
            print(f"\n{text}\n  -> {path}")

    return _record


def once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
