"""Run every example script end to end (smallest sensible inputs).

Examples are part of the public deliverable; these tests keep them
executable and keep their headline output lines intact.
"""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "dirty-bit events" in out
    assert "N_ds" in out


def test_excess_fault_demo():
    out = run_example("excess_fault_demo.py")
    assert "EXCESS FAULT" in out
    assert "DIRTY-BIT MISS" in out
    assert "saved 950 cycles" in out


def test_translation_walkthrough():
    out = run_example("translation_walkthrough.py")
    assert "pure cache hit" in out
    assert "wired" in out


def test_dirty_bit_study():
    out = run_example("dirty_bit_study.py", "0.01")
    assert "Table 3.3" in out
    assert "Table 3.4" in out


def test_reference_bit_study():
    out = run_example("reference_bit_study.py", "0.01", "1")
    assert "Table 4.1" in out
    assert "NOREF" in out


def test_pageout_study():
    out = run_example("pageout_study.py", "0.05")
    assert "Table 3.5" in out
    assert "paging I/O" in out


def test_workload_characterization():
    out = run_example("workload_characterization.py", "40000")
    assert "WORKLOAD1" in out
    assert "reuse distances" in out


def test_counter_methodology():
    out = run_example("counter_methodology.py")
    assert "cross-check" in out
    assert "agree" in out


def test_custom_workload():
    out = run_example("custom_workload.py")
    assert "TPC-ish" in out
    assert "MIN" in out
