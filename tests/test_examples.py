"""Every example script must run end-to-end (scaled down)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.slow
def test_quickstart():
    out = run_example("quickstart.py", "--requests", "1500")
    assert "scheme comparison" in out
    assert "Across-FTL activity" in out


@pytest.mark.slow
def test_vdi_replay_synthetic():
    out = run_example("vdi_replay.py", "--scale", "0.001", "--luns", "2")
    assert "lun1" in out and "lun2" in out
    assert "I/O-time reduction" in out


@pytest.mark.slow
def test_page_size_study():
    out = run_example("page_size_study.py", "--requests", "1200")
    assert "across-page ratio vs page size" in out
    assert "normalised I/O time" in out


@pytest.mark.slow
def test_endurance_study():
    out = run_example("endurance_study.py", "--requests", "1200")
    assert "erase saving" in out


@pytest.mark.slow
def test_trace_characterization():
    out = run_example("trace_characterization.py", "--count", "4")
    assert "across@8K" in out
    assert "trace1" in out


@pytest.mark.slow
def test_tail_latency():
    out = run_example("tail_latency.py", "--requests", "1500")
    assert "p99" in out and "tail" in out


@pytest.mark.slow
def test_gc_policy_study():
    out = run_example("gc_policy_study.py", "--requests", "2000")
    assert "preemptive" in out and "wear gini" in out


@pytest.mark.slow
def test_power_loss_recovery():
    out = run_example("power_loss_recovery.py", "--requests", "1200")
    assert "power loss" in out
    assert "tables and data intact" in out


@pytest.mark.slow
def test_custom_workload():
    out = run_example("custom_workload.py", "--requests", "800")
    assert "mail-server" in out and "build-server" in out
    assert "I/O-time reduction" in out


@pytest.mark.slow
def test_gc_dynamics():
    out = run_example("gc_dynamics.py", "--requests", "3000")
    assert "GC dynamics" in out
    assert "erase pulses" in out
