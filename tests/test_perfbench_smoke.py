"""The benchmark's workloads still run against this checkout.

Each workload of ``perfbench/run.py`` runs for a fraction of a second with
its layer replay on, which calls every public stage function the benchmark
uses. A change in ``src`` that breaks one of those calls fails here instead
of only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("seq_noisy", "stream_busy", "icp_cli")


@pytest.fixture(scope="module")
def runs():
    # started together, so the three setups overlap instead of adding up
    procs = {
        w: subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "0",
             "--seconds", "0.2", "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for w in WORKLOADS
    }
    try:
        return {w: (p.communicate(timeout=300), p.returncode) for w, p in procs.items()}
    finally:
        for p in procs.values():
            p.kill()
            p.wait()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_checks(runs, workload):
    (out, err), code = runs[workload]
    assert code == 0, err
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True, err
    assert result["attempted"] > 0
    assert result["failed"] == 0
