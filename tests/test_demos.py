"""Every demo runs to completion (exit 0) against this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    ROOT / "demos" / name
    for name in (
        "01_simulate_and_extract.py",
        "02_descriptor_invariance.py",
        "03_graph_matching_walkthrough.py",
        "04_odometry_vs_icp.py",
        "05_complexity_bench.py",
    )
]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
