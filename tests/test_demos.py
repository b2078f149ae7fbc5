"""Every demo, and the README's library and CLI quick starts, runs to
completion (exit 0) against this checkout's package, and the README names
only what exists."""

import builtins
import inspect
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import radarodo

from conftest import child_env

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


def run_python(args, cwd):
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=child_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_quick_start_runs_and_recovers_the_motion(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    pose_line, confidence_line = run_python(["-c", blocks[0]], tmp_path).splitlines()
    # scan_b is rendered at Pose2(2.0, 0.5, 0.05) and scan_a at the origin
    x, y, theta = (float(v) for v in re.fullmatch(
        r"Pose2\(x=(\S+), y=(\S+), theta=(\S+)\)", pose_line).groups())
    assert math.hypot(x - 2.0, y - 0.5) < 0.25
    assert abs(theta - 0.05) < 0.01
    assert 0.5 < float(confidence_line) <= 1.0


SIM_CFG = """
num_azimuths = 128
num_range_bins = 96
steps = 4
n_landmarks = 30
world_extent = 40.0
min_range = 6.0
min_separation = 3.0
"""


def test_readme_cli_quick_start_runs(tmp_path):
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    commands = [b for b in blocks if "radarodo " in b]
    assert len(commands) == 1
    (tmp_path / "sim.cfg").write_text(SIM_CFG)
    for line in commands[0].replace("\\\n", " ").splitlines():
        argv = line.split()
        assert argv[0] == "radarodo", line
        run_python(["-m", "radarodo.cli", *argv[1:]], tmp_path)


def test_readme_names_only_what_the_package_has():
    # every backticked call `name(` and capitalised `Name`, so that a
    # deletion cannot leave the README naming what is gone
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Za-z_]\w*)\(", text)) | set(re.findall(r"`([A-Z]\w*)`", text))
    assert {"run_odometry", "PipelineConfig", "ValueError"} <= names
    assert sorted(n for n in names if not hasattr(radarodo, n) and not hasattr(builtins, n)) == []
    # a backticked call of bare names, `f(a, b)`, lists f's leading
    # parameters by name, so a renamed or reordered parameter shows
    calls = re.findall(r"`([A-Za-z_]\w*)\(((?:[A-Za-z_]\w*(?:, )?)*)\)`", text)
    assert {"run_odometry", "evaluate", "descriptor_matrix"} <= {name for name, _ in calls}
    stale = []
    for name, args in calls:
        args = args.split(", ") if args else []
        params = list(inspect.signature(getattr(radarodo, name)).parameters)
        if args != params[: len(args)]:
            stale.append((name, args, params))
    assert stale == []
