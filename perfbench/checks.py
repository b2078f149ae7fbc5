"""Correctness checks computed apart from the program under test.

Poses are plain ``(x, y, theta)`` tuples and all SE(2) arithmetic here is
the benchmark's own, so a fault in ``radarodo.se2`` or ``evaluate`` cannot
hide itself. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
import statistics


def wrap(theta: float) -> float:
    """Angle wrapped to (-pi, pi]."""
    t = math.remainder(theta, 2.0 * math.pi)
    return math.pi if t == -math.pi else t


def compose(a, b):
    """Pose b, given in a's frame, expressed in a's parent frame."""
    c, s = math.cos(a[2]), math.sin(a[2])
    return (a[0] + c * b[0] - s * b[1], a[1] + s * b[0] + c * b[1], wrap(a[2] + b[2]))


def relative(a, b):
    """Pose of frame b expressed in frame a (both given in one frame)."""
    c, s = math.cos(a[2]), math.sin(a[2])
    dx, dy = b[0] - a[0], b[1] - a[1]
    return (c * dx + s * dy, -s * dx + c * dy, wrap(b[2] - a[2]))


def pair_errors(estimated, truth):
    """Per-pair (translation m, rotation rad) errors of relative poses
    ``estimated[k]`` against consecutive ``truth`` poses k, k+1."""
    if len(truth) != len(estimated) + 1:
        raise ValueError("need one more truth pose than estimated pairs")
    t_err, r_err = [], []
    for k, est in enumerate(estimated):
        true_rel = relative(truth[k], truth[k + 1])
        t_err.append(math.hypot(est[0] - true_rel[0], est[1] - true_rel[1]))
        r_err.append(abs(wrap(est[2] - true_rel[2])))
    return t_err, r_err


def check_accuracy(t_err, range_resolution: float, failed: int):
    """The acceptance bounds: translation median within two range bins, and
    no pair failed."""
    problems = []
    if not t_err:
        return ["no pair errors to check"]
    median = statistics.median(t_err)
    if not median <= 2.0 * range_resolution:
        problems.append(
            f"translation median {median:.4f} m exceeds 2 range bins ({2 * range_resolution} m)"
        )
    if failed:
        problems.append(f"{failed} pair(s) failed")
    return problems


def check_composition(trajectory, relatives, tol: float = 1e-9):
    """The trajectory starts at the identity and chains the pair poses."""
    if len(trajectory) != len(relatives) + 1:
        return [f"{len(trajectory)} trajectory poses for {len(relatives)} pairs"]
    expected = (0.0, 0.0, 0.0)
    problems = []
    for k, pose in enumerate(trajectory):
        if k:
            expected = compose(expected, relatives[k - 1])
        off = max(abs(pose[0] - expected[0]), abs(pose[1] - expected[1]),
                  abs(wrap(pose[2] - expected[2])))
        if not off <= tol:
            problems.append(f"trajectory pose {k} is {off:.3g} off the composed pair poses")
    return problems


def check_confidences(mutual_compatibility: float, eigengap: float):
    problems = []
    for name, value in (("mutual compatibility", mutual_compatibility), ("eigengap", eigengap)):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value!r} outside [0, 1]")
    return problems


def check_one_to_one(selected, u: int):
    """Each keypoint on either side is used at most once, and a selection
    has between 2 and u matches."""
    problems = []
    left = [g for g, _ in selected]
    right = [h for _, h in selected]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        problems.append("selection reuses a keypoint")
    if not 2 <= len(selected) <= u:
        problems.append(f"{len(selected)} matches selected from {u} candidates")
    return problems


def read_pose_csv(path):
    """(timestamps, poses) from a ``timestamp,x,y,theta`` file."""
    with open(path, encoding="ascii") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines or lines[0] != "timestamp,x,y,theta":
        raise ValueError(f"{path}: bad header")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return [r[0] for r in rows], [r[1:] for r in rows]


def read_metrics(path):
    """``key = value`` lines as a dict of strings."""
    out = {}
    with open(path, encoding="ascii") as f:
        for line in f:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def check_cli_run(exit_code: int, trajectory, truth, metrics, n_scans: int, t_err):
    """An ``odometry`` CLI run: exit 0, one trajectory row per scan, no
    failures, and a reported translation median equal to our own."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if len(trajectory) != n_scans or len(truth) != n_scans:
        problems.append(f"{len(trajectory)} trajectory / {len(truth)} truth rows for {n_scans} scans")
    if metrics.get("failures") != "0":
        problems.append(f"metrics.txt reports failures = {metrics.get('failures')}")
    reported = float(metrics.get("translation_median_m", "nan"))
    own = statistics.median(t_err) if t_err else float("nan")
    if not abs(reported - own) <= 1e-9:
        problems.append(f"metrics.txt translation_median_m {reported!r} != own {own!r}")
    return problems
