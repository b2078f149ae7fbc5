"""Tests of the benchmark's own correctness checks.

    python3 -m pytest perfbench
"""

import math

import pytest

import checks

TRUTH = [(0.0, 0.0, 0.0), (0.75, 0.0, 0.0), (1.5, 0.02, 0.05), (2.2, 0.1, 0.1), (2.9, 0.3, 0.15)]


def relatives(trajectory):
    return [checks.relative(a, b) for a, b in zip(trajectory, trajectory[1:])]


def test_truth_equal_trajectory_gives_zero_error():
    rel = relatives(TRUTH)
    t_err, r_err = checks.pair_errors(rel, TRUTH)
    assert t_err == [0.0] * 4
    assert r_err == [0.0] * 4
    assert checks.check_accuracy(t_err, 0.2, failed=0) == []
    assert checks.check_composition(TRUTH, rel) == []


def test_known_offset_gives_exactly_that_error_and_fails_its_bound():
    offset = (0.3, 0.4, 0.01)
    est = [(x + offset[0], y + offset[1], th + offset[2]) for x, y, th in relatives(TRUTH)]
    t_err, r_err = checks.pair_errors(est, TRUTH)
    assert t_err == pytest.approx([0.5] * 4, abs=1e-12)
    assert r_err == pytest.approx([0.01] * 4, abs=1e-12)
    # two range bins of 0.2 m allow 0.4 m; of 0.3 m, 0.6 m
    assert checks.check_accuracy(t_err, 0.2, failed=0)
    assert checks.check_accuracy(t_err, 0.3, failed=0) == []


def test_a_failed_pair_fails_accuracy_however_small_the_errors():
    assert checks.check_accuracy([0.0, 0.0], 0.2, failed=1)


def test_rotation_error_wraps_across_pi():
    truth = [(0.0, 0.0, 0.0), (0.0, 0.0, math.pi - 0.01)]
    _, r_err = checks.pair_errors([(0.0, 0.0, -math.pi + 0.01)], truth)
    assert r_err == pytest.approx([0.02], abs=1e-12)


def test_compose_undoes_relative():
    for a, b in zip(TRUTH, TRUTH[1:]):
        assert checks.compose(a, checks.relative(a, b)) == pytest.approx(b, abs=1e-12)


def test_composition_check_finds_a_moved_pose():
    rel = relatives(TRUTH)
    moved = list(TRUTH)
    moved[3] = (moved[3][0] + 1e-6, moved[3][1], moved[3][2])
    problems = checks.check_composition(moved, rel)
    assert len(problems) == 1 and "pose 3" in problems[0]
    assert checks.check_composition(TRUTH[:-1], rel)


def test_one_to_one_selection():
    assert checks.check_one_to_one([(0, 1), (1, 2), (4, 0)], u=5) == []
    assert checks.check_one_to_one([(0, 1), (0, 2)], u=5)
    assert checks.check_one_to_one([(0, 1), (2, 1)], u=5)
    assert checks.check_one_to_one([(0, 1)], u=5)
    assert checks.check_one_to_one([(0, 1), (1, 2), (2, 3)], u=2)


def test_confidences_lie_in_the_unit_interval():
    assert checks.check_confidences(0.0, 1.0) == []
    assert len(checks.check_confidences(1.0000001, -0.1)) == 2
    assert checks.check_confidences(float("nan"), 0.5)


def test_cli_run_check(tmp_path):
    rel = relatives(TRUTH)
    offset = [(x + 0.03, y, th) for x, y, th in rel]
    trajectory = [(0.0, 0.0, 0.0)]
    for pose in offset:
        trajectory.append(checks.compose(trajectory[-1], pose))
    t_err, _ = checks.pair_errors(relatives(trajectory), TRUTH)
    metrics = {"failures": "0", "translation_median_m": repr(sorted(t_err)[2])}
    good = checks.check_cli_run(0, trajectory, TRUTH, metrics, 5, t_err)
    assert good == []
    assert checks.check_cli_run(3, trajectory, TRUTH, metrics, 5, t_err)
    assert checks.check_cli_run(0, trajectory[:-1], TRUTH, metrics, 5, t_err)
    assert checks.check_cli_run(0, trajectory, TRUTH, {**metrics, "failures": "1"}, 5, t_err)
    off = {**metrics, "translation_median_m": repr(sorted(t_err)[2] + 1e-8)}
    assert checks.check_cli_run(0, trajectory, TRUTH, off, 5, t_err)


def test_pose_csv_and_metrics_files_round_trip(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text("timestamp,x,y,theta\n" + "".join(
        f"{0.25 * k!r},{x!r},{y!r},{th!r}\n" for k, (x, y, th) in enumerate(TRUTH)
    ))
    stamps, poses = checks.read_pose_csv(path)
    assert stamps == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert poses == TRUTH
    metrics = tmp_path / "metrics.txt"
    metrics.write_text("method = icp\nfailures = 0\ntranslation_median_m = 0.07\n")
    assert checks.read_metrics(metrics) == {
        "method": "icp", "failures": "0", "translation_median_m": "0.07"
    }
