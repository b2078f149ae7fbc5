import math

import numpy as np
import pytest

from radarodo import IcpConfig, IcpDivergedError, Pose2, apply_pose, icp_match
from radarodo.se2 import wrap_angle

from conftest import random_cloud


def test_config_validation():
    with pytest.raises(ValueError):
        IcpConfig(nn_radius=0.0)
    with pytest.raises(ValueError):
        IcpConfig(convergence_tol=0.0)
    with pytest.raises(ValueError):
        IcpConfig(max_iterations=0)


@pytest.mark.parametrize("field", ["nn_radius", "convergence_tol"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        IcpConfig(**{field: math.nan})


def test_exact_zero_residual_stops_after_one_iteration():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    pose, diag = icp_match(pts, pts)
    assert diag.iterations == 1
    assert diag.residual_rms == 0.0
    assert pose == Pose2()


def test_identity_alignment_converges_immediately():
    rng = np.random.default_rng(0)
    pts = random_cloud(rng, 25)
    pose, diag = icp_match(pts, pts)
    assert diag.iterations <= 2
    assert diag.pair_count == 25
    assert diag.residual_rms < 1e-9
    assert math.hypot(pose.x, pose.y) < 1e-12
    assert abs(pose.theta) < 1e-12


def test_recovers_small_rigid_motion():
    rng = np.random.default_rng(1)
    src = random_cloud(rng, 40)
    truth = Pose2(0.5, -0.3, 0.04)
    dst = apply_pose(truth, src)
    pose, diag = icp_match(src, dst)
    assert math.hypot(pose.x - truth.x, pose.y - truth.y) < 1e-6
    assert abs(wrap_angle(pose.theta - truth.theta)) < 1e-6
    assert diag.iterations <= 50


def test_good_initial_guess_rescues_large_motion():
    rng = np.random.default_rng(2)
    src = random_cloud(rng, 40)
    truth = Pose2(5.0, 0.0, 0.0)
    dst = apply_pose(truth, src)
    cfg = IcpConfig(initial_guess=Pose2(4.5, 0.0, 0.0))
    pose, _ = icp_match(src, dst, cfg)
    assert math.hypot(pose.x - truth.x, pose.y - truth.y) < 1e-6


def test_raises_when_no_points_pair_up():
    src = np.array([[0.0, 0.0], [1.0, 0.0]])
    dst = src + np.array([100.0, 0.0])
    with pytest.raises(IcpDivergedError):
        icp_match(src, dst)


def test_raises_on_empty_input():
    with pytest.raises(IcpDivergedError):
        icp_match(np.zeros((0, 2)), np.zeros((3, 2)))


def test_residual_history_is_monotone_enough():
    # each re-fit minimizes the current pairing's error, so the recorded
    # means should never grow between consecutive iterations on this scene
    rng = np.random.default_rng(3)
    src = random_cloud(rng, 60)
    dst = apply_pose(Pose2(0.8, 0.4, 0.05), src) + rng.normal(0, 0.02, size=(60, 2))
    _, diag = icp_match(src, dst)
    hist = diag.residual_history
    assert len(hist) == diag.iterations
    assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))
