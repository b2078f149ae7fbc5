import math

import numpy as np
import pytest

from radarodo import (
    ArtifactModel,
    IcpConfig,
    PipelineConfig,
    Pose2,
    RadarOdoError,
    SensorMeta,
    TrajectorySpec,
    compose,
    evaluate,
    extract_keypoints,
    icp_match,
    icp_matcher,
    inverse,
    match_scan_pair,
    random_world,
    relative_pose,
    render_scan,
    render_sequence,
    run_odometry,
)
from radarodo.odometry import match_keypoint_sets
from radarodo.se2 import wrap_angle

from conftest import close_world

META = SensorMeta(256, 120, 0.5, 0.25)
QUIET = ArtifactModel(
    speckle_scale=0.0, background_noise=0.0, false_positive_rate=0.0, dropout_prob=0.0
)
CFG = PipelineConfig(l_max=200, alpha=64, rho=64)


def render_pair(world, pose_a, pose_b, seed=0):
    a = render_scan(world, pose_a, META, QUIET, seed=seed, timestamp=0.0)
    b = render_scan(world, pose_b, META, QUIET, seed=seed + 1, timestamp=META.scan_period)
    return a, b


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(l_max=0)


def test_match_scan_pair_recovers_motion():
    world = close_world(0)
    pose_a = Pose2(0.0, 0.0, 0.0)
    pose_b = Pose2(0.7, 0.1, 0.02)
    scan_a, scan_b = render_pair(world, pose_a, pose_b)
    pose, stats = match_scan_pair(scan_a, scan_b, CFG)
    truth = relative_pose(pose_a, pose_b)
    assert math.hypot(pose.x - truth.x, pose.y - truth.y) < 0.25
    assert abs(wrap_angle(pose.theta - truth.theta)) < math.radians(0.5)
    assert stats["n_selected"] >= 3
    assert 0.0 <= stats["mutual_compatibility"] <= 1.0
    assert 0.0 <= stats["eigengap"] <= 1.0
    assert set(stats["timings"]) >= {"describe", "match", "estimate", "extract"}


def test_match_is_symmetric_under_swap():
    # the smaller set always plays L1 internally; the reported pose must
    # keep the scan_a -> scan_b convention either way
    world = close_world(1)
    pose_b = Pose2(0.6, -0.05, 0.015)
    scan_a, scan_b = render_pair(world, Pose2(), pose_b, seed=3)
    kp_a = extract_keypoints(scan_a, CFG.l_max)
    kp_b = extract_keypoints(scan_b, CFG.l_max)
    fwd, _ = match_keypoint_sets(kp_a, kp_b, CFG)
    rev, _ = match_keypoint_sets(kp_b, kp_a, CFG)
    back = inverse(rev)
    assert math.hypot(fwd.x - back.x, fwd.y - back.y) < 0.1
    assert abs(wrap_angle(fwd.theta - back.theta)) < math.radians(0.3)


def test_unrelated_scans_raise_or_report_failure():
    scan_a = render_scan(close_world(2), Pose2(), META, QUIET, seed=0)
    scan_b = render_scan(close_world(3), Pose2(), META, QUIET, seed=1)
    try:
        _, stats = match_scan_pair(scan_a, scan_b, CFG)
    except RadarOdoError:
        return
    # a spurious solution may still fit, but it cannot look confident
    assert stats["mutual_compatibility"] < 0.999 or stats["residual_rms"] > 0.05


def test_run_odometry_accumulates_trajectory():
    world = close_world(4)
    traj = TrajectorySpec(
        poses=(Pose2(), Pose2(0.75, 0.0, 0.0), Pose2(1.5, 0.0, 0.0), Pose2(2.25, 0.0, 0.05)),
        timestamps=(0.0, 0.25, 0.5, 0.75),
    )
    scans = render_sequence(world, traj, META, QUIET, seed=10)
    result = run_odometry(scans, CFG)
    assert len(result.pairs) == 3
    assert len(result.trajectory) == 4
    assert result.trajectory[0] == Pose2()
    assert result.failure_count == 0
    rebuilt = Pose2()
    for pair, target in zip(result.pairs, result.trajectory[1:]):
        rebuilt = compose(rebuilt, pair.pose)
        assert rebuilt == target
    final = result.trajectory[-1]
    assert math.hypot(final.x - 2.25, final.y) < 0.3


def test_run_odometry_validates_input():
    world = close_world(5)
    scan = render_scan(world, Pose2(), META, QUIET, seed=0, timestamp=0.0)
    with pytest.raises(ValueError):
        run_odometry([scan], CFG)
    stale = render_scan(world, Pose2(), META, QUIET, seed=1, timestamp=0.0)
    with pytest.raises(ValueError):
        run_odometry([scan, stale], CFG)


def test_failed_pair_uses_constant_velocity_fallback():
    world = close_world(7)
    pose_step = Pose2(0.75, 0.0, 0.0)
    poses = [Pose2(), pose_step, compose(pose_step, pose_step)]
    scans = [
        render_scan(world, poses[0], META, QUIET, seed=0, timestamp=0.0),
        render_scan(world, poses[1], META, QUIET, seed=1, timestamp=0.25),
        render_scan([], poses[2], META, QUIET, seed=2, timestamp=0.5),
    ]
    result = run_odometry(scans, CFG)
    assert result.failure_count == 1
    assert result.pairs[0].failed is False
    assert result.pairs[1].failed is True
    assert result.pairs[1].failure_reason != ""
    # the substituted motion repeats the last good estimate
    p0, p1 = result.pairs[0].pose, result.pairs[1].pose
    assert math.hypot(p0.x - p1.x, p0.y - p1.y) < 1e-9


def test_positional_dt_is_ignored():
    # older callers pass the scan interval positionally; it changes nothing
    world = close_world(8)
    scan_a, scan_b = render_pair(world, Pose2(), Pose2(0.5, 0.0, 0.01), seed=30)
    kp_a = extract_keypoints(scan_a, CFG.l_max)
    kp_b = extract_keypoints(scan_b, CFG.l_max)
    pose, stats = match_keypoint_sets(kp_a, kp_b, CFG)
    pose_dt, stats_dt = match_keypoint_sets(kp_a, kp_b, CFG, 0.25)
    assert pose_dt == pose
    untimed = lambda st: {k: v for k, v in st.items() if k != "timings"}
    assert untimed(stats_dt) == untimed(stats)


def test_evaluate_computes_pairwise_error_stats():
    world = close_world(9)
    traj = TrajectorySpec(
        poses=tuple(Pose2(0.75 * k, 0.0, 0.0) for k in range(4)),
        timestamps=tuple(0.25 * k for k in range(4)),
    )
    scans = render_sequence(world, traj, META, QUIET, seed=40)
    result = run_odometry(scans, CFG)
    metrics = evaluate([p.pose for p in result.pairs], result.timestamps, traj)
    assert metrics.n_pairs == 3
    assert metrics.translation_median < 0.25
    assert metrics.rotation_median < math.radians(0.5)
    errs = []
    for k, pair in enumerate(result.pairs):
        truth = relative_pose(traj.poses[k], traj.poses[k + 1])
        errs.append(math.hypot(pair.pose.x - truth.x, pair.pose.y - truth.y))
    assert metrics.translation_median == pytest.approx(float(np.median(errs)), abs=1e-12)


def test_evaluate_rejects_mismatched_truth():
    world = close_world(9)
    traj = TrajectorySpec(
        poses=(Pose2(), Pose2(0.75, 0.0, 0.0), Pose2(1.5, 0.0, 0.0)),
        timestamps=(0.0, 0.25, 0.5),
    )
    scans = render_sequence(world, traj, META, QUIET, seed=50)
    result = run_odometry(scans, CFG)
    rel = [p.pose for p in result.pairs]
    short = TrajectorySpec(poses=traj.poses[:2], timestamps=traj.timestamps[:2])
    with pytest.raises(ValueError):
        evaluate(rel, result.timestamps, short)
    late = TrajectorySpec(poses=traj.poses, timestamps=(0.0, 0.25, 0.6))
    with pytest.raises(ValueError):
        evaluate(rel, result.timestamps, late)
    with pytest.raises(ValueError):
        evaluate([], result.timestamps[:1], TrajectorySpec(traj.poses[:1], traj.timestamps[:1]))


def test_icp_matcher_chains_like_a_reference_loop():
    # three tracked pairs, then a blank scan the ICP cannot pair with
    world = close_world(10)
    poses = [Pose2(0.6 * k, 0.0, 0.01 * k) for k in range(5)]
    scans = [
        render_scan(world if k < 4 else [], pose, META, QUIET, seed=60 + k, timestamp=0.25 * k)
        for k, pose in enumerate(poses)
    ]
    icp_cfg = IcpConfig(nn_radius=1.5)
    result = run_odometry(scans, CFG, matcher=icp_matcher(icp_cfg))

    kps = [extract_keypoints(s, CFG.l_max) for s in scans]
    trajectory, last = [Pose2()], Pose2()
    for a, b in zip(kps, kps[1:]):
        try:
            fitted, _ = icp_match(a, b, icp_cfg)
            last = inverse(fitted)
        except RadarOdoError:
            pass
        trajectory.append(compose(trajectory[-1], last))
    assert result.trajectory == tuple(trajectory)

    assert [p.failed for p in result.pairs] == [False, False, False, True]
    good, failed = result.pairs[2], result.pairs[3]
    assert failed.pose == good.pose
    assert failed.failure_reason.startswith("IcpDivergedError")
    assert set(failed.timings) == {"extract"}
    assert good.n_selected >= 3 and good.residual_rms >= 0.0
    assert set(good.timings) == {"icp", "extract"}
