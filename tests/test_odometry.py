import gc
import math
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

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
    odometry_pairs,
    random_world,
    relative_pose,
    render_scan,
    render_sequence,
    run_odometry,
)
from radarodo import odometry
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
    for kwargs in ({"l_max": 0}, {"l_max": 2.5}, {"l_max": math.nan}, {"l_max": True},
                   {"alpha": 0}, {"rho": -2}, {"alpha": 2.5}, {"rho": True},
                   {"sigma_c": -1.0}, {"sigma_c": 0.0}, {"sigma_c": math.nan},
                   {"sigma_c": math.inf}, {"sigma_c": 1e155}, {"sigma_c": 1e-200}):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)
    PipelineConfig(l_max=np.int64(5), alpha=1, rho=np.int64(3), sigma_c=np.float64(0.1))
    # the compatibility kernel's own bounds
    PipelineConfig(sigma_c=2.0**-511)
    PipelineConfig(sigma_c=2.0**511)


def test_a_scan_pair_recovers_motion():
    world = close_world(0)
    pose_a = Pose2(0.0, 0.0, 0.0)
    pose_b = Pose2(0.7, 0.1, 0.02)
    pair = run_odometry(render_pair(world, pose_a, pose_b), CFG).pairs[0]
    truth = relative_pose(pose_a, pose_b)
    pose = pair.pose
    assert math.hypot(pose.x - truth.x, pose.y - truth.y) < 0.25
    assert abs(wrap_angle(pose.theta - truth.theta)) < math.radians(0.5)
    assert pair.n_selected >= 3
    assert 0.0 <= pair.mutual_compatibility <= 1.0
    assert 0.0 <= pair.eigengap <= 1.0
    assert set(pair.timings) == {"describe", "match", "estimate", "extract"}


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
    scan_b = render_scan(close_world(3), Pose2(), META, QUIET, seed=1, timestamp=META.scan_period)
    pair = run_odometry([scan_a, scan_b], CFG).pairs[0]
    # a spurious solution may still fit, but it cannot look confident
    assert pair.failed or pair.mutual_compatibility < 0.999 or pair.residual_rms > 0.05


def test_run_odometry_accumulates_trajectory():
    world = close_world(4)
    traj = TrajectorySpec(
        poses=(Pose2(), Pose2(0.75, 0.0, 0.0), Pose2(1.5, 0.0, 0.0), Pose2(2.25, 0.0, 0.05)),
        timestamps=(0.0, 0.25, 0.5, 0.75),
    )
    scans = render_sequence(world, traj, META, QUIET, seed=10)
    result = run_odometry(scans, CFG)
    assert [f.name for f in fields(result)] == ["pairs", "trajectory"]
    assert len(result.pairs) == 3
    assert isinstance(result.trajectory, TrajectorySpec)
    assert np.array_equal(result.trajectory.timestamps, [s.timestamp for s in scans])
    poses = result.trajectory.poses
    assert len(poses) == 4
    assert poses[0] == Pose2()
    assert result.failure_count == 0
    rebuilt = Pose2()
    for pair, target in zip(result.pairs, poses[1:]):
        rebuilt = compose(rebuilt, pair.pose)
        assert rebuilt == target
    final = poses[-1]
    assert math.hypot(final.x - 2.25, final.y) < 0.3


def test_run_odometry_validates_input():
    world = close_world(5)
    scan = render_scan(world, Pose2(), META, QUIET, seed=0, timestamp=0.0)
    with pytest.raises(ValueError, match="need at least 2 scans"):
        run_odometry([scan], CFG)
    stale = render_scan(world, Pose2(), META, QUIET, seed=1, timestamp=0.0)
    with pytest.raises(ValueError, match="scan timestamps must be strictly increasing"):
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
    assert result.pairs[1].pose == result.pairs[0].pose


def counting_feed(scans):
    """A one-pass feed of ``scans`` and a list holding how many were read."""
    pulled = [0]

    def feed():
        for scan in scans:
            pulled[0] += 1
            yield scan

    return feed(), pulled


def test_odometry_pairs_yields_each_pair_when_its_second_scan_is_read():
    world = close_world(6)
    traj = TrajectorySpec(
        poses=tuple(Pose2(0.5 * k, 0.0, 0.0) for k in range(4)),
        timestamps=tuple(0.25 * k for k in range(4)),
    )
    feed, pulled = counting_feed(render_sequence(world, traj, META, QUIET, seed=20))
    pairs = odometry_pairs(feed, CFG)
    assert pulled[0] == 0
    for k in range(3):
        next(pairs)
        assert pulled[0] == k + 2
    with pytest.raises(StopIteration):
        next(pairs)
    assert pulled[0] == 4


def test_run_odometry_reads_a_one_shot_feed_once_with_one_earlier_scan_alive():
    world = close_world(6)
    refs, alive = [], []

    def render_lazily():
        for k in range(8):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            scan = render_scan(world, Pose2(0.5 * k, 0.0, 0.0), META, QUIET, seed=k,
                               timestamp=0.25 * k)
            refs.append(weakref.ref(scan))
            yield scan

    feed, pulled = counting_feed(render_lazily())
    result = run_odometry(feed, CFG)
    assert pulled[0] == 8 and len(result.pairs) == 7
    # the scan before the one being read may still be alive, no earlier one
    assert len(alive) == 8 and max(alive) <= 1
    assert np.array_equal(result.trajectory.timestamps, [0.25 * k for k in range(8)])


def test_odometry_pairs_equal_run_odometry_pairs_with_a_failed_middle_pair():
    # the blank-scan setup of the fallback test, with one more good scan
    world = close_world(7)
    pose_step = Pose2(0.75, 0.0, 0.0)
    poses = [Pose2(), pose_step, compose(pose_step, pose_step)]
    scans = [
        render_scan(world, poses[0], META, QUIET, seed=0, timestamp=0.0),
        render_scan(world, poses[1], META, QUIET, seed=1, timestamp=0.25),
        render_scan([], poses[2], META, QUIET, seed=2, timestamp=0.5),
        render_scan(world, poses[1], META, QUIET, seed=3, timestamp=0.75),
    ]
    fed = list(odometry_pairs(iter(scans), CFG))
    ran = run_odometry(scans, CFG).pairs
    assert [p.failed for p in fed] == [False, True, True]
    assert fed[1].pose == fed[2].pose == fed[0].pose
    assert len(fed) == len(ran)
    for a, b in zip(fed, ran):
        for f in fields(a):
            if f.name == "timings":
                # wall-clock values; the stages charged are the same
                assert a.timings.keys() == b.timings.keys()
            else:
                assert getattr(a, f.name) == getattr(b, f.name), f.name


def test_odometry_pairs_checks_each_timestamp_against_the_one_before():
    world = close_world(6)
    scans = [render_scan(world, Pose2(0.5 * k, 0.0, 0.0), META, QUIET, seed=k,
                         timestamp=0.25 * k) for k in range(3)]
    # a stale scan that could not be extracted: the order check comes first
    stale = SimpleNamespace(timestamp=0.25)
    pairs = odometry_pairs(scans + [stale], CFG)
    next(pairs)
    next(pairs)
    with pytest.raises(ValueError, match="scan timestamps must be strictly increasing"):
        next(pairs)


@pytest.mark.parametrize("method", ["spectral", "icp"])
def test_odometry_pairs_refuses_a_scan_of_another_geometry_before_extracting_it(method):
    world = close_world(6)
    scans = [render_scan(world, Pose2(0.5 * k, 0.0, 0.0), META, QUIET, seed=k,
                         timestamp=0.25 * k) for k in range(2)]
    # a scan that could not be extracted: the geometry check comes first
    odd = SimpleNamespace(timestamp=0.5, meta=replace(META, num_range_bins=160))
    pairs = odometry_pairs(scans + [odd], CFG, icp_matcher() if method == "icp" else None)
    next(pairs)
    with pytest.raises(ValueError, match="scans differ in sensor geometry"):
        next(pairs)


def test_match_keypoint_sets_refuses_sets_of_different_geometry():
    scan_a, scan_b = render_pair(close_world(8), Pose2(), Pose2(0.5, 0.0, 0.01), seed=30)
    kp_a = extract_keypoints(scan_a, CFG.l_max)
    kp_b = extract_keypoints(scan_b, CFG.l_max)
    for field_name, value in (("num_range_bins", 160), ("range_resolution", 0.4)):
        odd = replace(kp_b, meta=replace(META, **{field_name: value}))
        for pair in ((kp_a, odd), (odd, kp_a)):
            with pytest.raises(ValueError, match="scans differ in sensor geometry"):
                match_keypoint_sets(*pair, CFG)
    # refused before either set was described
    assert kp_a.descriptor_cache == {}


def test_odometry_pairs_of_a_one_scan_feed_is_empty():
    scan = render_scan(close_world(5), Pose2(), META, QUIET, seed=0, timestamp=0.0)
    assert list(odometry_pairs([scan], CFG)) == []
    assert list(odometry_pairs([], CFG)) == []
    for scans in ([scan], [], iter([]), (s for s in [scan])):
        with pytest.raises(ValueError, match="need at least 2 scans"):
            run_odometry(scans, CFG)


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
    metrics = evaluate(result.trajectory, traj)
    assert list(metrics) == [
        "n_pairs", "translation_median_m", "translation_std_m",
        "rotation_median_deg", "rotation_std_deg",
    ]
    assert metrics["n_pairs"] == 3
    assert metrics["translation_median_m"] < 0.25
    assert metrics["rotation_median_deg"] < 0.5
    errs = []
    for k, pair in enumerate(result.pairs):
        truth = relative_pose(traj.poses[k], traj.poses[k + 1])
        errs.append(math.hypot(pair.pose.x - truth.x, pair.pose.y - truth.y))
    assert metrics["translation_median_m"] == pytest.approx(float(np.median(errs)), abs=1e-12)


def test_evaluate_rejects_mismatched_truth():
    world = close_world(9)
    traj = TrajectorySpec(
        poses=(Pose2(), Pose2(0.75, 0.0, 0.0), Pose2(1.5, 0.0, 0.0)),
        timestamps=(0.0, 0.25, 0.5),
    )
    scans = render_sequence(world, traj, META, QUIET, seed=50)
    result = run_odometry(scans, CFG)
    short = TrajectorySpec(poses=traj.poses[:2], timestamps=traj.timestamps[:2])
    with pytest.raises(ValueError, match="length"):
        evaluate(result.trajectory, short)
    late = TrajectorySpec(poses=traj.poses, timestamps=(0.0, 0.25, 0.6))
    with pytest.raises(ValueError, match="timestamps"):
        evaluate(result.trajectory, late)
    one = TrajectorySpec(traj.poses[:1], traj.timestamps[:1])
    first = TrajectorySpec(result.trajectory.poses[:1], result.trajectory.timestamps[:1])
    with pytest.raises(ValueError, match="at least 2"):
        evaluate(first, one)


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
    assert result.trajectory.poses == tuple(trajectory)

    assert [p.failed for p in result.pairs] == [False, False, False, True]
    good, failed = result.pairs[2], result.pairs[3]
    assert failed.pose == good.pose
    assert failed.failure_reason.startswith("IcpDivergedError")
    assert set(failed.timings) == {"icp", "extract"}
    assert good.n_selected >= 3 and good.residual_rms >= 0.0
    assert set(good.timings) == {"icp", "extract"}
    # ICP reports no candidates or confidences, so those keep their defaults
    for p in result.pairs:
        assert p.u == 0
        assert p.eigengap == p.mutual_compatibility == 0.0


SCALE = 2.0**503


def scaled_scene(k):
    """One 64 x 200 scene with every length times ``k``; at 2**503 the range
    reaches 2.6e153 and the keypoints 2.5e153, inside the 2**510 bound."""
    meta = SensorMeta(64, 200, 0.5 * k, 0.25)
    world = random_world(40, 90.0 * k, seed=13, min_range=8.0 * k, min_separation=4.0 * k)
    poses = [Pose2(), Pose2(1.5 * k, 0.2 * k, 0.03), Pose2(3.0 * k, 0.5 * k, 0.07)]
    return [render_scan(world, pose, meta, QUIET, seed=90 + i, timestamp=0.25 * i)
            for i, pose in enumerate(poses)]


@pytest.mark.parametrize("method", ["spectral", "icp"])
def test_a_scene_scaled_to_the_coordinate_bound_scales_its_poses_exactly(method):
    def run(k):
        matcher = icp_matcher(IcpConfig(nn_radius=2.0 * k)) if method == "icp" else None
        return run_odometry(scaled_scene(k), CFG, matcher=matcher)

    small, big = run(1.0), run(SCALE)
    assert small.failure_count == big.failure_count == 0
    for p, q in zip(small.pairs, big.pairs):
        assert q.pose.theta == p.pose.theta
        assert (q.pose.x, q.pose.y) == (p.pose.x * SCALE, p.pose.y * SCALE)


def test_a_matcher_stat_that_is_not_a_pair_field_is_a_type_error():
    world = close_world(12)
    scans = [
        render_scan(world, Pose2(0.6 * k, 0.0, 0.0), META, QUIET, seed=80 + k, timestamp=0.25 * k)
        for k in range(2)
    ]

    def matcher(kp_a, kp_b):
        return Pose2(), {"n_selected": 2, "inliers": 2}

    with pytest.raises(TypeError, match="inliers"):
        run_odometry(scans, CFG, matcher=matcher)


def test_a_pair_failed_exactly_when_it_has_a_failure_reason():
    assert "failed" not in {f.name for f in fields(odometry.PairResult)}
    with pytest.raises(TypeError, match="failed"):
        odometry.PairResult(Pose2(), failed=True)
    world = close_world(7)
    scans = [
        render_scan(world if k < 2 else [], Pose2(0.75 * k, 0.0, 0.0), META, QUIET, seed=k,
                    timestamp=0.25 * k)
        for k in range(3)
    ]
    matched, failed = run_odometry(scans, CFG).pairs
    assert (matched.failed, failed.failed) == (False, True)
    for p in (matched, failed):
        assert p.failed == bool(p.failure_reason)
    # a matcher cannot set it either: like any key that is not a field
    with pytest.raises(TypeError, match="failed"):
        run_odometry(scans, CFG, matcher=lambda kp_a, kp_b: (Pose2(), {"failed": True}))


def test_a_pair_failing_mid_match_reports_the_stages_it_passed():
    # a blank scan mid-sequence has no keypoints, so describing finds no
    # candidate; both pairs touching it still report their describe time
    world = close_world(11)
    scans = [
        render_scan(world if k != 2 else [], Pose2(0.6 * k, 0.0, 0.0), META, QUIET,
                    seed=70 + k, timestamp=0.25 * k)
        for k in range(4)
    ]
    result = run_odometry(scans, CFG)
    assert [p.failed for p in result.pairs] == [False, True, True]
    for p in result.pairs[1:]:
        assert p.pose == result.pairs[0].pose
        assert p.failure_reason.startswith("NoCandidatesError")
        assert set(p.timings) == {"describe", "extract"}
        assert p.u == 0 and p.n_selected == 0
    assert set(result.pairs[0].timings) == {"describe", "match", "estimate", "extract"}


def test_a_match_failure_keeps_its_candidate_and_selection_counts(monkeypatch):
    world = close_world(12)
    scans = [
        render_scan(world, Pose2(0.6 * k, 0.0, 0.0), META, QUIET, seed=80 + k, timestamp=0.25 * k)
        for k in range(3)
    ]
    matched = run_odometry(scans, CFG)
    assert matched.failure_count == 0

    real_select = odometry.greedy_select

    def select_one(c, solution, unary):
        selection = real_select(c, solution, unary)
        return replace(selection, selected=selection.selected[:1])

    monkeypatch.setattr(odometry, "greedy_select", select_one)
    result = run_odometry(scans, CFG)
    assert result.failure_count == 2
    for good, failed in zip(matched.pairs, result.pairs):
        # no pair before it succeeded, so each carries the identity
        assert failed.pose == Pose2()
        assert failed.failure_reason == "MatchFailureError: fewer than 2 matches selected"
        assert failed.u == good.u > 0
        assert failed.n_selected == 1
        assert set(failed.timings) == {"describe", "match", "extract"}
