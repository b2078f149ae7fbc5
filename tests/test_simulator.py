import math

import numpy as np
import pytest

from radarodo import (
    ArtifactModel,
    Landmark,
    Pose2,
    SensorMeta,
    TrajectorySpec,
    make_trajectory,
    random_world,
    render_scan,
    render_sequence,
)
from radarodo.scan import bins_to_points

QUIET = ArtifactModel(
    speckle_scale=0.0, background_noise=0.0, false_positive_rate=0.0, dropout_prob=0.0
)
META = SensorMeta(64, 80, 0.5, 0.25)


def test_landmark_validation():
    with pytest.raises(ValueError):
        Landmark(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        Landmark(np.zeros(2), 0.0)


def test_artifact_model_validation():
    with pytest.raises(ValueError):
        ArtifactModel(speckle_scale=-0.1)
    with pytest.raises(ValueError):
        ArtifactModel(dropout_prob=1.5)
    with pytest.raises(ValueError):
        ArtifactModel(beam_width_azimuths=0.0)
    for field in ("speckle_scale", "background_noise", "false_positive_rate", "dropout_prob",
                  "beam_width_azimuths", "range_spread_bins"):
        with pytest.raises(ValueError):
            ArtifactModel(**{field: math.nan})
    # the gamma shape 1 / speckle_scale**2 must be finite and nonzero
    for bad in (1e-200, 1e-155, 1e155, 1e200, math.inf):
        with pytest.raises(ValueError, match="speckle_scale"):
            ArtifactModel(speckle_scale=bad)
    for ok in (1e-154, 1e154):
        assert ArtifactModel(speckle_scale=ok).speckle_scale == ok


def test_trajectory_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(poses=(Pose2(), Pose2()), timestamps=(0.0, 0.0))
    with pytest.raises(ValueError):
        TrajectorySpec(poses=(Pose2(),), timestamps=(0.0, 1.0))
    # np.diff of (0, inf) is inf > 0, so finiteness needs its own check
    for ts in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (math.nan,), (math.inf,)):
        poses = tuple(Pose2(float(k), 0.0, 0.0) for k in range(len(ts)))
        with pytest.raises(ValueError, match="timestamps must be finite"):
            TrajectorySpec(poses=poses, timestamps=ts)


def test_records_holding_arrays_compare_and_hash_by_identity():
    for make in (lambda: make_trajectory("straight", 3), lambda: Landmark([1.0, 2.0])):
        a, b = make(), make()
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_trajectory_spec_iterates_over_its_poses():
    traj = make_trajectory("arc", 4, speed=2.0, yaw_rate=0.3, dt=0.25)
    assert tuple(traj) == traj.poses and len(traj) == 4


def test_landmarks_at_the_range_edges_stamp_the_first_and_last_bins():
    meta = SensorMeta(16, 8, 1.0, 0.25)
    for rng_m, last in ((1e-9, 0), (7.999999, 7)):
        scan = render_scan([Landmark(np.array([rng_m, 0.0]))], Pose2(), meta, QUIET)
        assert scan.power[0, last] > 0.0


def test_single_landmark_peaks_at_its_bin():
    world = [Landmark(np.array([10.25, 0.0]), 1.0)]
    scan = render_scan(world, Pose2(), META, QUIET, seed=0)
    a, r = np.unravel_index(np.argmax(scan.power), scan.power.shape)
    # 10.25 m east sits at azimuth 0, bin center (20 + 0.5) * 0.5
    assert a == 0
    assert r == 20
    back = bins_to_points(a, r, META)
    assert math.hypot(back[0] - 10.25, back[1]) < META.range_resolution


def test_blob_amplitude_tracks_reflectivity():
    w1 = [Landmark(np.array([10.25, 0.0]), 1.0)]
    w2 = [Landmark(np.array([10.25, 0.0]), 2.5)]
    s1 = render_scan(w1, Pose2(), META, QUIET, seed=0)
    s2 = render_scan(w2, Pose2(), META, QUIET, seed=0)
    assert np.allclose(s2.power, 2.5 * s1.power, atol=1e-12)


def test_pose_moves_the_world_into_sensor_frame():
    world = [Landmark(np.array([10.0, 5.0]), 1.0)]
    pose = Pose2(4.0, 5.0, 0.0)
    scan = render_scan(world, pose, META, QUIET, seed=0)
    a, r = np.unravel_index(np.argmax(scan.power), scan.power.shape)
    back = bins_to_points(a, r, META)
    # relative position should be (6, 0)
    assert math.hypot(back[0] - 6.0, back[1] - 0.0) <= META.range_resolution


def test_azimuth_wrap_stamps_both_seam_rows():
    # just below the 2*pi seam: energy must land on both row m-1 and row 0
    angle = 2 * math.pi * (META.num_azimuths - 0.4) / META.num_azimuths
    pos = 12.0 * np.array([math.cos(angle), math.sin(angle)])
    scan = render_scan([Landmark(pos, 1.0)], Pose2(), META, QUIET, seed=0)
    assert scan.power[META.num_azimuths - 1].max() > 0
    assert scan.power[0].max() > 0


def test_landmark_beyond_max_range_is_invisible():
    world = [Landmark(np.array([META.max_range + 1.0, 0.0]), 1.0)]
    scan = render_scan(world, Pose2(), META, QUIET, seed=0)
    assert scan.power.max() == 0.0


def test_render_deterministic_per_seed():
    world = random_world(20, 30.0, seed=5)
    art = ArtifactModel(speckle_scale=0.3, background_noise=0.05, false_positive_rate=5.0)
    s1 = render_scan(world, Pose2(1.0, 2.0, 0.3), META, art, seed=9)
    s2 = render_scan(world, Pose2(1.0, 2.0, 0.3), META, art, seed=9)
    s3 = render_scan(world, Pose2(1.0, 2.0, 0.3), META, art, seed=10)
    assert np.array_equal(s1.power, s2.power)
    assert not np.array_equal(s1.power, s3.power)


def test_false_positive_rate_adds_energy_on_average():
    world = random_world(10, 25.0, seed=1)
    lo = hi = 0.0
    for seed in range(15):
        a = ArtifactModel(speckle_scale=0.0, background_noise=0.0, false_positive_rate=1.0)
        b = ArtifactModel(speckle_scale=0.0, background_noise=0.0, false_positive_rate=12.0)
        lo += render_scan(world, Pose2(), META, a, seed=seed).power.sum()
        hi += render_scan(world, Pose2(), META, b, seed=seed).power.sum()
    assert hi > lo


def test_speckle_preserves_mean_power():
    world = random_world(30, 30.0, seed=2)
    clean = render_scan(world, Pose2(), META, QUIET, seed=0)
    spk = ArtifactModel(speckle_scale=0.4, background_noise=0.0, false_positive_rate=0.0)
    noisy = render_scan(world, Pose2(), META, spk, seed=0)
    assert noisy.power.mean() == pytest.approx(clean.power.mean(), rel=0.1)
    assert not np.array_equal(noisy.power, clean.power)


def test_full_dropout_leaves_no_landmark_energy():
    world = random_world(10, 25.0, seed=3)
    art = ArtifactModel(
        speckle_scale=0.0, background_noise=0.0, false_positive_rate=0.0, dropout_prob=1.0
    )
    scan = render_scan(world, Pose2(), META, art, seed=0)
    assert scan.power.max() == 0.0


def test_straight_trajectory_positions():
    traj = make_trajectory("straight", 5, speed=2.0, dt=0.5)
    assert len(traj) == 5
    for k, p in enumerate(traj.poses):
        assert p.x == pytest.approx(k * 1.0)
        assert p.y == 0.0
        assert p.theta == 0.0
    assert tuple(traj.timestamps) == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_arc_trajectory_turns_at_yaw_rate():
    traj = make_trajectory("arc", 9, speed=1.0, yaw_rate=0.25, dt=0.5)
    assert traj.poses[-1].theta == pytest.approx(0.25 * 8 * 0.5)
    radius = 1.0 / 0.25
    for p in traj.poses:
        # circle center is (0, radius) for a left turn starting along +x
        assert math.hypot(p.x, p.y - radius) == pytest.approx(radius, abs=1e-9)


def test_random_walk_trajectory_is_reproducible():
    t1 = make_trajectory("random_walk", 8, speed=2.0, yaw_rate=0.3, dt=0.25, seed=4)
    t2 = make_trajectory("random_walk", 8, speed=2.0, yaw_rate=0.3, dt=0.25, seed=4)
    assert t1.poses == t2.poses
    assert all(b > a for a, b in zip(t1.timestamps, t1.timestamps[1:]))


def test_make_trajectory_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_trajectory("zigzag", 5)


@pytest.mark.parametrize("steps, dt", [(2.5, 1.0), (True, 1.0), (0, 1.0), (np.int64(0), 1.0),
                                      (3, 0.0), (3, -1.0), (3, math.inf), (3, math.nan)])
def test_make_trajectory_rejects_a_step_count_or_period_it_cannot_honour(steps, dt):
    # a float or bool step count is no count, and an infinite period would
    # make 0 * inf a NaN timestamp
    with pytest.raises(ValueError, match="steps" if dt == 1.0 else "dt"):
        make_trajectory("straight", steps, dt=dt)
    assert len(make_trajectory("arc", np.int64(3), yaw_rate=0.1, dt=0.5)) == 3


@pytest.mark.parametrize("kind", ["straight", "arc", "random_walk"])
@pytest.mark.parametrize("steps, speed, dt", [(3, 1.0, 1e308), (3, 1e300, 1e10), (10**6, 1.0, 1e303),
                                               pytest.param(10**400, 1.0, 1.0, id="10**400-1.0-1.0")])
def test_make_trajectory_refuses_a_period_whose_times_or_distances_overflow(kind, steps, speed, dt):
    # a finite period can still carry the last timestamp or distance past
    # the float maximum, and so can a step count too large for a float; it
    # is refused before any array is made
    with pytest.raises(ValueError, match="dt"):
        make_trajectory(kind, steps, speed=speed, yaw_rate=0.1, dt=dt)
    # one step has no span, so any finite period fits
    assert make_trajectory(kind, 1, speed=speed, yaw_rate=0.1, dt=dt).timestamps.tolist() == [0.0]


def test_an_arc_without_yaw_rate_is_the_straight_path():
    straight = make_trajectory("straight", 6, speed=2.0, dt=0.5)
    for yaw_rate in (0.0, 1e-13, -1e-13):
        assert make_trajectory("arc", 6, speed=2.0, yaw_rate=yaw_rate, dt=0.5).poses == straight.poses


def test_random_world_respects_bounds():
    world = random_world(40, 30.0, seed=6, min_range=5.0, min_separation=2.0)
    assert len(world) == 40
    pos = np.array([lm.position for lm in world])
    r = np.hypot(pos[:, 0], pos[:, 1])
    assert r.min() >= 5.0
    assert np.abs(pos).max() <= 30.0
    d = np.hypot(pos[:, 0:1] - pos[None, :, 0], pos[:, 1:2] - pos[None, :, 1])
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 2.0


def test_random_world_rejects_a_negative_landmark_count():
    with pytest.raises(ValueError, match="n_landmarks"):
        random_world(-1, 30.0)
    assert random_world(0, 30.0) == []


@pytest.mark.parametrize("extent", [math.nan, 1e308, 8e307, pytest.param(10**400, id="int-1e400")])
def test_random_world_rejects_an_extent_it_cannot_place_landmarks_in(extent):
    # NaN is not greater than min_range; 4 * 8e307 overflows, so some
    # landmark distance could too; float(10**400) overflows
    with pytest.raises(ValueError, match="extent"):
        random_world(3, extent, min_separation=1.0)
    assert len(random_world(3, 4e307, min_separation=1.0)) == 3


@pytest.mark.parametrize("n", [2.5, True, False, "3"])
def test_random_world_rejects_a_landmark_count_that_is_not_an_int(n):
    # 2.5 would place 3 landmarks and True 1; False equals 0 but is no count
    with pytest.raises(ValueError, match="n_landmarks"):
        random_world(n, 30.0)
    assert len(random_world(np.int64(2), 30.0)) == 2


def test_random_world_reports_landmarks_it_cannot_place():
    with pytest.raises(ValueError, match="could not place landmarks"):
        random_world(2, 5.0, min_range=1.0, min_separation=100.0)


def test_render_sequence_matches_trajectory():
    world = random_world(15, 25.0, seed=7)
    traj = make_trajectory("straight", 4, speed=2.0, dt=0.25)
    scans = render_sequence(world, traj, META, QUIET, seed=20)
    assert len(scans) == 4
    assert tuple(s.timestamp for s in scans) == tuple(traj.timestamps)
    again = render_sequence(world, traj, META, QUIET, seed=20)
    for s1, s2 in zip(scans, again):
        assert np.array_equal(s1.power, s2.power)
