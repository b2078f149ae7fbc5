import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarodo import (
    IcpConfig,
    IcpDivergedError,
    Pose2,
    SensorMeta,
    apply_pose,
    estimate_se2,
    extract_keypoints,
    icp_match,
    random_world,
    render_scan,
)
from radarodo.se2 import wrap_angle

from conftest import NOISY_ARTIFACTS, random_cloud


def dense_icp_match(src, dst, cfg):
    """Reference: the nearest target found over the full n x m distance
    tensor, otherwise the same loop as ``icp_match``."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    pose = cfg.initial_guess
    history = []
    prev_mse = None
    for iterations in range(1, cfg.max_iterations + 1):
        moved = apply_pose(pose, src)
        d2 = ((moved[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
        nn = np.argmin(d2, axis=1)
        within = d2[np.arange(src.shape[0]), nn] <= cfg.nn_radius**2
        pair_count = int(within.sum())
        if pair_count < 2:
            raise IcpDivergedError(
                f"iteration {iterations}: {pair_count} pairings within {cfg.nn_radius} m"
            )
        pose = estimate_se2(src[within], dst[nn[within]])
        resid = apply_pose(pose, src[within]) - dst[nn[within]]
        mse = float((resid**2).sum(axis=1).mean())
        history.append(mse)
        if mse == 0.0:
            break
        if prev_mse is not None and abs(prev_mse - mse) <= cfg.convergence_tol * prev_mse:
            break
        prev_mse = mse
    return pose, iterations, pair_count, tuple(history)


def outcome(match, src, dst, cfg):
    try:
        result = match(src, dst, cfg)
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)
    if match is icp_match:
        pose, diag = result
        assert diag.residual_rms == math.sqrt(diag.residual_history[-1])
        return pose, diag.iterations, diag.pair_count, diag.residual_history
    return result


def assert_same_as_dense(src, dst, cfg):
    assert outcome(icp_match, src, dst, cfg) == outcome(dense_icp_match, src, dst, cfg)


lattice_point = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=400, deadline=None)
@given(
    src=st.lists(lattice_point, min_size=1, max_size=14),
    dst=st.lists(lattice_point, min_size=1, max_size=14),
    scale=st.sampled_from([1.0, 0.1, 0.2]),
    radius_steps=st.sampled_from([1, 2, 3, 5, math.inf]),
    offset=st.sampled_from([0.0, 1e6]),
    shift=lattice_point,
    theta=st.sampled_from([0.0, 0.05]),
)
def test_windowed_search_equals_dense_on_lattices(src, dst, scale, radius_steps, offset, shift, theta):
    # lattice clouds give duplicate targets, exact distance ties and targets
    # exactly nn_radius away; a whole-step shift keeps the first iteration
    # on the lattice
    src = np.array(src) * scale + offset
    dst = np.array(dst) * scale + offset
    guess = Pose2(shift[0] * scale, shift[1] * scale, theta)
    cfg = IcpConfig(nn_radius=radius_steps * scale, initial_guess=guess, max_iterations=8)
    assert_same_as_dense(src, dst, cfg)


@pytest.mark.parametrize("steps", [5, 7])
@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("scale", [1.0, 0.1, 0.2])
def test_windowed_search_keeps_targets_exactly_at_the_radius(scale, offset, steps):
    # one source point per row, x from -7 to 7 steps; targets exactly
    # nn_radius away along x, along y and (5 steps) on a 3-4-5 diagonal,
    # one ring at a time and all together. At scale 0.1, qx - nn_radius
    # rounds past some of the targets on x.
    src = np.array([[i, 30 * row] for row, i in enumerate(range(-7, 8))])
    rings = [[steps, 0], [-steps, 0], [0, steps], [0, -steps], [steps + 1, 0]]
    if steps == 5:
        rings += [[3, 4], [-4, -3]]
    for ring in [[r] for r in rings] + [rings]:
        dst = (src[:, None, :] + np.array(ring)[None, :, :]).reshape(-1, 2)
        for radius in (steps * scale, np.nextafter(steps * scale, 0), math.inf):
            for max_iterations in (1, 50):
                cfg = IcpConfig(nn_radius=radius, max_iterations=max_iterations)
                assert_same_as_dense(src * scale + offset, dst * scale + offset, cfg)


def test_windowed_search_with_a_single_target():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
    for target in ([[0.5, 0.5]], [[2.0, 0.0]], [[50.0, 0.0]]):
        for radius in (1.0, 2.0, math.inf):
            assert_same_as_dense(src, np.array(target), IcpConfig(nn_radius=radius))


@pytest.fixture(scope="module")
def noisy_pair(noisy_keypoints):
    """Two noisy 400x500 keypoint sets of one world, 0.75 m apart."""
    meta = SensorMeta(num_azimuths=400, num_range_bins=500, range_resolution=0.2, scan_period=0.25)
    world = random_world(120, 80.0, seed=0, min_range=6.0, min_separation=3.0)
    scan = render_scan(world, Pose2(0.75, 0.05, 0.02), meta, NOISY_ARTIFACTS, seed=201)
    return noisy_keypoints, extract_keypoints(scan, 600)


@pytest.mark.parametrize("guess", [Pose2(), Pose2(-0.7, 0.0, -0.02)])
@pytest.mark.parametrize("swap", [False, True])
def test_windowed_search_equals_dense_on_noisy_scans(noisy_pair, guess, swap):
    a, b = noisy_pair[::-1] if swap else noisy_pair
    assert_same_as_dense(a.xy, b.xy, IcpConfig(initial_guess=guess))


def test_pairing_radius_is_inclusive_and_ties_go_to_the_lowest_target_index():
    # (0, 0) is exactly 5 m from targets 0-2; target 2 is first in x
    src = np.array([[0.0, 0.0], [10.0, 0.0]])
    dst = np.array([[3.0, 4.0], [-3.0, -4.0], [-5.0, 0.0], [10.0, 0.0]])
    pose, diag = icp_match(src, dst, IcpConfig(nn_radius=5.0, max_iterations=1))
    assert diag.pair_count == 2
    assert pose == estimate_se2(src, dst[[0, 3]])
    with pytest.raises(IcpDivergedError, match="1 pairings"):
        icp_match(src, dst, IcpConfig(nn_radius=np.nextafter(5.0, 0.0), max_iterations=1))


def test_nan_target_raises():
    # malformed input, as for the spectral matcher: not a divergence
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    dst = np.vstack([src, [[np.nan, 0.0]]])
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        icp_match(src, dst)


def test_points_beyond_the_pipeline_bound_raise():
    # both sets are checked before the empty-set check; a NaN in either set
    # is a point beyond the bound too
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    far = np.vstack([src, [[1e200, 0.0]]])
    nan = np.vstack([src, [[np.nan, 0.0]]])
    empty = np.zeros((0, 2))
    for s, d in ((far, src), (src, far), (nan, src), (far, nan), (empty, nan), (far, empty)):
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            icp_match(s, d)


def test_config_validation():
    with pytest.raises(ValueError):
        IcpConfig(nn_radius=0.0)
    with pytest.raises(ValueError):
        IcpConfig(convergence_tol=0.0)
    # nn_radius**2 must not overflow: 1e155**2 does, 1e154**2 does not
    for bad in (1e155, 1e200):
        with pytest.raises(ValueError, match="nn_radius"):
            IcpConfig(nn_radius=bad)
    assert IcpConfig(nn_radius=1e154).nn_radius == 1e154
    for bad in (0, -3, 2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError):
            IcpConfig(max_iterations=bad)
    assert IcpConfig(max_iterations=np.int64(3)).max_iterations == 3


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


def test_residuals_near_the_coordinate_bound_stay_finite():
    # 200 points on a circle of radius 2**509 paired with two targets at
    # (+-2**509, 0): the raw sum of squared residuals overflows (a warning,
    # an error under the test filter); scaled, every mean square is finite
    # and 2**1000 times that of the same scene at 2**9
    t = np.arange(200) * (2 * math.pi / 200)
    src = np.column_stack([np.cos(t), np.sin(t)]) * 2.0**9
    dst = np.array([[2.0**9, 0.0], [-(2.0**9), 0.0]])
    cfg = IcpConfig(nn_radius=math.inf)
    pose, diag = icp_match(src * 2.0**500, dst * 2.0**500, cfg)
    small_pose, small_diag = icp_match(src, dst, cfg)
    assert np.all(np.isfinite(diag.residual_history))
    assert diag.residual_history == tuple(h * 2.0**1000 for h in small_diag.residual_history)
    assert diag.residual_rms == small_diag.residual_rms * 2.0**500
    assert pose.theta == small_pose.theta
