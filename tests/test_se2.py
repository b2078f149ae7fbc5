import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from radarodo import (
    DegenerateGeometryError,
    Pose2,
    UnderdeterminedError,
    apply_pose,
    compose,
    estimate_se2,
    inverse,
    relative_pose,
)
from radarodo.se2 import wrap_angle

from conftest import random_cloud, random_pose


def test_wrap_angle_interval_convention():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-3 * math.pi) == pytest.approx(math.pi)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_angle_is_equivalent_angle_in_half_open_interval(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)


def test_pose_wraps_theta():
    p = Pose2(1.0, 2.0, 5.0)
    assert -math.pi < p.theta <= math.pi
    assert p.theta == pytest.approx(5.0 - 2 * math.pi)


def test_compose_with_identity():
    p = Pose2(1.0, -2.0, 0.7)
    e = Pose2()
    assert compose(p, e) == p
    assert compose(e, p) == p


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_pose(rng)
        q = compose(p, inverse(p))
        assert abs(q.x) < 1e-12
        assert abs(q.y) < 1e-12
        assert abs(q.theta) < 1e-12


def test_relative_pose_recovers_step():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_pose(rng)
        step = random_pose(rng)
        b = compose(a, step)
        rel = relative_pose(a, b)
        assert rel.x == pytest.approx(step.x, abs=1e-9)
        assert rel.y == pytest.approx(step.y, abs=1e-9)
        assert rel.theta == pytest.approx(step.theta, abs=1e-12)


def test_apply_pose_known_values():
    p = Pose2(1.0, 2.0, math.pi / 2)
    out = apply_pose(p, [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(out, [[1.0, 3.0], [0.0, 2.0]], atol=1e-12)


def test_apply_pose_compose_consistency():
    rng = np.random.default_rng(2)
    a, b = random_pose(rng), random_pose(rng)
    pts = random_cloud(rng, 15)
    lhs = apply_pose(compose(a, b), pts)
    rhs = apply_pose(a, apply_pose(b, pts))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_estimate_exact_recovery():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pose = random_pose(rng)
        src = random_cloud(rng, rng.integers(2, 40))
        dst = apply_pose(pose, src)
        est = estimate_se2(src, dst)
        assert abs(est.x - pose.x) < 1e-9
        assert abs(est.y - pose.y) < 1e-9
        assert abs(wrap_angle(est.theta - pose.theta)) < 1e-9


def test_estimate_never_reflects():
    # mirrored targets must come back as a proper rotation, not a flip
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    dst = src * np.array([1.0, -1.0])
    est = estimate_se2(src, dst)
    r = est.rotation
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_estimate_requires_two_points():
    with pytest.raises(UnderdeterminedError):
        estimate_se2(np.zeros((1, 2)), np.zeros((1, 2)))


def test_estimate_rejects_coincident_sources():
    src = np.ones((4, 2))
    dst = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateGeometryError):
        estimate_se2(src, dst)


def _sse(pose, src, dst):
    diff = apply_pose(pose, src) - dst
    return float(np.sum(diff * diff))


def test_noisy_estimate_beats_rotation_grid_search():
    # closed form must not lose to a brute-force search over theta with
    # the optimal translation recomputed per candidate angle
    rng = np.random.default_rng(4)
    thetas = np.linspace(-math.pi, math.pi, 2001)
    for _ in range(20):
        pose = random_pose(rng)
        src = random_cloud(rng, 30)
        dst = apply_pose(pose, src) + rng.normal(0.0, 0.3, size=(30, 2))
        est = estimate_se2(src, dst)
        mu_s = src.mean(axis=0)
        mu_d = dst.mean(axis=0)
        best = math.inf
        best_theta = None
        for th in thetas:
            c, s = math.cos(th), math.sin(th)
            r = np.array([[c, -s], [s, c]])
            t = mu_d - r @ mu_s
            cand = Pose2(t[0], t[1], th)
            v = _sse(cand, src, dst)
            if v < best:
                best, best_theta = v, th
        assert _sse(est, src, dst) <= best + 1e-9
        step = thetas[1] - thetas[0]
        assert abs(wrap_angle(est.theta - best_theta)) <= step


def svd_fit(src, dst):
    """The general d-dimensional fit (Umeyama, TPAMI 1991): the SVD of the
    centred cross-covariance with a determinant guard against reflections.
    Kept as the reference the 2-D closed form must agree with."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - cs).T @ (dst - cd))
    d = math.copysign(1.0, np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, d]) @ u.T
    t = cd - rot @ cs
    return Pose2(t[0], t[1], math.atan2(rot[1, 0], rot[0, 0]))


def reference_cases():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 61))
        src = random_cloud(rng, n)
        yield src, apply_pose(random_pose(rng), src) + rng.normal(0.0, 0.5, size=(n, 2))
    for _ in range(20):
        # collinear sources, noisy targets
        n = int(rng.integers(2, 61))
        src = np.outer(rng.uniform(-30.0, 30.0, n), [math.cos(0.4), math.sin(0.4)]) + [3.0, -1.0]
        yield src, apply_pose(random_pose(rng), src) + rng.normal(0.0, 0.5, size=(n, 2))
    for _ in range(20):
        # mirrored targets: the best proper rotation, never the flip
        src = random_cloud(rng, int(rng.integers(3, 61)))
        yield src, apply_pose(random_pose(rng), src * [1.0, -1.0])
    for _ in range(5):
        # coincident targets, at a point whose mean is exact: every angle fits
        n = int(rng.integers(2, 61))
        yield random_cloud(rng, n), np.tile(rng.integers(-20, 21, size=2).astype(float), (n, 1))


def test_estimate_agrees_with_the_svd_reference():
    for src, dst in reference_cases():
        est, ref = estimate_se2(src, dst), svd_fit(src, dst)
        assert abs(wrap_angle(est.theta - ref.theta)) < 1e-12
        assert _sse(est, src, dst) <= _sse(ref, src, dst) * (1 + 1e-12)


def test_estimate_stays_finite_up_to_the_coordinate_bound():
    rng = np.random.default_rng(6)
    src = rng.uniform(-(2.0**509), 2.0**509, size=(1000, 2))
    dst = apply_pose(Pose2(0.0, 0.0, 0.3), src)
    est = estimate_se2(src, dst)
    assert abs(est.theta - 0.3) < 1e-12
    # powers of two scale every sum exactly, so the angle is bit-equal
    assert est.theta == estimate_se2(src * 2.0**-500, dst * 2.0**-500).theta
