import cmath
import math

import numpy as np
import pytest

from radarodo import NoCandidatesError, Pose2, apply_pose
from radarodo.descriptors import (
    compute_descriptor,
    descriptor_matrix,
    propose_unary_matches,
)

from conftest import random_cloud

MAX_RANGE = 50.0


def reference_descriptor(xy, i, alpha, rho, max_range):
    """All-loop reference with an explicit DFT instead of np.fft."""
    ang = [0.0] * alpha
    rad = [0.0] * rho
    base = math.atan2(xy[i][1], xy[i][0])
    for j in range(len(xy)):
        if j == i:
            continue
        dx = xy[j][0] - xy[i][0]
        dy = xy[j][1] - xy[i][1]
        w = math.hypot(xy[j][0], xy[j][1]) / max_range
        frac = (math.atan2(dy, dx) - base) % (2 * math.pi) / (2 * math.pi)
        ang[min(int(frac * alpha), alpha - 1)] += w
        d = math.hypot(dx, dy)
        rad[min(int(d / (max_range / rho)), rho - 1)] += w
    spectrum = []
    for k in range(alpha):
        acc = 0j
        for b in range(alpha):
            acc += ang[b] * cmath.exp(-2j * math.pi * k * b / alpha)
        spectrum.append(abs(acc))
    peak_a = max(spectrum) if spectrum else 0.0
    if peak_a > 0:
        spectrum = [v / peak_a for v in spectrum]
    peak_r = max(rad)
    if peak_r > 0:
        rad = [v / peak_r for v in rad]
    return spectrum, rad


def test_descriptor_matches_loop_reference():
    rng = np.random.default_rng(0)
    for _ in range(10):
        xy = random_cloud(rng, int(rng.integers(3, 25)))
        i = int(rng.integers(0, len(xy)))
        d = compute_descriptor(i, xy, 8, 6, MAX_RANGE)
        ref_a, ref_r = reference_descriptor(xy, i, 8, 6, MAX_RANGE)
        assert np.allclose(d.angular, ref_a, atol=1e-9)
        assert np.allclose(d.radial, ref_r, atol=1e-12)


def test_descriptor_entries_bounded():
    rng = np.random.default_rng(1)
    xy = random_cloud(rng, 30)
    mat = descriptor_matrix(xy, 16, 12, MAX_RANGE)
    assert mat.shape == (30, 28)
    assert mat.min() >= 0.0
    assert mat.max() <= 1.0 + 1e-12
    # the angular channel always peaks at its zero-frequency entry
    assert np.allclose(mat[:, 0], 1.0)


def test_rotation_about_sensor_is_a_noop():
    rng = np.random.default_rng(2)
    for _ in range(10):
        xy = random_cloud(rng, 20)
        theta = rng.uniform(-math.pi, math.pi)
        rot = apply_pose(Pose2(0.0, 0.0, theta), xy)
        d1 = descriptor_matrix(xy, 12, 10, MAX_RANGE)
        d2 = descriptor_matrix(rot, 12, 10, MAX_RANGE)
        assert np.max(np.abs(d1 - d2)) < 1e-9


def test_translation_changes_descriptors():
    rng = np.random.default_rng(3)
    xy = random_cloud(rng, 20)
    moved = xy + np.array([5.0, -3.0])
    d1 = descriptor_matrix(xy, 12, 10, MAX_RANGE)
    d2 = descriptor_matrix(moved, 12, 10, MAX_RANGE)
    assert np.max(np.abs(d1 - d2)) > 1e-6


def test_lone_keypoint_gets_zero_descriptor():
    d = compute_descriptor(0, np.array([[3.0, 4.0]]), 8, 6, MAX_RANGE)
    assert np.array_equal(d.angular, np.zeros(8))
    assert np.array_equal(d.radial, np.zeros(6))
    assert np.array_equal(d.vector, np.zeros(14))


def test_radial_overflow_clips_to_last_bin():
    xy = np.array([[1.0, 0.0], [1.0 + 10 * MAX_RANGE, 0.0]])
    d = compute_descriptor(0, xy, 4, 5, MAX_RANGE)
    assert d.radial[4] > 0
    assert np.all(d.radial[:4] == 0)


def test_descriptor_validation():
    xy = np.zeros((3, 2))
    with pytest.raises(ValueError):
        compute_descriptor(0, xy, 0, 4, MAX_RANGE)
    with pytest.raises(ValueError):
        compute_descriptor(0, xy, 4, 0, MAX_RANGE)
    with pytest.raises(ValueError):
        compute_descriptor(0, xy, 4, 4, 0.0)
    with pytest.raises(ValueError):
        compute_descriptor(5, xy, 4, 4, MAX_RANGE)


def test_unary_identity_sets_match_one_to_one():
    rng = np.random.default_rng(4)
    xy = random_cloud(rng, 15)
    matches = propose_unary_matches(xy, xy, 8, 6, MAX_RANGE)
    assert matches.u == 15
    assert np.array_equal(matches.l1_indices, np.arange(15))
    assert np.array_equal(matches.l2_indices, np.arange(15))
    assert np.allclose(matches.distances, 0.0, atol=1e-9)


def test_unary_rejects_empty_sets():
    with pytest.raises(NoCandidatesError):
        propose_unary_matches(np.zeros((0, 2)), np.zeros((3, 2)), 8, 6, MAX_RANGE)


def test_unary_tie_breaks_to_lowest_index():
    # both L2 points see one neighbor at the same relative bearing, range
    # weight, and separation, so their descriptors are identical
    xy1 = np.array([[1.0, 0.0]])
    xy2 = np.array([[10.0, 0.0], [-10.0, 0.0]])
    matches = propose_unary_matches(xy1, xy2, 8, 6, MAX_RANGE)
    assert list(matches.l2_indices) == [0]
