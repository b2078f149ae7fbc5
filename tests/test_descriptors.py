import cmath
import dataclasses
import math

import numpy as np
import pytest

from radarodo import KeypointSet, NoCandidatesError, Pose2, SensorMeta, apply_pose
from radarodo.descriptors import _angular_bins, descriptor_matrix, propose_unary_matches

from conftest import random_cloud

MAX_RANGE = 50.0
SQRT2 = math.sqrt(2.0)


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


def half_spectrum(spectrum, alpha):
    """Full-spectrum magnitudes (peak 1) in the descriptor's layout:
    coefficients 0..alpha//2, those with a mirror image weighted by sqrt 2."""
    half = np.array(spectrum[: alpha // 2 + 1], dtype=float)
    half[1 : (alpha + 1) // 2] *= SQRT2
    return half


def per_keypoint_matrix(xy, alpha, rho, max_range, full=True):
    """The descriptor matrix built one keypoint at a time with numpy. With
    ``full`` the angular channel is all alpha FFT magnitudes over their
    maximum, the paper's layout; otherwise it is the kernel's half spectrum,
    made the kernel's way: the reference it must match bit for bit."""
    width = alpha if full else alpha // 2 + 1
    out = np.zeros((xy.shape[0], width + rho))
    for i in range(xy.shape[0]):
        mask = np.ones(xy.shape[0], dtype=bool)
        mask[i] = False
        rel = xy[mask] - xy[i]
        if rel.shape[0] == 0:
            continue
        w = np.hypot(xy[mask, 0], xy[mask, 1]) / max_range
        ang = np.arctan2(rel[:, 1], rel[:, 0]) - math.atan2(xy[i, 1], xy[i, 0])
        a_bins = np.minimum((np.mod(ang, 2 * math.pi) / (2 * math.pi) * alpha).astype(int), alpha - 1)
        dist = np.sqrt(rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1])
        r_bins = np.minimum((dist / (max_range / rho)).astype(int), rho - 1)
        hist_a = np.bincount(a_bins, weights=w, minlength=alpha)
        hist_r = np.bincount(r_bins, weights=w, minlength=rho)
        if full:
            spectrum = np.abs(np.fft.fft(hist_a))
            peak = spectrum.max()
        else:
            spectrum = np.abs(np.fft.rfft(hist_a))
            peak = spectrum[0]
        out[i, :width] = spectrum / peak if peak > 0 else spectrum
        if not full:
            out[i, 1 : (alpha + 1) // 2] *= SQRT2
        out[i, width:] = hist_r / hist_r.max() if hist_r.max() > 0 else hist_r
    return out


def row_distances(d, rows, others):
    """Euclidean distances from each of ``rows`` of ``d`` to every row of
    ``others``, one difference at a time."""
    return np.array([np.sqrt(((others - d[i]) ** 2).sum(axis=1)) for i in rows])


def dense_unary(d1, d2):
    """Nearest L2 descriptor of each L1 row from whole (u1, u2) arrays, in
    the expanded dot product's order: the reference the row-blocked search
    must match bit for bit. Returns the l2 indices."""
    sq = (d1 * d1).sum(axis=1)[:, None] + (d2 * d2).sum(axis=1)[None, :]
    sq = sq - 2.0 * d1 @ d2.T
    np.maximum(sq, 0.0, out=sq)
    return np.argmin(sq, axis=1)


def meta_args(kset):
    meta = kset.meta
    return meta.num_azimuths, meta.num_range_bins, meta.max_range


def test_descriptor_matrix_is_bit_identical_to_per_keypoint_reference(
    noisy_keypoints, busy_keypoints
):
    kp = busy_keypoints[0]
    sets = [noisy_keypoints, kp] + [
        KeypointSet(kp.azimuths[:n], kp.range_bins[:n], kp.xy[:n], kp.strengths[:n], kp.meta)
        for n in (0, 1, 2, 63, 64, 65, 130)
    ]
    for kset in sets:
        args = meta_args(kset)
        mat = descriptor_matrix(dataclasses.replace(kset), *args)
        assert mat.shape == (len(kset), args[0] // 2 + 1 + args[1])
        assert np.array_equal(mat, per_keypoint_matrix(kset.xy, *args, full=False))
        # the same kernel on a raw cloud, uncached
        assert np.array_equal(descriptor_matrix(kset.xy, *args), mat)


def test_keypoint_set_is_described_once_per_parameter_set(noisy_keypoints):
    kset = dataclasses.replace(noisy_keypoints)
    assert kset.descriptor_cache == {}
    args = meta_args(kset)
    first = descriptor_matrix(kset, *args)
    assert descriptor_matrix(kset, *args) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 2.0
    coarse = descriptor_matrix(kset, 16, 12, args[2])
    assert coarse.shape == (len(kset), 16 // 2 + 1 + 12)
    assert np.array_equal(coarse, descriptor_matrix(kset.xy, 16, 12, args[2]))
    assert descriptor_matrix(kset, *args) is first
    assert len(kset.descriptor_cache) == 2
    # a copy starts with its own, empty cache
    assert dataclasses.replace(kset).descriptor_cache == {}


def test_keypoint_set_arrays_are_read_only_copies():
    xy = np.array([[1.0, 2.0], [3.0, 4.0]])
    kset = KeypointSet(
        np.array([0, 1]), np.array([2, 3]), xy, np.array([1.0, 1.0]),
        SensorMeta(4, 8, 1.0, 0.25),
    )
    for arr in (kset.azimuths, kset.range_bins, kset.xy, kset.strengths):
        with pytest.raises(ValueError):
            arr[0] = 0
    xy[0, 0] = 9.0  # the caller's array stays writable and the set keeps its values
    assert kset.xy[0, 0] == 1.0


def test_descriptor_matches_loop_reference():
    rng = np.random.default_rng(0)
    # an even alpha keeps its Nyquist coefficient unweighted, an odd one has none
    for alpha in (8, 7):
        half = alpha // 2 + 1
        for _ in range(10):
            xy = random_cloud(rng, int(rng.integers(3, 25)))
            i = int(rng.integers(0, len(xy)))
            d = descriptor_matrix(xy, alpha, 6, MAX_RANGE)[i]
            ref_a, ref_r = reference_descriptor(xy, i, alpha, 6, MAX_RANGE)
            assert np.allclose(d[:half], half_spectrum(ref_a, alpha), atol=1e-9)
            assert np.allclose(d[half:], ref_r, atol=1e-12)


def test_descriptor_entries_bounded():
    rng = np.random.default_rng(1)
    xy = random_cloud(rng, 30)
    mat = descriptor_matrix(xy, 16, 12, MAX_RANGE)
    assert mat.shape == (30, 16 // 2 + 1 + 12)
    assert mat.min() >= 0.0
    # sqrt 2 bounds the weighted coefficients 1..7; X_0, the Nyquist
    # coefficient and the radial channel stay within 1
    assert mat[:, 1:8].max() <= SQRT2 + 1e-12
    assert np.delete(mat, np.s_[1:8], axis=1).max() <= 1.0 + 1e-12
    # the angular channel is divided by its zero-frequency entry, its peak
    assert np.all(mat[:, 0] == 1.0)
    assert np.all(mat[:, 9:].max(axis=1) == 1.0)


def test_half_spectrum_rows_keep_full_spectrum_distances(noisy_keypoints, busy_keypoints):
    rng = np.random.default_rng(14)
    cases = [(noisy_keypoints, noisy_keypoints), (busy_keypoints[0], busy_keypoints[0]),
             (busy_keypoints[0], busy_keypoints[1])]
    for kset, other in cases:
        args = meta_args(kset)
        rows = rng.choice(len(kset), 24, replace=False)
        half = row_distances(descriptor_matrix(kset.xy, *args), rows,
                             descriptor_matrix(other.xy, *args))
        full = row_distances(per_keypoint_matrix(kset.xy, *args), rows,
                             per_keypoint_matrix(other.xy, *args))
        assert half.shape == (24, len(other))
        assert np.max(np.abs(half - full)) <= 1e-12
    for alpha in (1, 2, 7, 16):
        xy = random_cloud(rng, 40)
        half = descriptor_matrix(xy, alpha, 6, MAX_RANGE)
        full = per_keypoint_matrix(xy, alpha, 6, MAX_RANGE)
        every = np.arange(40)
        assert np.max(np.abs(row_distances(half, every, half) - row_distances(full, every, full))) <= 1e-12


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
    d = descriptor_matrix(np.array([[3.0, 4.0]]), 8, 6, MAX_RANGE)
    assert np.array_equal(d, np.zeros((1, 8 // 2 + 1 + 6)))


def test_radial_overflow_clips_to_last_bin():
    xy = np.array([[1.0, 0.0], [1.0 + 10 * MAX_RANGE, 0.0]])
    radial = descriptor_matrix(xy, 4, 5, MAX_RANGE)[0, 4 // 2 + 1 :]
    assert radial.shape == (5,)
    assert radial[4] > 0
    assert np.all(radial[:4] == 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.nextafter(2.0**510, math.inf)])
def test_descriptor_rejects_clouds_whose_distances_could_overflow(bad):
    for xy in ([[1.0, 2.0], [3.0, bad]], [[bad, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError, match="coordinates"):
            descriptor_matrix(np.array(xy), 8, 6, MAX_RANGE)


def test_descriptor_of_clouds_at_the_coordinate_bound_is_finite():
    # the farthest pair the bound admits: 2**511 apart on each axis, so the
    # squared distance is 2**1023, finite, and clips to the last radial bin
    xy = np.array([[2.0**510, 2.0**510], [-(2.0**510), -(2.0**510)]])
    d = descriptor_matrix(xy, 8, 6, MAX_RANGE)
    assert np.array_equal(d[:, 8 // 2 + 1 :], [[0.0] * 5 + [1.0]] * 2)


def test_descriptor_validation():
    xy = np.zeros((3, 2))
    with pytest.raises(ValueError):
        descriptor_matrix(xy, 0, 4, MAX_RANGE)
    with pytest.raises(ValueError):
        descriptor_matrix(xy, 4, 0, MAX_RANGE)
    with pytest.raises(ValueError):
        descriptor_matrix(xy, 4, 4, 0.0)


def test_unary_identity_sets_match_one_to_one():
    rng = np.random.default_rng(4)
    xy = random_cloud(rng, 15)
    matches = propose_unary_matches(xy, xy, 8, 6, MAX_RANGE)
    assert matches.u == 15
    assert np.array_equal(matches.l1_indices, np.arange(15))
    assert np.array_equal(matches.l2_indices, np.arange(15))


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


def test_unary_matches_equal_the_dense_search(noisy_keypoints, busy_keypoints):
    kp = busy_keypoints[1]
    rng = np.random.default_rng(12)
    pairs = [
        (noisy_keypoints, busy_keypoints[0]),
        (busy_keypoints[0], busy_keypoints[1]),
        (noisy_keypoints, noisy_keypoints),
    ] + [
        # L1 sizes on both sides of a block edge, drawn with repeats
        (kp.xy[rng.choice(len(kp), n1)], kp.xy[: n1 + 7]) for n1 in (1, 63, 64, 65, 130)
    ]
    args = meta_args(busy_keypoints[0])
    for l1, l2 in pairs:
        got = propose_unary_matches(l1, l2, *args)
        d1 = descriptor_matrix(l1, *args)
        best = dense_unary(d1, descriptor_matrix(l2, *args))
        assert np.array_equal(got.l1_indices, np.arange(d1.shape[0]))
        assert got.l2_indices.dtype == best.dtype
        assert np.array_equal(got.l2_indices, best)


def test_unary_matches_equal_the_full_spectrum_dense_search(noisy_keypoints, busy_keypoints):
    # the half spectrum changes the distances only by rounding, and on these
    # scans not one nearest neighbour
    noisy, (busy_a, busy_b) = noisy_keypoints, busy_keypoints
    for l1, l2, args in ((noisy, busy_a, meta_args(noisy)), (busy_a, busy_b, meta_args(busy_a)),
                         (busy_b, noisy, meta_args(busy_a))):
        got = propose_unary_matches(l1, l2, *args)
        best = dense_unary(per_keypoint_matrix(l1.xy, *args), per_keypoint_matrix(l2.xy, *args))
        assert np.array_equal(got.l2_indices, best)


WRAP_EDGES = [
    2 * math.pi, -2 * math.pi, 0.0, -0.0, -1e-300, -5e-324, -1e-17, 1e-300,
    math.pi, -math.pi, np.nextafter(2 * math.pi, 0.0), np.nextafter(-2 * math.pi, 0.0),
    np.nextafter(0.0, -1.0), -np.nextafter(2 * math.pi, 0.0) + 1e-16,
]


def test_angular_bins_equal_np_mod_bins():
    rng = np.random.default_rng(13)
    # multiples of a bin width, where rounding picks the bin; the kernel's
    # angles (an atan2 minus a bearing) lie in [-2 pi, 2 pi]
    grid = np.arange(-400, 401) * (2 * math.pi / 400)
    grid = grid[np.abs(grid) <= 2 * math.pi]
    ang = np.concatenate([WRAP_EDGES, rng.uniform(-2 * math.pi, 2 * math.pi, 2000), grid])
    for alpha in (1, 7, 64, 256, 400):
        want = np.minimum((np.mod(ang, 2 * math.pi) / (2 * math.pi) * alpha).astype(int), alpha - 1)
        got = _angular_bins(ang.copy(), alpha)
        assert np.array_equal(got, want), alpha
    # a tiny negative angle wraps to exactly 2 pi, as np.mod has it: the last bin
    assert np.mod(-1e-300, 2 * math.pi) == 2 * math.pi
    assert _angular_bins(np.array([-1e-300, 2 * math.pi, -0.0]), 64).tolist() == [63, 0, 0]
