import cmath
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from radarodo import (
    KeypointSet, NoCandidatesError, Pose2, SensorMeta, apply_pose, descriptors, icp_match,
    pairwise_compatibility,
)
from radarodo.descriptors import (
    _GATHER,
    _UNARY_BLOCK,
    UnaryMatches,
    _angular_bins,
    _nearest_rows,
    descriptor_matrix,
    propose_unary_matches,
)

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
    """Nearest L2 row of each L1 row by the float64 sum of (a - b)**2 over
    every L2 row, ties to the lowest index: the brute force the screened
    search must match exactly. Each row's sum is taken the way the search
    takes it, as a row sum of the squared differences. Returns the l2
    indices."""
    diff = np.empty_like(d2)

    def nearest(a):
        np.subtract(a, d2, out=diff)
        return np.argmin(np.square(diff, out=diff).sum(axis=1))

    return np.array([nearest(a) for a in d1], dtype=np.intp)


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
    # a zero peak divides by 1.0: zeros, and no 0/0 warning (an error under
    # the test filter)
    d = descriptor_matrix(np.array([[3.0, 4.0]]), 8, 6, MAX_RANGE)
    assert np.array_equal(d, np.zeros((1, 8 // 2 + 1 + 6)))


EDGE_CLOUDS = {
    # the keypoint at (-1, -0.0) has bearing -pi, and its neighbour at
    # (-3, 0.0) bearing pi from it: pi - (-pi) is exactly 2 pi, bin 0 as
    # np.mod has it; the third point tells bin 0 from the last bin
    "exact_two_pi": [[-1.0, -0.0], [-3.0, 0.0], [-1.0, 2.0]],
    # the keypoint at (1, 0) sees (2, -1e-300) at a bearing of -1e-300,
    # which plus 2 pi rounds to exactly 2 pi: the last bin
    "tiny_negative": [[1.0, 0.0], [2.0, -1e-300], [1.0, 3.0]],
    "coincident": [[3.0, 4.0], [3.0, 4.0], [-5.0, 1.0], [0.5, -7.0]],
    "two_points": [[3.0, 4.0], [-20.0, 1.0]],
    "lone": [[3.0, 4.0]],
}


@pytest.mark.parametrize("name", EDGE_CLOUDS)
def test_descriptor_of_edge_clouds_equals_the_per_keypoint_reference(name):
    xy = np.array(EDGE_CLOUDS[name])
    for alpha, rho in ((8, 6), (64, 50), (7, 3)):
        d = descriptor_matrix(xy, alpha, rho, MAX_RANGE)
        assert np.array_equal(d, per_keypoint_matrix(xy, alpha, rho, MAX_RANGE, full=False))
        radial = d[:, alpha // 2 + 1 :]
        if name == "two_points":
            # only the other keypoint reaches a row: one radial entry, far
            # from bin 0, where the keypoint's own distance of 0 would land
            assert np.count_nonzero(radial, axis=1).tolist() == [1, 1]
            assert not radial[:, 0].any()
        if name == "lone":
            assert not d.any()


def test_edge_clouds_reach_the_wrap_edges():
    # the angles the edge clouds above are built on
    assert math.atan2(0.0, -2.0) - math.atan2(-0.0, -1.0) == 2 * math.pi
    assert angular_bins([2 * math.pi], 8).tolist() == [0]
    tiny = math.atan2(-1e-300, 1.0) - math.atan2(0.0, 1.0)
    assert tiny < 0.0 and tiny + 2 * math.pi == 2 * math.pi
    assert angular_bins([tiny], 8).tolist() == [7]


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


def test_descriptor_rejects_a_max_range_too_small_for_its_cloud():
    cloud = np.random.default_rng(23).uniform(-30.0, 30.0, (20, 2))
    with pytest.raises(ValueError, match="max_range 1e-307 is too small"):
        descriptor_matrix(cloud, 8, 6, 1e-307)
    # each weight is finite (1.5e308), but a keypoint's two neighbours
    # overflow its histogram total
    with pytest.raises(ValueError, match="max_range"):
        descriptor_matrix(np.array([[1.0, 0.0]] * 3), 8, 6, 1.0 / 1.5e308)
    # a radial bin width max_range / rho that rounds to zero
    with pytest.raises(ValueError, match="max_range"):
        descriptor_matrix(np.zeros((1, 2)), 8, 2, 5e-324)


def test_descriptor_of_every_accepted_max_range_is_finite():
    # from ordinary ranges down past the smallest one accepted for this
    # cloud: each either raises or gives only finite entries, with no
    # RuntimeWarning (an error under the test suite's filter)
    cloud = np.random.default_rng(24).uniform(-30.0, 30.0, (20, 2))
    accepted = 0
    for max_range in (10.0 ** -k for k in range(-300, 324, 4)):
        try:
            d = descriptor_matrix(cloud, 8, 6, max_range)
        except ValueError as err:
            assert "max_range" in str(err)
            continue
        assert np.all(np.isfinite(d)), max_range
        accepted += 1
    assert 100 < accepted < 156


def test_describe_memory_grows_with_the_block_not_with_n_squared():
    # an (n, n) float matrix alone would take n*n*8 bytes, 32 MB here; the
    # (block, n) temporaries and the (n, 97) result stay far below half that
    xy = random_cloud(np.random.default_rng(22), 2000)
    tracemalloc.start()
    try:
        descriptor_matrix(xy, 64, 64, MAX_RANGE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 * 8 / 2


def test_descriptor_validation():
    xy = np.zeros((3, 2))
    with pytest.raises(ValueError):
        descriptor_matrix(xy, 0, 4, MAX_RANGE)
    with pytest.raises(ValueError):
        descriptor_matrix(xy, 4, 0, MAX_RANGE)
    with pytest.raises(ValueError):
        descriptor_matrix(xy, 4, 4, 0.0)
    # PipelineConfig's rules: counts are ints (a bool is not one), the range
    # is finite
    for args in ((2.5, 4, 10.0), (4, 2.5, 10.0), (True, 4, 10.0), (4, True, 10.0),
                 (4, 4, math.inf), (4, 4, math.nan), (4, 4, -1.0)):
        with pytest.raises(ValueError):
            descriptor_matrix(xy, *args)


def test_unary_identity_sets_match_one_to_one():
    rng = np.random.default_rng(4)
    xy = random_cloud(rng, 15)
    matches = propose_unary_matches(xy, xy, 8, 6, MAX_RANGE)
    assert matches.u == 15
    assert np.array_equal(matches.l1_indices, np.arange(15))
    assert np.array_equal(matches.l2_indices, np.arange(15))


@pytest.mark.parametrize("shape", [(6, 3), (6, 1), (6,), (2,)], ids=["N3", "N1", "N", "2"])
def test_point_sets_that_are_not_n_by_2_raise(shape):
    # unchecked, the compatibility matrix would read an (N, 3) cloud as its
    # first two columns, and the other stages would fail inside numpy
    bad = np.random.default_rng(0).uniform(-10.0, 10.0, size=shape)
    good = random_cloud(np.random.default_rng(1), 6)
    um = UnaryMatches(np.arange(2), np.arange(2))
    message = re.escape(f"points must be an (N, 2) array, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        descriptor_matrix(bad, 8, 6, MAX_RANGE)
    for a, b in ((bad, good), (good, bad)):
        for call in (
            lambda: propose_unary_matches(a, b, 8, 6, MAX_RANGE),
            lambda: pairwise_compatibility(um, a, b, 1.0),
            lambda: icp_match(a, b),
        ):
            with pytest.raises(ValueError, match=message):
                call()


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
        # L1 sizes on both sides of a screen block edge, drawn with repeats
        (kp.xy[rng.choice(len(kp), n1)], kp.xy[: n1 + 7])
        for n1 in (1, _UNARY_BLOCK - 1, _UNARY_BLOCK, _UNARY_BLOCK + 1, 2 * _UNARY_BLOCK + 8)
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


def test_unary_search_tells_apart_rows_float32_cannot():
    # one entry 2**-30 apart: float32 rounds both L2 rows alike, and the
    # expanded dot product's rounding (near 1e-15 here) swamps squared
    # distances 2**-60 apart; the truly nearer row wins whatever its index
    base = np.random.default_rng(23).uniform(0.0, 1.4, 24)
    base[7] = 0.75
    near = base.copy()
    near[7] += 2.0**-30
    assert np.array_equal(base.astype(np.float32), near.astype(np.float32))
    between = base.copy()
    between[7] += 3 * 2.0**-32  # 2**-32 from near, 3 * 2**-32 from base
    d1 = np.array([near, base, between])
    assert _nearest_rows(d1, np.array([base, near])).tolist() == [1, 0, 1]
    assert _nearest_rows(d1, np.array([near, base])).tolist() == [0, 1, 0]
    # amid other rows, on both sides of a screen block edge
    others = np.random.default_rng(24).uniform(0.0, 1.4, (30, 24))
    d2 = np.vstack([others[:20], base, others[20:], near])
    many = np.repeat(d1, _UNARY_BLOCK // 2 + 1, axis=0)
    got = _nearest_rows(many, d2)
    assert np.array_equal(got, dense_unary(many, d2))
    assert set(got.tolist()) == {20, 31}


def test_unary_search_gives_exact_ties_to_the_lowest_index():
    d2 = np.random.default_rng(25).uniform(0.0, 1.4, (7, 10))
    d2[[2, 4, 6]] = d2[1]
    # two distinct rows at exactly the same distance from a zero row
    d2[3] = d2[5] = 0.0
    d2[3, 0] = d2[5, 9] = 0.5
    d1 = np.vstack([d2[[6, 4, 1, 0]], np.zeros(10)])
    assert _nearest_rows(d1, d2).tolist() == [1, 1, 1, 0, 3]


def test_unary_search_decides_when_every_row_survives_the_screen():
    # L2 rows that float32 cannot tell apart screen alike, so every one of
    # them goes to the float64 decision; enough of them that one screen
    # block's decision takes more than one gather
    n2, width = 100, 6
    assert _UNARY_BLOCK * n2 > _GATHER // width
    rng = np.random.default_rng(26)
    perm = rng.permutation(n2)
    d2 = np.full((n2, width), 0.75)
    d2[:, 0] += perm * 2.0**-33
    assert len(np.unique(d2.astype(np.float32), axis=0)) == 1
    # targets on a quarter of the L2 offsets' spacing, half-way ones
    # included: these squared distances are exact, so the nearest row is
    # that of the nearest offset, a tie going to the lower index
    x = np.concatenate([rng.integers(-12, 4 * n2 + 12, _UNARY_BLOCK + 40) / 4, [2.5, 50.5, -0.5]])
    d1 = np.full((x.size, width), 0.75)
    d1[:, 0] += x * 2.0**-33
    gap = np.abs(x[:, None] - perm[None, :])
    want = np.argmin(gap, axis=1)
    assert np.array_equal(_nearest_rows(d1, d2), want)
    assert np.array_equal(want, dense_unary(d1, d2))


def test_unary_search_decides_every_row_when_no_bound_can_be_formed(monkeypatch):
    # rows of 2**23 or more entries leave float32 no bound; a coarser
    # float32 roundoff stands in for them here
    monkeypatch.setattr(descriptors, "_U32", 0.25)
    rng = np.random.default_rng(29)
    d1, d2 = rng.uniform(0.0, 1.4, (_UNARY_BLOCK + 9, 5)), rng.uniform(0.0, 1.4, (40, 5))
    d2[7] = d2[3]
    d1[:4] = d2[3]
    assert np.array_equal(_nearest_rows(d1, d2), dense_unary(d1, d2))


def test_unary_search_of_one_row_sets():
    rng = np.random.default_rng(27)
    one, many = rng.uniform(0.0, 1.4, (1, 9)), rng.uniform(0.0, 1.4, (300, 9))
    assert np.array_equal(_nearest_rows(one, many), dense_unary(one, many))
    assert np.array_equal(_nearest_rows(many, one), np.zeros(300, dtype=np.intp))
    assert _nearest_rows(one, one).tolist() == [0]
    # a one-point cloud has the zero descriptor, nearest to every row
    matches = propose_unary_matches(random_cloud(rng, 12), np.array([[3.0, 4.0]]), 8, 6, MAX_RANGE)
    assert matches.l2_indices.tolist() == [0] * 12
    matches = propose_unary_matches(np.array([[3.0, 4.0]]), random_cloud(rng, 12), 8, 6, MAX_RANGE)
    assert matches.u == 1 and matches.l2_indices.dtype == np.intp


def test_unary_search_equals_the_brute_force_with_planted_near_ties():
    rng = np.random.default_rng(28)
    for width in (2, 3, 9, 64, 129, 385):
        n2 = int(rng.integers(1, 50))
        n1 = int(rng.integers(1, 2 * _UNARY_BLOCK + 20))
        d2 = rng.uniform(0.0, 1.4, (n2, width)) * (rng.random((n2, width)) < 0.7)
        # near copies of some L2 rows, a few entries moved by 2**-40..2**-21,
        # and exact copies of others
        src = rng.integers(0, n2, n2 // 2 + 1)
        moved = rng.random((src.size, width)) < 0.2
        near = d2[src] + moved * 2.0 ** rng.integers(-40, -20, (src.size, width))
        d2 = np.vstack([d2, near, d2[src[:3]]])
        # L1 rows near L2 rows, some zero, some with entries in float32's
        # subnormal range or flushed below it
        d1 = d2[rng.integers(0, len(d2), n1)]
        d1 = d1 + (rng.random((n1, width)) < 0.1) * 2.0 ** rng.integers(-45, -18, (n1, width))
        d1[rng.random(n1) < 0.05] = 0.0
        d1[rng.random((n1, width)) < 0.02] = 1e-40
        d1[rng.random((n1, width)) < 0.02] = 1e-300
        assert np.array_equal(_nearest_rows(d1, d2), dense_unary(d1, d2)), width


def test_unary_memory_stays_below_one_dense_float64_product(busy_keypoints):
    # a (u, n2) float64 array, the whole cross product of a dense search,
    # is 6 MB here; the screen works through blocks of L1 rows
    l1, l2 = busy_keypoints
    args = meta_args(l1)
    u, n2 = (descriptor_matrix(kset, *args).shape[0] for kset in (l1, l2))
    tracemalloc.start()
    try:
        propose_unary_matches(l1, l2, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u * n2 * 8


WRAP_EDGES = [
    2 * math.pi, -2 * math.pi, 0.0, -0.0, -1e-300, -5e-324, -1e-17, 1e-300,
    math.pi, -math.pi, np.nextafter(2 * math.pi, 0.0), np.nextafter(-2 * math.pi, 0.0),
    np.nextafter(0.0, -1.0), -np.nextafter(2 * math.pi, 0.0) + 1e-16,
]


def angular_bins(ang, alpha):
    """``_angular_bins`` of a copy of ``ang``, with fresh buffers."""
    ang = np.array(ang, dtype=float)
    return _angular_bins(ang, alpha, np.empty_like(ang), np.empty(ang.shape, dtype=np.intp))


def test_angular_bins_equal_np_mod_bins():
    rng = np.random.default_rng(13)
    # multiples of a bin width, where rounding picks the bin; the kernel's
    # angles (an atan2 minus a bearing) lie in [-2 pi, 2 pi]
    grid = np.arange(-400, 401) * (2 * math.pi / 400)
    grid = grid[np.abs(grid) <= 2 * math.pi]
    ang = np.concatenate([WRAP_EDGES, rng.uniform(-2 * math.pi, 2 * math.pi, 2000), grid])
    for alpha in (1, 7, 64, 256, 400):
        want = np.minimum((np.mod(ang, 2 * math.pi) / (2 * math.pi) * alpha).astype(int), alpha - 1)
        got = angular_bins(ang, alpha)
        assert np.array_equal(got, want), alpha
    # a tiny negative angle wraps to exactly 2 pi, as np.mod has it: the last bin
    assert np.mod(-1e-300, 2 * math.pi) == 2 * math.pi
    assert angular_bins([-1e-300, 2 * math.pi, -0.0], 64).tolist() == [63, 0, 0]
