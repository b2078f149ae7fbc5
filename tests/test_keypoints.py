import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radarodo import (
    ArtifactModel,
    PolarScan,
    Pose2,
    SensorMeta,
    extract_keypoints,
    random_world,
    render_scan,
)
from radarodo import keypoints
from radarodo.keypoints import mark_regions, scoring_image, write_keypoints_csv


def meta_for(power):
    m, n = power.shape
    return SensorMeta(m, n, 0.5, 0.25)


def scan_of(power):
    power = np.asarray(power, dtype=float)
    return PolarScan(meta_for(power), power)


def gradient(power):
    """The normalized gradient G that ``scoring_image`` weighs the power by."""
    return keypoints._prewitt_magnitude(power, keypoints._peak_exponent(power))


def reference_gradient(power):
    """Prewitt magnitude by explicit loops and ``math.hypot``, unnormalized."""
    m, n = power.shape
    g = np.zeros((m, n))
    for a in range(m):
        for r in range(n):
            ga = 0.0
            gr = 0.0
            for dr in (-1, 0, 1):
                rr = min(max(r + dr, 0), n - 1)
                ga += power[(a + 1) % m, rr] - power[(a - 1) % m, rr]
            for da in (-1, 0, 1):
                aa = (a + da) % m
                gr += power[aa, min(r + 1, n - 1)] - power[aa, max(r - 1, 0)]
            g[a, r] = math.hypot(ga, gr)
    return g


def reference_extract(power, l_max):
    """Transliterated reference: explicit loops, no vectorized tricks."""
    power = np.asarray(power, dtype=float)
    m, n = power.shape
    g = reference_gradient(power)
    peak = g.max()
    if peak > 0:
        g = g / peak
    s_prime = power - power.mean()
    h = (1.0 - g) * s_prime

    marked = [[False] * n for _ in range(m)]
    order = sorted(range(m * n), key=lambda f: (-h[divmod(f, n)], f))
    regions = 0
    for f in order:
        if regions >= l_max:
            break
        a, r = divmod(f, n)
        if h[a, r] <= 0.0:
            break
        if marked[a][r]:
            continue
        lo = 0
        for j in range(r, -1, -1):
            if s_prime[a, j] < 0:
                lo = j
                break
        hi = n - 1
        for j in range(r, n):
            if s_prime[a, j] < 0:
                hi = j
                break
        if not any(marked[a][lo : hi + 1]):
            regions += 1
        for j in range(lo, hi + 1):
            marked[a][j] = True

    keypoints = []
    for a in range(m):
        r = 0
        while r < n:
            if not marked[a][r]:
                r += 1
                continue
            lo = r
            while r < n and marked[a][r]:
                r += 1
            hi = r - 1
            neighborly = any(
                any(marked[nb][lo : hi + 1]) for nb in ((a - 1) % m, (a + 1) % m)
            )
            if not neighborly:
                continue
            best = max(range(lo, hi + 1), key=lambda j: (h[a, j], -j))
            if h[a, best] > 0.0:
                keypoints.append((a, best))
    return keypoints, np.array(marked), regions


def pairs_of(kset):
    return list(zip(kset.azimuths.tolist(), kset.range_bins.tolist()))


def test_gradient_of_constant_scan_is_zero():
    assert np.array_equal(gradient(np.full((6, 8), 3.5)), np.zeros((6, 8)))


def test_gradient_peak_is_one():
    rng = np.random.default_rng(0)
    g = gradient(rng.random((12, 20)))
    assert g.max() == 1.0
    assert g.min() >= 0.0


def test_gradient_wraps_azimuth_axis():
    power = np.zeros((8, 10))
    power[0, :] = 1.0
    g = gradient(power)
    # rows adjacent to the bright row see it through the seam
    assert g[7].max() > 0
    assert g[1].max() > 0
    assert g[4].max() == 0


def test_scoring_image_mean_subtraction():
    power = np.zeros((4, 6))
    power[2, 3] = 12.0
    h, s_prime = scoring_image(scan_of(power))
    assert s_prime.mean() == pytest.approx(0.0, abs=1e-12)
    assert h[2, 3] > 0


def test_mark_regions_respects_budget():
    rng = np.random.default_rng(1)
    h = rng.random((10, 30))
    s_prime = rng.random((10, 30)) - 0.5
    for l_max in (1, 3, 7):
        _, count = mark_regions(h, s_prime, l_max)
        assert count <= l_max


def test_span_meeting_an_earlier_span_across_a_visited_below_mean_cell():
    # a positive score on a below-mean cell (hand-made: scoring_image never
    # gives one) is a span of its own between the two spans it bounds; the
    # right-hand span shares that cell with the left-hand one visited before
    h = np.array([[0.0, 3.0, 1.0, 2.0, 0.0]])
    s_prime = np.array([[1.0, 1.0, -1.0, 1.0, 1.0]])
    marked, count = mark_regions(h, s_prime, 5)
    assert marked.all()
    assert count == 1


def test_mark_regions_rejects_bad_budget():
    # a NaN budget would mark every region, a float one fails inside numpy
    # and a bool would count as an int
    scan = scan_of(FIXTURE_A)
    h, s_prime = scoring_image(scan)
    for l_max in (0, -3, 2.5, math.nan, True):
        with pytest.raises(ValueError, match="l_max"):
            mark_regions(h, s_prime, l_max)
        with pytest.raises(ValueError, match="l_max"):
            extract_keypoints(scan, l_max)
    assert mark_regions(h, s_prime, np.int64(2))[1] == 2


# Fixture A: 3x3 blob in a 5x20 grid. Only the center column survives the
# gradient penalty, one region (and one keypoint) per blob row.
FIXTURE_A = np.zeros((5, 20))
FIXTURE_A[1, 9:12] = (2.0, 4.0, 2.0)
FIXTURE_A[2, 9:12] = (3.0, 6.0, 3.0)
FIXTURE_A[3, 9:12] = (2.0, 4.0, 2.0)


def test_fixture_a_full_budget():
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_A), l_max=3)) == [
        (1, 10),
        (2, 10),
        (3, 10),
    ]


def test_fixture_a_budget_two_drops_weakest_row():
    # rows 1 and 2 are visited first: (2,10) scores highest, ties between
    # (1,10) and (3,10) break toward the lower azimuth
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_A), l_max=2)) == [(1, 10), (2, 10)]


# Fixture B: single-azimuth blip. Its region is marked but no neighboring
# azimuth is, so it must never become a keypoint.
FIXTURE_B = np.zeros((5, 20))
FIXTURE_B[2, 10] = 5.0


def test_fixture_b_isolated_blip_is_rejected():
    scan = scan_of(FIXTURE_B)
    h, s_prime = scoring_image(scan)
    marked, count = mark_regions(h, s_prime, 1)
    expect = np.zeros((5, 20), dtype=bool)
    expect[2, 9:12] = True
    assert np.array_equal(marked, expect)
    assert count == 1
    assert len(extract_keypoints(scan, l_max=1)) == 0


def test_fixture_b_surplus_budget_changes_nothing():
    # marking must stop at the last positive score, not spend leftover
    # budget on sub-zero cells that would fake adjacency for the blip
    scan = scan_of(FIXTURE_B)
    h, s_prime = scoring_image(scan)
    marked, count = mark_regions(h, s_prime, 50)
    expect = np.zeros((5, 20), dtype=bool)
    expect[2, 9:12] = True
    assert np.array_equal(marked, expect)
    assert count == 1
    assert len(extract_keypoints(scan, l_max=50)) == 0


# Fixture C: blob split across the azimuth seam (rows 4 and 0). The two runs
# must see each other through the wrap.
FIXTURE_C = np.zeros((5, 20))
FIXTURE_C[4, 9:12] = (2.0, 4.0, 2.0)
FIXTURE_C[0, 9:12] = (2.0, 4.0, 2.0)


def test_fixture_c_wraparound_adjacency():
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_C), l_max=2)) == [(0, 10), (4, 10)]


# Fixture D: a strong single-azimuth blip plus a 3-row blob. The blip marks
# the first region (it has the top score) yet yields no keypoint; the blob
# yields one keypoint per row.
FIXTURE_D = np.zeros((5, 20))
FIXTURE_D[0, 15] = 8.0
FIXTURE_D[1, 3:6] = (2.0, 4.0, 2.0)
FIXTURE_D[2, 3:6] = (3.0, 6.0, 3.0)
FIXTURE_D[3, 3:6] = (2.0, 4.0, 2.0)


def test_fixture_d_blip_spends_budget_but_emits_nothing():
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_D), l_max=4)) == [
        (1, 4),
        (2, 4),
        (3, 4),
    ]


def test_fixtures_agree_with_reference():
    for fx, l_max in ((FIXTURE_A, 3), (FIXTURE_B, 1), (FIXTURE_C, 2), (FIXTURE_D, 4)):
        ref, _, _ = reference_extract(fx, l_max)
        assert pairs_of(extract_keypoints(scan_of(fx), l_max=l_max)) == ref


def assert_matches_reference(scan, l_max, label):
    ref_kp, ref_marked, ref_regions = reference_extract(scan.power, l_max)
    h, s_prime = scoring_image(scan)
    marked, regions = mark_regions(h, s_prime, l_max)
    assert np.array_equal(marked, ref_marked), label
    assert regions == ref_regions, label
    assert pairs_of(extract_keypoints(scan, l_max=l_max)) == ref_kp, label


def test_random_integer_grids_match_reference():
    # integer-valued power keeps every score arithmetic exact, so tie
    # handling must agree route for route; a budget of m*n regions is never
    # reached, so marking stops by running out of positive cells
    rng = np.random.default_rng(2)
    for trial in range(25):
        m = int(rng.integers(4, 10))
        n = int(rng.integers(8, 24))
        power = rng.integers(0, 6, size=(m, n)).astype(float)
        l_max = int(rng.integers(1, 12))
        for budget in (l_max, m * n):
            assert_matches_reference(scan_of(power), budget, f"trial {trial}, l_max {budget}")


@pytest.mark.parametrize("l_max", [2, 3])
def test_marking_widens_a_batch_that_runs_out_of_regions(l_max):
    # the 36-cell run on azimuth 0 fills the first batch of top-scoring
    # cells, so the two weaker peaks are only reached by widening it
    power = np.zeros((8, 40))
    power[0, 2:38] = 9.0
    power[4, 10] = power[6, 30] = 3.0
    assert_matches_reference(scan_of(power), l_max, f"l_max {l_max}")


@pytest.mark.parametrize("l_max", range(1, 8))
def test_marking_keeps_every_tie_at_the_batch_cut(l_max):
    # 72 equal peaks, more than one batch holds: ties at the cut must be
    # visited in (azimuth, range) order, not as a partition leaves them
    power = np.zeros((8, 40))
    power[:, 3:37:4] = 5.0
    assert_matches_reference(scan_of(power), l_max, f"l_max {l_max}")


@settings(max_examples=200, deadline=None)
@given(
    power=arrays(
        float, st.tuples(st.integers(2, 10), st.integers(2, 24)), elements=st.integers(0, 5)
    ),
    data=st.data(),
)
def test_any_integer_grid_and_budget_match_reference(power, data):
    l_max = data.draw(st.integers(1, power.size), label="l_max")
    assert_matches_reference(scan_of(power), l_max, f"l_max {l_max}")


def test_rendered_scans_match_reference():
    meta = SensorMeta(32, 48, 1.0, 0.25)
    art = ArtifactModel(speckle_scale=0.25, background_noise=0.03, false_positive_rate=3.0)
    for seed in range(5):
        world = random_world(12, 0.8 * meta.max_range, seed=seed, min_range=3.0)
        scan = render_scan(world, Pose2(), meta, art, seed=seed)
        assert_matches_reference(scan, 40, f"seed {seed}")


def test_gradients_whose_squares_underflow_move_no_keypoint():
    # odd azimuths hold values near 1e-170, so the Prewitt sums across the
    # even azimuths between them square to below the smallest subnormal;
    # the even azimuths score positive and their runs pick their best cell
    # among those, while the one bright cell keeps the peak gradient normal
    # and lends support to its neighbors
    rng = np.random.default_rng(5)
    power = np.full((16, 24), 5.0)
    power[1::2] = rng.uniform(1.0, 2.0, (8, 24)) * 1e-170
    power[5, 12] = 9.0
    scan = scan_of(power)
    underflowed = (gradient(power) == 0.0) & (reference_gradient(power) > 0.0)
    assert underflowed[0::2].sum() > 150
    assert_matches_reference(scan, power.size, "full budget")
    emitted = pairs_of(extract_keypoints(scan, l_max=power.size))
    assert emitted and all(underflowed[cell] for cell in emitted)


def test_offset_invariance():
    rng = np.random.default_rng(3)
    power = rng.random((12, 30)) * 4.0
    base = pairs_of(extract_keypoints(scan_of(power), l_max=10))
    shifted = pairs_of(extract_keypoints(scan_of(power + 7.5), l_max=10))
    assert base == shifted


def test_region_budget_monotonicity():
    rng = np.random.default_rng(4)
    power = rng.random((16, 40)) * 3.0
    sizes = []
    for l_max in (1, 2, 4, 8, 16, 32):
        h, s_prime = scoring_image(scan_of(power))
        marked, count = mark_regions(h, s_prime, l_max)
        assert count <= l_max
        sizes.append(int(marked.sum()))
    assert sizes == sorted(sizes)


def test_all_constant_scan_yields_nothing():
    assert len(extract_keypoints(scan_of(np.full((6, 10), 2.0)), l_max=5)) == 0


def test_run_whose_best_score_is_nan_is_not_emitted(monkeypatch):
    # a finite scan scores finite (see the test below), so the NaN is put
    # into the score directly, at the best cell of the marked run on azimuth 1
    power = np.zeros((6, 16))
    power[2, 4] = 1.3e308
    power[1, 6:8] = (3e306, 1e307)

    def nan_at_run_best(scan):
        h, s_prime = scoring_image(scan)
        h[1, 7] = np.nan
        return h, s_prime

    monkeypatch.setattr(keypoints, "scoring_image", nan_at_run_best)
    kset = extract_keypoints(scan_of(power), l_max=10)
    assert pairs_of(kset) == [(2, 4)]
    assert np.all(kset.strengths > 0)


@pytest.mark.parametrize(
    "cells, emitted",
    [
        ({(2, 5): 1.3e308, (3, 5): 1.2e308}, [(2, 5), (3, 5)]),
        ({(2, 4): 1.3e308, (1, 6): 3e306, (1, 7): 1e307}, [(1, 7), (2, 4)]),
    ],
)
def test_scan_near_the_float_maximum_scores_finite(cells, emitted):
    # unscaled, the Prewitt sums and the power's mean overflow here
    power = np.zeros((6, 16))
    for cell, value in cells.items():
        power[cell] = value
    scan = scan_of(power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, s_prime = scoring_image(scan)
        g = gradient(power)
        kset = extract_keypoints(scan, l_max=10)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(s_prime))
    assert g.max() == 1.0 and g.min() >= 0.0
    assert pairs_of(kset) == emitted
    assert np.all(np.isfinite(kset.strengths)) and np.all(kset.strengths > 0)


def test_keypoint_xy_lies_on_bin_centers():
    scan = scan_of(FIXTURE_A)
    kset = extract_keypoints(scan, l_max=3)
    rng_m = np.hypot(kset.xy[:, 0], kset.xy[:, 1])
    assert np.allclose(rng_m, (kset.range_bins + 0.5) * 0.5, rtol=0, atol=1e-12)


def test_keypoint_set_ordering_and_indexing():
    kset = extract_keypoints(scan_of(FIXTURE_A), l_max=3)
    assert len(kset) == 3
    pairs = pairs_of(kset)
    assert pairs == sorted(pairs)


def test_write_keypoints_csv(tmp_path, noisy_keypoints):
    # every row of a hand-traced set and of a real noisy 400x500 scan reads
    # back to the set's own values exactly
    for kset in (extract_keypoints(scan_of(FIXTURE_A), l_max=3), noisy_keypoints):
        path = tmp_path / "kp.csv"
        write_keypoints_csv(path, kset)
        header, *rows = path.read_text().splitlines()
        assert header == "azimuth_index,range_bin,x,y,strength"
        fields = [row.split(",") for row in rows]
        assert len(fields) == len(kset) and all(len(f) == 5 for f in fields)
        assert [int(f[0]) for f in fields] == kset.azimuths.tolist()
        assert [int(f[1]) for f in fields] == kset.range_bins.tolist()
        assert [[float(f[2]), float(f[3])] for f in fields] == kset.xy.tolist()
        assert [float(f[4]) for f in fields] == kset.strengths.tolist()
