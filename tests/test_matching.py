import itertools
import math

import numpy as np
import pytest

from radarodo import (
    DegenerateProblemError,
    NoCompatibilityError,
    Pose2,
    SensorMeta,
    apply_pose,
    extract_keypoints,
    random_world,
    render_scan,
)
from radarodo import matching
from radarodo.descriptors import UnaryMatches, propose_unary_matches
from radarodo.matching import (
    _LANCZOS_MIN_K,
    _LANCZOS_STEPS,
    _LANCZOS_TOL,
    SpectralSolution,
    _lanczos,
    eigengap_measure,
    greedy_select,
    pairwise_compatibility,
    principal_eigenvector,
)

from conftest import NOISY_ARTIFACTS, random_pose

SIGMA = 0.5


def clique_instance(rng, k, extra=0, jitter=0.0, conflicts=0, sigma=SIGMA):
    """k candidates consistent under one rigid motion, the rest isolated.

    Extra candidates point at far-away scatter whose pairwise geometry can
    never agree with the L1 side, and optional conflict candidates reuse an
    L1 index so uniqueness pruning gets exercised.
    """
    n1 = k + extra
    pts1 = rng.uniform(-15.0, 15.0, size=(n1, 2))
    good2 = apply_pose(random_pose(rng, t_scale=3.0), pts1[:k])
    if jitter > 0:
        good2 = good2 + rng.normal(0.0, jitter, size=good2.shape)
    if extra:
        bad2 = np.array([[500.0 + 100.0 * t, 250.0 * ((-1) ** t)] for t in range(extra)])
        pts2 = np.vstack([good2, bad2])
    else:
        pts2 = good2
    l1 = list(range(n1))
    l2 = list(range(n1))
    for t in range(conflicts):
        l1.append(t % k)
        l2.append(k + (t % extra) if extra else (t + 1) % k)
    um = UnaryMatches(np.asarray(l1), np.asarray(l2))
    return pairwise_compatibility(um, pts1, pts2, sigma), um


def exhaustive_optimum(c, um):
    """Brute-force best score ratio over all feasible binary selections."""
    l1, l2 = um.l1_indices, um.l2_indices
    best = 0.0
    for bits in itertools.product((0, 1), repeat=um.u):
        m = np.asarray(bits, dtype=float)
        picked = np.flatnonzero(m)
        if picked.size == 0:
            continue
        if np.unique(l1[picked]).size < picked.size:
            continue
        if np.unique(l2[picked]).size < picked.size:
            continue
        best = max(best, float(m @ c @ m / m.sum()))
    return best


def reference_greedy(c, v, um):
    """The greedy loop with C (m * v) recomputed from scratch, O(u^2), on
    every tentative commit; returns (rows, mutual compatibility)."""

    def index(m):
        w = c @ (m * v)
        nw = np.linalg.norm(w)
        return 0.0 if nw == 0.0 else float(np.clip(w @ m / (nw * np.linalg.norm(m)), 0.0, 1.0))

    weight = v**2
    open_mask = np.ones(um.u, dtype=bool)
    indicator = np.zeros(um.u)
    rows, current = [], None
    while open_mask.any():
        g = int(np.argmax(np.where(open_mask, weight, -np.inf)))
        indicator[g] = 1.0
        score = index(indicator)
        if current is not None and score < current:
            break
        current = score
        rows.append(g)
        open_mask &= um.l1_indices != um.l1_indices[g]
        open_mask &= um.l2_indices != um.l2_indices[g]
    return rows, current


def incremental_reference_greedy(c, v, um):
    """The greedy loop with the projection kept by row adds, as in
    ``greedy_select``, and the index from ``np.linalg.norm`` of both
    vectors and ``np.clip``; returns (selected, indicator, mutual
    compatibility, rows)."""

    def index(w, m):
        nw = np.linalg.norm(w)
        return 0.0 if nw == 0.0 else float(np.clip((w @ m) / (nw * np.linalg.norm(m)), 0.0, 1.0))

    l1, l2 = um.l1_indices.tolist(), um.l2_indices.tolist()
    used1, used2 = set(), set()
    indicator = np.zeros(um.u)
    projected = np.zeros(um.u)
    rows, current = [], None
    for g in np.argsort(-(v**2), kind="stable").tolist():
        if l1[g] in used1 or l2[g] in used2:
            continue
        indicator[g] = 1.0
        projected += c[g] * v[g]
        score = index(projected, indicator)
        if current is not None and score < current:
            indicator[g] = 0.0
            break
        current = score
        rows.append(g)
        used1.add(l1[g])
        used2.add(l2[g])
    return tuple((l1[g], l2[g]) for g in rows), indicator, float(current), rows


def reference_power_iteration(c, v0, sign_invariant=False):
    v = v0
    for _ in range(1000):
        y = c @ v
        norm = np.linalg.norm(y)
        if norm == 0.0:
            break
        y /= norm
        step = np.linalg.norm(y - v)
        if sign_invariant:
            step = min(step, np.linalg.norm(y + v))
        v = y
        if step < 1e-9:
            break
    return float(v @ c @ v), v


def reference_eigengap(c, rows):
    """The eigengap by power iteration on the masked u x u matrix, then on
    the deflated matrix from a fixed random start (sign flips ignored)."""
    u = c.shape[0]
    keep = np.zeros(u, dtype=bool)
    keep[rows] = True
    cstar = np.where(keep[:, None] & keep[None, :], c, 0.0)
    if not cstar.any():
        return 0.0
    lam1, v1 = reference_power_iteration(cstar, np.full(u, 1.0 / math.sqrt(u)))
    v0 = np.random.default_rng(0).standard_normal(u)
    v0 -= (v0 @ v1) * v1
    lam2, _ = reference_power_iteration(
        cstar - lam1 * np.outer(v1, v1), v0 / np.linalg.norm(v0), sign_invariant=True
    )
    return float(np.clip((lam1 - lam2) / u, 0.0, 1.0))


@pytest.fixture(scope="module")
def busy_problem(busy_keypoints):
    """Compatibility matrix, eigenvector and candidates of a busy-scene pair."""
    l1, l2 = busy_keypoints
    meta = l1.meta
    um = propose_unary_matches(l1, l2, meta.num_azimuths, meta.num_range_bins, meta.max_range)
    c = pairwise_compatibility(um, l1, l2, meta.range_resolution)
    return c, principal_eigenvector(c), um


def greedy_instances(busy_problem):
    rng = np.random.default_rng(9)
    for _ in range(10):
        c, um = clique_instance(rng, int(rng.integers(3, 9)), extra=int(rng.integers(0, 5)),
                                jitter=float(rng.uniform(0.0, 0.3)), conflicts=int(rng.integers(0, 3)))
        if c.any():
            yield c, principal_eigenvector(c), um
    # four equal eigenvector weights, each candidate sharing a keypoint with
    # two others: the lower-index tie goes first, picking (0, 0) and (1, 1)
    c = np.array([[0.0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    um = UnaryMatches(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0]))
    yield c, principal_eigenvector(c), um
    yield busy_problem


def test_incremental_greedy_selects_what_the_full_recompute_did(busy_problem):
    for c, sol, um in greedy_instances(busy_problem):
        sel = greedy_select(c, sol, um)
        rows, score = reference_greedy(c, sol.eigenvector, um)
        assert [(int(um.l1_indices[g]), int(um.l2_indices[g])) for g in rows] == list(sel.selected)
        assert np.array_equal(np.flatnonzero(sel.indicator), np.sort(rows))
        assert abs(sel.mutual_compatibility - score) <= 1e-12
        # bit for bit against the index taken from both vectors' norms
        selected, indicator, index, rows = incremental_reference_greedy(c, sol.eigenvector, um)
        assert sel.selected == selected
        assert sel.indicator.tobytes() == indicator.tobytes()
        assert sel.mutual_compatibility == index
        assert sel.eigengap == eigengap_measure(c, rows)
    assert len(sel.selected) > 100  # the busy pair came last


def test_eigengap_matches_deflated_power_iteration(busy_problem):
    rng = np.random.default_rng(10)
    cases = []
    for k, extra in ((3, 2), (5, 4), (6, 0)):
        c, um = clique_instance(rng, k, extra=extra, jitter=0.3)
        cases += [(c, list(range(k))), (c, list(range(um.u)))]
    c, sol, um = busy_problem
    cases.append((c, np.flatnonzero(greedy_select(c, sol, um).indicator)))
    # a 2 x 3 bipartite block with weak links inside each part: lambda1 = 2.7
    # and the most negative eigenvalue, -2.2, outweighs every other one
    block = np.zeros((5, 5))
    block[:2, 2:] = block[2:, :2] = 1.0
    block[:2, :2] = 0.3
    block[2:, 2:] = 0.1
    np.fill_diagonal(block, 0.0)
    lam = np.linalg.eigvalsh(block)
    assert lam[0] < -2.0 and -lam[0] > lam[-2] and lam[-1] > -lam[0]
    c = np.zeros((8, 8))
    c[np.ix_([0, 2, 3, 5, 7], [0, 2, 3, 5, 7])] = block
    c[1, 4] = c[4, 1] = 0.8
    cases.append((c, [0, 2, 3, 5, 7]))
    for c, rows in cases:
        assert eigengap_measure(c, rows) == pytest.approx(reference_eigengap(c, rows), abs=1e-9)
    # lambda2 is the dominant negative eigenvalue, not the second largest
    assert eigengap_measure(c, [0, 2, 3, 5, 7]) == pytest.approx((lam[-1] - lam[0]) / 8, abs=1e-12)


def test_eigengap_ignores_the_order_of_the_rows(busy_problem):
    c, sol, um = busy_problem
    rows = np.flatnonzero(greedy_select(c, sol, um).indicator)
    gap = eigengap_measure(c, rows)
    rng = np.random.default_rng(11)
    for _ in range(3):
        assert eigengap_measure(c, rng.permutation(rows)) == gap


@pytest.mark.parametrize("rows", [[-1], [0, 8], [1.0, 2.0], [0, 1.5], [True, False], []])
def test_eigengap_rejects_rows_that_are_not_candidates(rows):
    c, _ = clique_instance(np.random.default_rng(15), 5, extra=3)
    with pytest.raises(ValueError):
        eigengap_measure(c, rows)


def top_two(lam):
    """lambda1 and lambda2 of an ascending spectrum: the rest's negative end
    only if its magnitude beats the positive end by more than two certified
    values can differ, else the positive end."""
    tie = 2 * _LANCZOS_TOL * lam[-1]
    return lam[-1], lam[0] if -lam[0] - lam[-2] > tie else lam[-2]


def lanczos_ritz(block):
    """The kernel run as ``eigengap_measure`` runs it: the block's Ritz
    values, or None if they are not certified."""
    start = np.random.default_rng(0).uniform(0.5, 1.5, (2, block.shape[0]))
    ritz, _, _, certified = _lanczos(block, start, [-1, -2, 0])
    return ritz if certified else None


def embedded(block, rng, extra=20):
    """A (k + extra) x (k + extra) matrix holding ``block`` on random rows,
    with those rows."""
    k = block.shape[0]
    rows = np.sort(rng.choice(k + extra, k, replace=False))
    c = np.zeros((k + extra, k + extra))
    c[np.ix_(rows, rows)] = block
    return c, rows


def lanczos_blocks(busy_problem):
    """Named blocks above the Lanczos crossover on which Lanczos certifies."""
    rng = np.random.default_rng(16)
    # compatibility blocks of random point sets, jittered and with scatter
    for t in range(4):
        c, um = clique_instance(rng, int(rng.integers(230, 300)), extra=int(rng.integers(0, 30)),
                                jitter=float(rng.uniform(0.05, 0.4)))
        yield f"random {t}", c
    # two groups of near-equal, then equal, support: lambda2 = lambda1 - eps
    group, _ = clique_instance(rng, 130, jitter=0.2)
    for eps in (1e-4, 1e-8, 1e-12, 0.0):
        block = np.zeros((260, 260))
        block[:130, :130] = group
        block[130:, 130:] = group * (1.0 - eps)
        perm = rng.permutation(260)
        yield f"near-equal {eps}", block[np.ix_(perm, perm)]
    # equal halves linked across strongly and inside weakly: lambda2 is
    # negative and outweighs every positive eigenvalue after lambda1
    halves = [clique_instance(rng, 130, jitter=0.2)[0] for _ in range(3)]
    block = np.block([[0.3 * halves[0], halves[1]], [halves[1].T, 0.1 * halves[2]]])
    lam = np.linalg.eigvalsh(block)
    assert lam[0] < 0 and -lam[0] > lam[-2]
    yield "bipartite", block
    c, sol, um = busy_problem
    rows = np.flatnonzero(greedy_select(c, sol, um).indicator)
    yield "busy", c[np.ix_(rows, rows)]


def test_lanczos_eigengap_agrees_with_eigvalsh(busy_problem):
    rng = np.random.default_rng(17)
    for name, block in lanczos_blocks(busy_problem):
        assert block.shape[0] >= _LANCZOS_MIN_K, name
        ritz = lanczos_ritz(block)
        assert ritz is not None, name
        lam = np.linalg.eigvalsh(block)
        # lambda1 and both ends of the rest are certified
        ends = [-1, -2, 0]
        assert np.max(np.abs(ritz[ends] - lam[ends])) <= 1e-12 * lam[-1], name
        assert np.all(np.diff(ritz) >= 0), name
        c, rows = embedded(block, rng)
        lam1, lam2 = top_two(lam)
        gap = min(max((lam1 - lam2) / c.shape[0], 0.0), 1.0)
        assert abs(eigengap_measure(c, rows) - gap) <= 1e-12, name


def test_eigengap_falls_back_to_eigvalsh_when_lanczos_cannot_certify():
    rng = np.random.default_rng(18)
    k = _LANCZOS_MIN_K + 30
    clique = np.ones((k, k)) - np.eye(k)  # two distinct eigenvalues: breakdown on step 1
    noise = rng.uniform(0.0, 1.0, (k, k))  # a wide bulk: not certified within the step cap
    for block in (clique, np.triu(noise, 1) + np.triu(noise, 1).T):
        assert lanczos_ritz(block) is None
        c, rows = embedded(block, rng)
        lam1, lam2 = top_two(np.linalg.eigvalsh(block))
        assert eigengap_measure(c, rows) == float(min(max((lam1 - lam2) / c.shape[0], 0.0), 1.0))
    assert eigengap_measure(*embedded(clique, rng)) == pytest.approx(k / (k + 20), abs=1e-12)


def repeated_bipartite_blocks():
    """Two copies of one bipartite block [[0, W], [W^T, 0]], W uniform on
    [0.2, 1] with halves of 30, 60 and 120: lambda1 is repeated, and the
    smallest eigenvalue is -lambda1, so the two ends of the rest tie."""
    rng = np.random.default_rng(3)
    for half in (30, 60, 120):
        w = rng.uniform(0.2, 1.0, (half, half))
        one = np.block([[np.zeros((half, half)), w], [w.T, np.zeros((half, half))]])
        z = np.zeros_like(one)
        yield np.block([[one, z], [z, one]])


@pytest.mark.parametrize("dense", [False, True])
def test_a_repeated_lambda1_gives_no_gap_on_either_path(dense, monkeypatch):
    # the ends of the rest tie at lambda1 and -lambda1; the tie goes to the
    # positive end however either solver rounds them, so lambda2 = lambda1
    if dense:
        monkeypatch.setattr(matching, "_LANCZOS_MIN_K", 10**9)
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert eigengap_measure(np.kron(np.eye(2), pair), [0, 1, 2, 3]) == 0.0
    for block in repeated_bipartite_blocks():
        k = block.shape[0]
        assert dense or k < _LANCZOS_MIN_K or lanczos_ritz(block) is not None
        assert eigengap_measure(block, np.arange(k)) <= 1e-15, k


def selection_score(c, sel):
    m = sel.indicator
    return float(m @ c @ m / m.sum())


def dense_distances(p):
    """The whole (u, u) distance matrix of the points ``p``."""
    dx = p[:, 0:1] - p[None, :, 0]
    dy = p[:, 1:2] - p[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def dense_compatibility(um, pts1, pts2, sigma):
    """C from both whole (u, u) distance matrices, with the kernel, the
    3 sigma cut and the conflict mask over the whole matrix: the reference
    the upper-triangle blocks must match bit for bit."""
    p1 = np.asarray(getattr(pts1, "xy", pts1), dtype=float)[um.l1_indices]
    p2 = np.asarray(getattr(pts2, "xy", pts2), dtype=float)[um.l2_indices]
    d1, d2 = dense_distances(p1), dense_distances(p2)
    delta = np.abs(d1 - d2)
    c = np.exp(-np.square(delta) / (2.0 * sigma**2))
    c[delta > 3.0 * sigma] = 0.0
    i1, i2 = um.l1_indices, um.l2_indices
    c[(i1[:, None] == i1[None, :]) | (i2[:, None] == i2[None, :])] = 0.0
    return c


@pytest.fixture(scope="module")
def noisy_pair():
    """Keypoints of two noisy 400x500 scans 0.75 m apart, as in seq_noisy."""
    meta = SensorMeta(num_azimuths=400, num_range_bins=500, range_resolution=0.2, scan_period=0.25)
    world = random_world(120, 80.0, seed=0, min_range=6.0, min_separation=3.0)
    return tuple(
        extract_keypoints(render_scan(world, pose, meta, NOISY_ARTIFACTS, seed=200 + k), 600)
        for k, pose in enumerate((Pose2(), Pose2(0.75, 0.0, 0.0)))
    )


def test_compatibility_equals_the_dense_formula_on_real_pairs(noisy_pair, busy_keypoints):
    for l1, l2 in (noisy_pair, busy_keypoints):
        meta = l1.meta
        um = propose_unary_matches(l1, l2, meta.num_azimuths, meta.num_range_bins, meta.max_range)
        c = pairwise_compatibility(um, l1, l2, meta.range_resolution)
        assert np.array_equal(c, dense_compatibility(um, l1, l2, meta.range_resolution))
        assert np.array_equal(c, c.T)
        assert um.u % 64 != 0  # the last row block is a partial one
        assert np.count_nonzero(c) > um.u


@pytest.mark.parametrize("u", [2, 63, 64, 65, 130])
def test_compatibility_equals_the_dense_formula_on_candidate_lists(u):
    rng = np.random.default_rng(u)
    # few keypoints per side, so L1 and L2 indices repeat
    pts1 = rng.uniform(-10.0, 10.0, size=(23, 2))
    pts2 = apply_pose(Pose2(1.0, -0.5, 0.2), pts1) + rng.normal(0.0, 0.3, (23, 2))
    for sigma in (SIGMA, 0.25, 1.0):
        # about half the candidates are true matches, so C mixes kernel
        # values with cut and conflict zeros
        l1 = rng.integers(0, 23, u)
        l2 = np.where(rng.random(u) < 0.5, l1, rng.integers(0, 23, u))
        um = UnaryMatches(l1, l2)
        c = pairwise_compatibility(um, pts1, pts2, sigma)
        assert np.array_equal(c, dense_compatibility(um, pts1, pts2, sigma))
        assert np.array_equal(c, c.T)


def test_compatibility_matrix_shape_and_symmetry():
    rng = np.random.default_rng(0)
    c, um = clique_instance(rng, 5, extra=3, jitter=0.1)
    assert c.shape == (8, 8)
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) == 0)
    assert c.min() >= 0.0
    assert c.max() <= 1.0


def test_compatibility_cutoff_is_exact_zero():
    pts1 = np.array([[0.0, 0.0], [10.0, 0.0]])
    pts2 = np.array([[0.0, 0.0], [20.0, 0.0]])  # length mismatch 10 >> 3*sigma
    um = UnaryMatches(np.arange(2), np.arange(2))
    c = pairwise_compatibility(um, pts1, pts2, SIGMA)
    assert c[0, 1] == 0.0


def test_compatibility_gaussian_value():
    pts1 = np.array([[0.0, 0.0], [10.0, 0.0]])
    pts2 = np.array([[0.0, 0.0], [10.3, 0.0]])
    um = UnaryMatches(np.arange(2), np.arange(2))
    c = pairwise_compatibility(um, pts1, pts2, SIGMA)
    assert c[0, 1] == pytest.approx(math.exp(-0.3**2 / (2 * SIGMA**2)), abs=1e-12)


def test_compatibility_zeroes_shared_keypoints():
    pts1 = np.array([[0.0, 0.0], [10.0, 0.0]])
    pts2 = np.array([[0.0, 0.0], [10.0, 0.0]])
    um = UnaryMatches(np.array([0, 0, 1]), np.array([0, 1, 1]))
    c = pairwise_compatibility(um, pts1, pts2, SIGMA)
    assert c[0, 1] == 0.0  # shared L1 keypoint
    assert c[1, 2] == 0.0  # shared L2 keypoint
    assert c[0, 2] > 0.0


def test_compatibility_needs_two_candidates():
    um = UnaryMatches(np.array([0]), np.array([0]))
    with pytest.raises(DegenerateProblemError):
        pairwise_compatibility(um, np.zeros((1, 2)), np.zeros((1, 2)), SIGMA)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.nextafter(2.0**510, math.inf)])
def test_compatibility_rejects_clouds_whose_distances_could_overflow(bad):
    um = UnaryMatches(np.arange(2), np.arange(2))
    good = np.array([[0.0, 0.0], [10.0, 0.0]])
    bad_pts = np.array([[0.0, 0.0], [0.0, bad]])
    for pts1, pts2 in ((bad_pts, good), (good, bad_pts)):
        with pytest.raises(ValueError, match="coordinates"):
            pairwise_compatibility(um, pts1, pts2, SIGMA)


def test_compatibility_at_the_coordinate_bound_is_finite():
    # the farthest pair the bound admits, the same on both sides
    pts = np.array([[2.0**510, 2.0**510], [-(2.0**510), -(2.0**510)]])
    um = UnaryMatches(np.arange(2), np.arange(2))
    c = pairwise_compatibility(um, pts, pts, SIGMA)
    assert np.array_equal(c, [[0.0, 1.0], [1.0, 0.0]])


def test_compatibility_rejects_bad_sigma():
    # past 2**511, 2 sigma**2 can overflow (1e155 raised OverflowError);
    # below 2**-511 it can round to zero (1e-200 made 0 / -0.0 entries)
    um = UnaryMatches(np.arange(2), np.arange(2))
    for sigma in (0.0, -1.0, math.nan, math.inf, 1e155, np.nextafter(2.0**511, math.inf),
                  np.nextafter(2.0**-511, 0.0), 1e-200):
        with pytest.raises(ValueError, match=r"sigma must be in \[2\*\*-511, 2\*\*511\]"):
            pairwise_compatibility(um, np.zeros((2, 2)), np.zeros((2, 2)), sigma)


def test_compatibility_at_the_sigma_bounds_is_finite():
    um = UnaryMatches(np.arange(3), np.arange(3))
    pts1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    pts2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    for sigma in (2.0**-511, 2.0**511):
        c = pairwise_compatibility(um, pts1, pts2, sigma)
        assert np.all(np.isfinite(c))
        assert c[0, 1] == 1.0


def test_compatibility_of_a_discrepancy_far_past_the_cut_is_zero():
    # (1e5)**2 / (2 sigma**2) overflows at sigma = 1e-150; the entry is past
    # the 3 sigma cut, so it is zero with no overflow warning
    um = UnaryMatches(np.arange(2), np.arange(2))
    pts1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    pts2 = np.array([[0.0, 0.0], [1.0 + 1e5, 0.0]])
    c = pairwise_compatibility(um, pts1, pts2, 1e-150)
    assert np.array_equal(c, np.zeros((2, 2)))
    c = pairwise_compatibility(um, pts1, pts1, 1e-150)
    assert np.array_equal(c, [[0.0, 1.0], [1.0, 0.0]])


def test_principal_eigenvector_two_by_two():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    sol = principal_eigenvector(c)
    assert sol.eigenvalue == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(sol.eigenvector, [1 / math.sqrt(2)] * 2, atol=1e-9)


def test_principal_eigenvector_rejects_zero_matrix():
    with pytest.raises(NoCompatibilityError):
        principal_eigenvector(np.zeros((3, 3)))


@pytest.mark.parametrize("c", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[1.0, 0.7], [0.7, 0.25]],
    [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    [[0.0, 0.0, 0.5], [0.0, 0.0, 1.0], [0.5, 1.0, 0.0]],
    [[0.0, 0.25, 1.0], [0.25, 0.0, 1.0], [1.0, 1.0, 0.0]],
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
])
def test_the_eigenvector_survives_a_krylov_space_that_fills_at_once(c):
    # the Krylov space of a 2 x 2 or 3 x 3 matrix fills within u products,
    # and on several of these the next Lanczos vector is exactly zero: the
    # run must end as a breakdown, not divide 0/0 (a RuntimeWarning, which
    # the pytest settings turn into an error), and keep its top Ritz pair
    c = np.array(c)
    u = c.shape[0]
    ritz, v, products, certified = _lanczos(c, np.ones((1, u)), [-1])
    assert not certified and products <= u
    lam, vecs = np.linalg.eigh(c)
    top = vecs[:, -1] * np.sign(vecs[:, -1].sum())
    assert ritz[-1] == pytest.approx(lam[-1], rel=1e-14)
    # the Ritz vector can come out negative ([[1, 0.7], [0.7, 0.25]] does):
    # the eigenvector is turned to the non-negative side
    sol = principal_eigenvector(c)
    assert np.all(sol.eigenvector >= 0.0)
    assert np.max(np.abs(sol.eigenvector - top)) <= 1e-14
    assert sol.eigenvalue == ritz[-1] and sol.iterations == products


def test_principal_eigenvector_resolves_two_near_equal_groups():
    # two consistent groups under different motions, 450 and 420 candidates:
    # lambda2 / lambda1 ~ 0.925, two motions explaining the scene almost
    # equally; power iteration needed 230 steps here and ended 1.2e-8 off
    rng = np.random.default_rng(0)
    pts1 = rng.uniform(-60.0, 60.0, size=(870, 2))
    pts2 = np.vstack([apply_pose(random_pose(rng, t_scale=3.0), pts1[:450]),
                      apply_pose(random_pose(rng, t_scale=3.0), pts1[450:])])
    pts2 += rng.normal(0.0, 0.2, size=pts2.shape)
    um = UnaryMatches(np.arange(870), np.arange(870))
    c = pairwise_compatibility(um, pts1, pts2, SIGMA)
    lam, vecs = np.linalg.eigh(c)
    assert 0.92 < lam[-2] / lam[-1] < 0.94
    sol = principal_eigenvector(c)
    assert sol.iterations <= _LANCZOS_STEPS
    assert np.linalg.norm(sol.eigenvector - np.abs(vecs[:, -1])) <= 1e-12
    assert sol.eigenvalue == pytest.approx(lam[-1], rel=1e-13)


def test_mutual_compatibility_bounds_and_zero_cases():
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    sol = SpectralSolution(eigenvector=v, eigenvalue=1.0, iterations=1)
    um = UnaryMatches(np.array([0, 1]), np.array([0, 1]))
    # the first commit's projection is orthogonal to its indicator (index
    # 0), the second's parallel to both commits' (index 1), so both stay
    sel = greedy_select(np.array([[0.0, 1.0], [1.0, 0.0]]), sol, um)
    assert sel.selected == ((0, 0), (1, 1))
    assert sel.mutual_compatibility == pytest.approx(1.0, abs=1e-12)
    # a selection the matrix does not support at all scores zero
    sel = greedy_select(np.zeros((2, 2)), sol, um)
    assert sel.selected == ((0, 0), (1, 1))
    assert sel.mutual_compatibility == 0.0


def test_eigengap_of_clique_is_k_over_u():
    rng = np.random.default_rng(3)
    for k, extra in ((3, 2), (5, 4), (7, 1)):
        c, um = clique_instance(rng, k, extra=extra)
        gap = eigengap_measure(c, list(range(k)))
        assert gap == pytest.approx(k / um.u, abs=1e-6)


def test_eigengap_zero_for_unsupported_selection():
    rng = np.random.default_rng(4)
    c, um = clique_instance(rng, 4, extra=2)
    # the scatter candidates have no mutual support at all
    assert eigengap_measure(c, [4, 5]) == 0.0


def test_greedy_selects_the_clique():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(3, 8))
        c, um = clique_instance(rng, k, extra=int(rng.integers(1, 4)))
        sol = principal_eigenvector(c)
        sel = greedy_select(c, sol, um)
        assert sorted(p[0] for p in sel.selected) == list(range(k))
        assert np.array_equal(np.flatnonzero(sel.indicator), np.arange(k))
        assert sel.mutual_compatibility == pytest.approx(1.0, abs=1e-9)


def test_greedy_respects_uniqueness():
    rng = np.random.default_rng(6)
    for _ in range(10):
        c, um = clique_instance(
            rng, int(rng.integers(3, 7)), extra=2, jitter=0.2, conflicts=2
        )
        sol = principal_eigenvector(c)
        sel = greedy_select(c, sol, um)
        picked = np.flatnonzero(sel.indicator)
        l1 = um.l1_indices[picked]
        l2 = um.l2_indices[picked]
        assert np.unique(l1).size == l1.size
        assert np.unique(l2).size == l2.size


def test_greedy_commit_order_follows_eigenvector_weight():
    rng = np.random.default_rng(7)
    c, um = clique_instance(rng, 5, extra=2, jitter=0.15)
    sol = principal_eigenvector(c)
    sel = greedy_select(c, sol, um)
    first_l1, first_l2 = sel.selected[0]
    g = int(np.argmax(sol.eigenvector**2))
    assert (um.l1_indices[g], um.l2_indices[g]) == (first_l1, first_l2)


def test_greedy_stops_before_poor_match():
    # two strongly compatible candidates plus one that barely agrees:
    # committing the third would dilute the mutual compatibility
    c = np.array(
        [
            [0.0, 1.0, 0.01],
            [1.0, 0.0, 0.01],
            [0.01, 0.01, 0.0],
        ]
    )
    um = UnaryMatches(np.arange(3), np.arange(3))
    sel = greedy_select(c, principal_eigenvector(c), um)
    assert len(sel.selected) == 2
    assert sel.indicator[2] == 0.0


def test_greedy_dominates_090_of_exhaustive_when_noisy():
    rng = np.random.default_rng(8)
    done = 0
    while done < 25:
        k = int(rng.integers(3, 8))
        extra = int(rng.integers(0, 4))
        c, um = clique_instance(rng, k, extra=extra, jitter=0.2, conflicts=int(rng.integers(0, 3)))
        if um.u > 12 or not c.any():
            continue
        sel = greedy_select(c, principal_eigenvector(c), um)
        assert selection_score(c, sel) >= 0.9 * exhaustive_optimum(c, um) - 1e-12
        done += 1
