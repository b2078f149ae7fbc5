"""End-to-end acceptance checks, one numbered test per shipped claim.

Every test finishes with a single ``PASS n: ...`` line carrying the measured
numbers, so a verbose test log doubles as the acceptance report. Tolerances
are pinned in the asserts, not in helper indirection.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from radarodo import (
    ArtifactModel,
    IcpConfig,
    IcpDivergedError,
    PipelineConfig,
    Pose2,
    SensorMeta,
    apply_pose,
    estimate_se2,
    extract_keypoints,
    icp_match,
    inverse,
    match_keypoint_sets,
    random_world,
    relative_pose,
    render_scan,
    render_sequence,
    run_odometry,
)
from radarodo.cli import main
from radarodo.descriptors import descriptor_matrix
from radarodo.keypoints import mark_regions, scoring_image
from radarodo.matching import greedy_select, principal_eigenvector
from radarodo.scan import PolarScan
from radarodo.se2 import wrap_angle

from conftest import (
    NOISY_ARTIFACTS, child_env, close_world, composite_trajectory, random_cloud, random_pose,
)
from test_keypoints import FIXTURE_A, FIXTURE_B, FIXTURE_C, FIXTURE_D, pairs_of, scan_of
from test_matching import clique_instance, exhaustive_optimum, selection_score

META = SensorMeta(num_azimuths=256, num_range_bins=120, range_resolution=0.5, scan_period=0.25)
QUIET = ArtifactModel(
    speckle_scale=0.0, background_noise=0.0, false_positive_rate=0.0, dropout_prob=0.0
)
CFG = PipelineConfig(l_max=200, alpha=64, rho=64)


def pair_errors(result, traj):
    t_err, r_err = [], []
    for k, pair in enumerate(result.pairs):
        truth = relative_pose(traj.poses[k], traj.poses[k + 1])
        t_err.append(math.hypot(pair.pose.x - truth.x, pair.pose.y - truth.y))
        r_err.append(abs(wrap_angle(pair.pose.theta - truth.theta)))
    return np.asarray(t_err), np.asarray(r_err)


def test_01_real_sensor_figures_are_out_of_scope():
    # no recorded radar datasets ship with this repository, so published
    # drive-data error medians cannot be checked here; what stands in is
    # the synthetic + property suite below, plus the shipped operating
    # defaults that those figures were produced with
    assert PipelineConfig().l_max == 1000
    assert IcpConfig().nn_radius == 2.0
    assert IcpConfig().convergence_tol == 1e-5
    assert META.scan_period == 0.25  # 4 Hz rotation
    print(
        "PASS 1: real-sensor medians out of scope (no datasets available); "
        "defaults pinned: l_max=1000, icp nn=2.0 m, tol=1e-5, 4 Hz"
    )


def test_02_noiseless_end_to_end_recovery():
    traj = composite_trajectory(
        speed=3.0, yaw_rate=0.2, dt=0.25, straight_steps=10, arc_steps=11
    )
    assert len(traj.poses) == 20
    world = close_world(0)
    positions = np.array([lm.position for lm in world])
    for pose in traj.poses:
        rel = apply_pose(inverse(pose), positions)
        visible = int((np.hypot(rel[:, 0], rel[:, 1]) < META.max_range).sum())
        assert visible >= 15
    scans = render_sequence(world, traj, META, QUIET, seed=100)
    t0 = time.perf_counter()
    result = run_odometry(scans, CFG)
    elapsed = time.perf_counter() - t0
    t_err, r_err = pair_errors(result, traj)
    assert result.failure_count == 0
    assert t_err.max() <= META.range_resolution / 2
    assert r_err.max() <= math.radians(0.5)
    assert elapsed <= 30.0
    print(
        f"PASS 2: 19/19 noiseless pairs, worst translation {t_err.max():.3f} m "
        f"(<= {META.range_resolution / 2}), worst rotation {math.degrees(r_err.max()):.3f} deg "
        f"(<= 0.5), runtime {elapsed:.1f} s (<= 30)"
    )


def test_03_noisy_robustness_over_ten_seeds():
    traj = composite_trajectory(
        speed=3.0, yaw_rate=0.2, dt=0.25, straight_steps=10, arc_steps=11
    )
    t_all = []
    pairs = failures = 0
    for seed in range(10):
        world = close_world(seed)
        scans = render_sequence(world, traj, META, NOISY_ARTIFACTS, seed=200 + seed)
        result = run_odometry(scans, CFG)
        t_err, _ = pair_errors(result, traj)
        t_all.extend(t_err)
        pairs += len(result.pairs)
        failures += result.failure_count
    median = float(np.median(t_all))
    assert median <= 2 * META.range_resolution
    assert failures <= 0.05 * pairs
    print(
        f"PASS 3: noisy median translation error {median:.3f} m (<= {2 * META.range_resolution}), "
        f"{pairs - failures}/{pairs} pairs non-failed (>= 95%), 10 seeds"
    )


def test_04_restricting_compatibility_never_raises_the_score():
    rng = np.random.default_rng(4)
    equality_cases = 0
    for trial in range(200):
        u = int(rng.integers(4, 24))
        a = rng.random((u, u))
        c = (a + a.T) / 2.0
        np.fill_diagonal(c, 0.0)
        keep = np.zeros(u, dtype=bool)
        keep[rng.choice(u, size=int(rng.integers(2, u)), replace=False)] = True
        c_star = c * np.outer(keep, keep)
        if trial % 2:
            inside = np.flatnonzero(keep)
            m = np.zeros(u)
            m[rng.choice(inside, size=int(rng.integers(1, inside.size + 1)), replace=False)] = 1.0
        else:
            m = (rng.random(u) < 0.5).astype(float)
            if not m.any():
                m[int(rng.integers(0, u))] = 1.0
        # the Rayleigh quotient of the indicator: consistency per match
        g_full = m @ c @ m / (m @ m)
        g_star = m @ c_star @ m / (m @ m)
        assert g_full >= g_star - 1e-12
        if keep[m.astype(bool)].all():
            assert abs(g_full - g_star) <= 1e-12
            equality_cases += 1
    assert equality_cases >= 50
    print(
        f"PASS 4: score never rises under restriction on 200 instances "
        f"({equality_cases} equality cases inside the kept rows, tol 1e-12)"
    )


def test_05_eigenvector_recovers_true_matches_when_noiseless():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(3, 11))
        extra = int(rng.integers(1, 6))
        c, um = clique_instance(rng, k, extra=extra)
        sol = principal_eigenvector(c)
        want = np.zeros(um.u)
        want[:k] = 1.0 / math.sqrt(k)
        assert np.max(np.abs(sol.eigenvector - want)) < 1e-6
    print(
        "PASS 5: principal eigenvector equals the normalized true-match "
        "indicator on 50 noiseless instances (1e-6 per entry)"
    )


def test_06_greedy_selection_against_exhaustive_search():
    rng = np.random.default_rng(6)
    worst_noisy = 1.0
    for noisy in (False, True):
        done = 0
        while done < 100:
            k = int(rng.integers(3, 8))
            extra = int(rng.integers(0, 4))
            conflicts = int(rng.integers(0, 3))
            c, um = clique_instance(
                rng, k, extra=extra, jitter=0.2 if noisy else 0.0, conflicts=conflicts
            )
            if um.u > 12 or not c.any():
                continue
            sel = greedy_select(c, principal_eigenvector(c), um)
            picked = np.flatnonzero(sel.indicator)
            assert set(sel.indicator) <= {0.0, 1.0}
            assert np.unique(um.l1_indices[picked]).size == picked.size
            assert np.unique(um.l2_indices[picked]).size == picked.size
            score = selection_score(c, sel)
            opt = exhaustive_optimum(c, um)
            if noisy:
                assert score >= 0.9 * opt - 1e-12
                if opt > 0:
                    worst_noisy = min(worst_noisy, score / opt)
            else:
                assert abs(score - opt) <= 1e-12 * max(1.0, opt)
            done += 1
    print(
        f"PASS 6: greedy feasible on 200 instances, optimal on 100 noiseless, "
        f">= 0.9x optimum on 100 noisy (worst ratio {worst_noisy:.3f})"
    )


def test_07_principal_eigenvector_against_dense_eigensolver():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        u = int(rng.integers(2, 51))
        a = rng.random((u, u))
        c = (a + a.T) / 2.0
        np.fill_diagonal(c, 0.0)
        sol = principal_eigenvector(c)
        top = float(np.linalg.eigvalsh(c)[-1])
        rel = abs(sol.eigenvalue - top) / abs(top)
        worst = max(worst, rel)
        assert rel < 1e-6
    print(f"PASS 7: principal eigenvalue within 1e-6 relative of dense solver on 100 matrices (worst {worst:.2e})")


def test_08_descriptors_are_rotation_invariant():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        xy = random_cloud(rng, int(rng.integers(2, 41)), spread=40.0)
        theta = rng.uniform(-math.pi, math.pi)
        d1 = descriptor_matrix(xy, 16, 12, 60.0)
        d2 = descriptor_matrix(apply_pose(Pose2(0.0, 0.0, theta), xy), 16, 12, 60.0)
        worst = max(worst, float(np.max(np.abs(d1 - d2))))
    assert worst < 1e-9
    print(f"PASS 8: rotation about the sensor moved descriptors by at most {worst:.2e} (< 1e-9), 100 sets")


def test_09_keypoint_extraction_contract():
    rng = np.random.default_rng(9)
    # region budget is a hard cap
    for _ in range(50):
        m = int(rng.integers(4, 16))
        n = int(rng.integers(8, 48))
        h = rng.standard_normal((m, n))
        s_prime = rng.standard_normal((m, n))
        l_max = int(rng.integers(1, 20))
        _, count = mark_regions(h, s_prime, l_max)
        assert count <= l_max
    # constant power offsets cannot change the result
    for _ in range(10):
        power = rng.random((12, 30)) * 5.0
        base = pairs_of(extract_keypoints(scan_of(power), l_max=12))
        assert pairs_of(extract_keypoints(scan_of(power + 11.0), l_max=12)) == base
    # single-azimuth blobs never become keypoints, wherever they sit
    for trial in range(5):
        power = np.zeros((16, 40))
        rows = (np.arange(5) * 3 + trial % 3)[:5]
        for row in rows:
            power[row, int(rng.integers(2, 38))] = float(rng.uniform(2.0, 9.0))
        assert len(extract_keypoints(scan_of(power), l_max=30)) == 0
    # hand-traced fixtures, exact outputs
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_A), l_max=3)) == [(1, 10), (2, 10), (3, 10)]
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_A), l_max=2)) == [(1, 10), (2, 10)]
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_B), l_max=1)) == []
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_C), l_max=2)) == [(0, 10), (4, 10)]
    assert pairs_of(extract_keypoints(scan_of(FIXTURE_D), l_max=4)) == [(1, 4), (2, 4), (3, 4)]
    print(
        "PASS 9: region cap held on 50 grids, offset invariance on 10, "
        "isolated blips rejected, 4 hand-traced fixtures exact"
    )


def test_10_rigid_estimator_against_oracles():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        pose = random_pose(rng)
        src = random_cloud(rng, int(rng.integers(2, 50)))
        est = estimate_se2(src, apply_pose(pose, src))
        assert math.hypot(est.x - pose.x, est.y - pose.y) < 1e-9
        assert abs(wrap_angle(est.theta - pose.theta)) < 1e-9
    thetas = np.linspace(-math.pi, math.pi, 2001)
    step = thetas[1] - thetas[0]
    for _ in range(50):
        pose = random_pose(rng)
        src = random_cloud(rng, 25)
        dst = apply_pose(pose, src) + rng.normal(0.0, 0.25, size=(25, 2))
        est = estimate_se2(src, dst)
        mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
        best_sse, best_theta = math.inf, None
        for th in thetas:
            c, s = math.cos(th), math.sin(th)
            rot = np.array([[c, -s], [s, c]])
            t = mu_d - rot @ mu_s
            sse = float(((src @ rot.T + t - dst) ** 2).sum())
            if sse < best_sse:
                best_sse, best_theta = sse, th
        est_sse = float(((apply_pose(est, src) - dst) ** 2).sum())
        assert est_sse <= best_sse + 1e-9
        assert abs(wrap_angle(est.theta - best_theta)) <= step
    print(
        "PASS 10: 1000 exact transforms recovered to 1e-9; 50 noisy fits at or "
        "below the 2001-point rotation-grid oracle (within one grid step)"
    )


def test_11_icp_needs_a_prior_but_graph_matching_does_not():
    world = close_world(2)
    truth = Pose2(5.0, 0.0, 0.0)
    scan_a = render_scan(world, Pose2(), META, QUIET, seed=11, timestamp=0.0)
    scan_b = render_scan(world, truth, META, QUIET, seed=12, timestamp=0.25)
    kp_a = extract_keypoints(scan_a, CFG.l_max)
    kp_b = extract_keypoints(scan_b, CFG.l_max)
    try:
        fitted, _ = icp_match(kp_a.xy, kp_b.xy)
        icp_err = math.hypot(inverse(fitted).x - truth.x, inverse(fitted).y - truth.y)
    except IcpDivergedError:
        icp_err = math.inf
    pose, _ = match_keypoint_sets(kp_a, kp_b, CFG)
    graph_err = math.hypot(pose.x - truth.x, pose.y - truth.y)
    assert icp_err > 1.0
    assert graph_err < 2 * META.range_resolution
    print(
        f"PASS 11: 5 m jump from identity init: icp error "
        f"{'diverged' if icp_err == math.inf else f'{icp_err:.2f} m'} (> 1 m), "
        f"graph matching error {graph_err:.3f} m (< {2 * META.range_resolution} m)"
    )


def test_12_wall_time_scaling_slopes(tmp_path):
    # timed in a fresh interpreter at one BLAS thread: allocator settings are
    # process-wide, and an in-process odometry call fixes glibc's for good
    out = tmp_path / "bench"
    proc = subprocess.run([sys.executable, "-m", "radarodo.cli", "bench", "--out", str(out)],
                          env=child_env(blas_threads=1), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    rows = (out / "bench.csv").read_text().splitlines()
    assert rows[0] == "stage,parameter,seconds,detail"
    assert len(rows) == 7
    summary = dict(
        line.split(" = ") for line in (out / "bench_summary.txt").read_text().splitlines()
    )
    assert summary.keys() == {"association_slope", "extraction_slope"}
    assoc_slope = float(summary["association_slope"])
    extract_slope = float(summary["extraction_slope"])
    assert 1.6 <= assoc_slope <= 3.4
    assert 0.8 <= extract_slope <= 1.5
    print(
        f"PASS 12: association slope {assoc_slope:.2f} in [1.6, 3.4] over a 4x budget sweep, "
        f"extraction slope {extract_slope:.2f} in [0.8, 1.5] over a 16x grid sweep"
    )


DET_CONFIG = """
kind = straight
steps = 4
speed = 3.0
num_azimuths = 256
num_range_bins = 120
range_resolution = 0.5
n_landmarks = 35
world_extent = 28.0
min_range = 6.0
min_separation = 3.0
speckle_scale = 0.3
background_noise = 0.05
false_positive_rate = 7.0
dropout_prob = 0.2
"""


def _run(argv):
    assert main(argv) == 0


def _same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


def _manifests_match(a, b):
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    for m in (ma, mb):
        m.pop("timings_s")
        m["inputs"] = [p.rsplit("/", 1)[-1] for p in m["inputs"]]
        m["outputs"] = [p.rsplit("/", 1)[-1] for p in m["outputs"]]
    return ma == mb


def _metrics_match(a, b):
    keep = lambda text: [l for l in text.splitlines() if not l.startswith("timing_")]
    return keep(a.read_text()) == keep(b.read_text())


def test_13_every_entry_point_is_deterministic(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DET_CONFIG)
    runs = {}
    for tag in ("x", "y"):
        root = tmp_path / tag
        data = root / "data"
        _run(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(data)])
        _run([
            "extract", "--l-max", "200",
            "--scan", str(data / "scan_00000.rscan"), "--out", str(root / "kp.csv"),
        ])
        _run([
            "odometry", "--l-max", "200", "--plot",
            "--dataset", str(data), "--out", str(root / "ro"),
        ])
        _run([
            "odometry", "--l-max", "200", "--method", "icp", "--plot",
            "--dataset", str(data), "--out", str(root / "icp"),
        ])
        _run([
            "eval", "--trajectory", str(root / "ro" / "trajectory.csv"),
            "--truth", str(data / "truth.csv"), "--out", str(root / "eval.txt"), "--plot",
        ])
        _run(["bench", "--out", str(root / "bench")])
        runs[tag] = root
    x, y = runs["x"], runs["y"]
    for k in range(4):
        assert _same_bytes(x / "data" / f"scan_{k:05d}.rscan", y / "data" / f"scan_{k:05d}.rscan")
    assert _same_bytes(x / "data" / "truth.csv", y / "data" / "truth.csv")
    assert _manifests_match(x / "data", y / "data")
    assert _same_bytes(x / "kp.csv", y / "kp.csv")
    for method in ("ro", "icp"):
        assert _same_bytes(x / method / "trajectory.csv", y / method / "trajectory.csv")
        assert _same_bytes(x / method / "trajectory.svg", y / method / "trajectory.svg")
        assert _metrics_match(x / method / "metrics.txt", y / method / "metrics.txt")
        assert _manifests_match(x / method, y / method)
    assert _same_bytes(x / "eval.txt", y / "eval.txt")
    assert _same_bytes(x / "eval.svg", y / "eval.svg")
    strip_seconds = lambda p: [
        ",".join(v for i, v in enumerate(line.split(",")) if i != 2)
        for line in (p / "bench" / "bench.csv").read_text().splitlines()
    ]
    assert strip_seconds(x) == strip_seconds(y)
    print(
        "PASS 13: simulate/extract/odometry(ro,icp)/eval and their plots byte-identical "
        "across two runs; bench identical outside wall-clock columns"
    )
