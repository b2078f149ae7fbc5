"""Scan-to-scan motion estimation, whole-sequence odometry and evaluation.

For each consecutive scan pair: extract keypoints, propose descriptor
matches, select a consistent subset spectrally, and fit an SE(2) transform.
The relative pose convention is "scan_b's frame expressed in scan_a's
frame", i.e. for a landmark seen in both scans  p_a = R p_b + t.  The
smaller keypoint set always drives the matching; the fitted transform is
inverted if the sets were swapped to arrange that.

``run_odometry`` is the one loop that chains scan pairs. It takes any pair
matcher ``(kp_a, kp_b) -> (pose, stats)`` (``match_keypoint_sets`` with the
config by default, or ``icp.icp_matcher`` for the ICP baseline), so both
methods share its input checks, timings, failure reasons and
constant-velocity fallback. ``evaluate`` scores the per-pair poses against
ground truth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .descriptors import propose_unary_matches
from .errors import MatchFailureError, RadarOdoError
from .keypoints import KeypointSet, extract_keypoints
from .matching import greedy_select, pairwise_compatibility, principal_eigenvector
from .scan import PolarScan
from .se2 import Pose2, apply_pose, compose, estimate_se2, inverse, relative_pose, wrap_angle
from .simulate import TrajectorySpec


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables for pair matching. ``alpha``/``rho`` default to the scan's
    azimuth/range bin counts and ``sigma_c`` to the range resolution."""

    l_max: int = 1000
    alpha: int | None = None
    rho: int | None = None
    sigma_c: float | None = None

    def __post_init__(self):
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")


@dataclass(frozen=True, eq=False)
class PairResult:
    """Relative pose and diagnostics for one consecutive scan pair."""

    t_a: float
    t_b: float
    pose: Pose2
    u: int = 0
    n_selected: int = 0
    mutual_compatibility: float = 0.0
    eigengap: float = 0.0
    residual_rms: float = 0.0
    timings: dict = field(default_factory=dict)
    failed: bool = False
    failure_reason: str = ""


@dataclass(frozen=True, eq=False)
class OdometryResult:
    pairs: tuple
    trajectory: tuple  # one pose per scan, first is the identity
    timestamps: np.ndarray

    @property
    def failure_count(self) -> int:
        return sum(1 for p in self.pairs if p.failed)


@dataclass(frozen=True)
class EvalMetrics:
    n_pairs: int
    translation_median: float
    translation_std: float
    rotation_median: float
    rotation_std: float


def match_keypoint_sets(
    kp_a: KeypointSet,
    kp_b: KeypointSet,
    cfg: PipelineConfig,
    dt: float | None = None,
):
    """Match two keypoint sets; returns (pose of b in a's frame, stats dict).

    ``dt`` is accepted for older callers and ignored.

    Raises errors from the matching stages, or MatchFailureError when fewer
    than two matches survive selection.
    """
    meta = kp_a.meta
    alpha = cfg.alpha if cfg.alpha is not None else meta.num_azimuths
    rho = cfg.rho if cfg.rho is not None else meta.num_range_bins
    sigma = cfg.sigma_c if cfg.sigma_c is not None else meta.range_resolution
    swapped = len(kp_a) > len(kp_b)
    l1, l2 = (kp_b, kp_a) if swapped else (kp_a, kp_b)

    timings = {}
    t0 = time.perf_counter()
    unary = propose_unary_matches(l1, l2, alpha, rho, meta.max_range)
    timings["describe"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    c = pairwise_compatibility(unary, l1, l2, sigma)
    solution = principal_eigenvector(c)
    selection = greedy_select(c, solution, unary)
    timings["match"] = time.perf_counter() - t0

    stats = {
        "u": unary.u,
        "n_selected": len(selection.selected),
        "mutual_compatibility": selection.mutual_compatibility,
        "eigengap": selection.eigengap,
        "timings": timings,
    }
    if len(selection.selected) < 2:
        raise MatchFailureError("fewer than 2 matches selected", diagnostics=stats)

    t0 = time.perf_counter()
    idx1 = np.array([g for g, _ in selection.selected])
    idx2 = np.array([h for _, h in selection.selected])
    fitted = estimate_se2(l1.xy[idx1], l2.xy[idx2])
    resid = apply_pose(fitted, l1.xy[idx1]) - l2.xy[idx2]
    stats["residual_rms"] = float(np.sqrt((resid**2).sum(axis=1).mean()))
    # fitted maps l1 coords into l2's frame; express b in a's frame
    pose = fitted if swapped else inverse(fitted)
    timings["estimate"] = time.perf_counter() - t0
    return pose, stats


def match_scan_pair(
    scan_a: PolarScan,
    scan_b: PolarScan,
    cfg: PipelineConfig | None = None,
):
    """Extract and match one scan pair; returns (pose of b in a, stats dict)."""
    cfg = cfg if cfg is not None else PipelineConfig()
    t0 = time.perf_counter()
    kp_a = extract_keypoints(scan_a, cfg.l_max)
    kp_b = extract_keypoints(scan_b, cfg.l_max)
    t_extract = time.perf_counter() - t0
    pose, stats = match_keypoint_sets(kp_a, kp_b, cfg)
    stats["timings"]["extract"] = t_extract
    return pose, stats


def _pair_result(scan_a, scan_b, kp_a, kp_b, matcher, extract_time):
    try:
        pose, stats = matcher(kp_a, kp_b)
    except RadarOdoError as err:
        stats = getattr(err, "diagnostics", None) or {}
        timings = stats.get("timings", {})
        timings["extract"] = extract_time
        return PairResult(
            t_a=scan_a.timestamp,
            t_b=scan_b.timestamp,
            pose=Pose2(),
            u=stats.get("u", 0),
            n_selected=stats.get("n_selected", 0),
            timings=timings,
            failed=True,
            failure_reason=f"{type(err).__name__}: {err}",
        )
    stats["timings"]["extract"] = extract_time
    return PairResult(
        t_a=scan_a.timestamp,
        t_b=scan_b.timestamp,
        pose=pose,
        u=stats.get("u", 0),
        n_selected=stats["n_selected"],
        mutual_compatibility=stats.get("mutual_compatibility", 0.0),
        eigengap=stats.get("eigengap", 0.0),
        residual_rms=stats["residual_rms"],
        timings=stats["timings"],
    )


def run_odometry(scans, cfg: PipelineConfig | None = None, matcher=None) -> OdometryResult:
    """Estimate relative poses over a scan sequence and integrate them.

    ``matcher(kp_a, kp_b)`` returns (pose of b in a, stats dict) and raises
    :class:`RadarOdoError` when the pair cannot be matched; ``None`` means
    :func:`match_keypoint_sets` with ``cfg``. Keypoints are extracted with
    ``cfg.l_max`` either way. A failed pair keeps the previous relative pose
    (constant velocity carry-over, identity for a first-pair failure) and is
    flagged.
    """
    cfg = cfg if cfg is not None else PipelineConfig()
    if matcher is None:
        matcher = lambda kp_a, kp_b: match_keypoint_sets(kp_a, kp_b, cfg)
    scans = list(scans)
    if len(scans) < 2:
        raise ValueError("need at least 2 scans")
    ts = np.array([s.timestamp for s in scans])
    if not np.all(np.diff(ts) > 0):
        raise ValueError("scan timestamps must be strictly increasing")

    extract_times = []
    keypoint_sets = []
    for scan in scans:
        t0 = time.perf_counter()
        keypoint_sets.append(extract_keypoints(scan, cfg.l_max))
        extract_times.append(time.perf_counter() - t0)

    pairs = []
    fallback = Pose2()
    for k in range(len(scans) - 1):
        # charge each pair with the extraction of the scan it introduces
        extract = extract_times[k] + extract_times[k + 1] if k == 0 else extract_times[k + 1]
        p = _pair_result(
            scans[k], scans[k + 1], keypoint_sets[k], keypoint_sets[k + 1], matcher, extract
        )
        if p.failed:
            p = replace(p, pose=fallback)
        else:
            fallback = p.pose
        pairs.append(p)

    trajectory = [Pose2()]
    for p in pairs:
        trajectory.append(compose(trajectory[-1], p.pose))
    return OdometryResult(pairs=tuple(pairs), trajectory=tuple(trajectory), timestamps=ts)


def evaluate(rel_poses, timestamps, truth: TrajectorySpec) -> EvalMetrics:
    """Per-pair pose errors against ground truth, reduced to medians and stds.

    ``rel_poses[k]`` is scan k+1's frame in scan k's (``[p.pose for p in
    result.pairs]`` for an :class:`OdometryResult`). ``timestamps`` holds one
    entry per scan and must line up with ``truth`` to 1e-9 s; otherwise, or
    with fewer than two scans, this raises ValueError.
    """
    rel_poses = list(rel_poses)
    if not rel_poses:
        raise ValueError("need at least 2 poses to evaluate")
    if len(timestamps) != len(rel_poses) + 1 or len(truth) != len(timestamps):
        raise ValueError("truth length does not match scan count")
    if not np.allclose(truth.timestamps, timestamps, rtol=0, atol=1e-9):
        raise ValueError("truth timestamps do not match scan timestamps")
    t_err, r_err = [], []
    for k, pose in enumerate(rel_poses):
        true_rel = relative_pose(truth.poses[k], truth.poses[k + 1])
        t_err.append(math.hypot(pose.x - true_rel.x, pose.y - true_rel.y))
        r_err.append(abs(wrap_angle(pose.theta - true_rel.theta)))
    t_err = np.asarray(t_err)
    r_err = np.asarray(r_err)
    return EvalMetrics(
        n_pairs=len(rel_poses),
        translation_median=float(np.median(t_err)),
        translation_std=float(t_err.std()),
        rotation_median=float(np.median(r_err)),
        rotation_std=float(r_err.std()),
    )
