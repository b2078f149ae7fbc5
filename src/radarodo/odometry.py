"""Scan-to-scan motion estimation, whole-sequence odometry and evaluation.

For each consecutive scan pair: extract keypoints, propose descriptor
matches, select a consistent subset spectrally, and fit an SE(2) transform.
The relative pose convention is "scan_b's frame expressed in scan_a's
frame", i.e. for a landmark seen in both scans  p_a = R p_b + t.  The
smaller keypoint set always drives the matching; the fitted transform is
inverted if the sets were swapped to arrange that.

``odometry_pairs`` is the one loop that chains scan pairs, one scan at a
time, so a live feed and a batch run share it; ``run_odometry`` collects
its pairs and composes the trajectory. Both read their scans once, in
order, with at most two alive, so a sequence never has to fit in memory.
``run_odometry`` takes any pair matcher ``(kp_a, kp_b) -> (pose, stats)``
(``match_keypoint_sets`` with the config by default, or
``icp.icp_matcher`` for the ICP baseline), so both methods share its input
checks, timings, failure reasons and constant-velocity fallback.
``evaluate`` scores a trajectory (one pose per scan, as
``OdometryResult.trajectory`` and ``trajectory.csv`` hold it) against
ground truth; the CLI writes what it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .descriptors import _points, propose_unary_matches
from .errors import MatchFailureError, RadarOdoError, stage
from .keypoints import KeypointSet, extract_keypoints
from .matching import _check_sigma, greedy_select, pairwise_compatibility, principal_eigenvector
from .scan import _is_count
from .se2 import (
    Pose2,
    compose,
    estimate_se2,
    inverse,
    mean_square_residual,
    relative_pose,
    wrap_angle,
)
from .simulate import TrajectorySpec


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables for pair matching. ``l_max`` must be an int >= 1 (a bool is
    not one). ``alpha``/``rho`` default to the scan's azimuth/range bin
    counts and ``sigma_c`` to the range resolution; set, they must be ints
    >= 1 and a width in [2**-511, 2**511], the compatibility kernel's own
    rule. A bad value raises ValueError."""

    l_max: int = 1000
    alpha: int | None = None
    rho: int | None = None
    sigma_c: float | None = None

    def __post_init__(self):
        if not _is_count(self.l_max):
            raise ValueError("l_max must be an int >= 1")
        for name in ("alpha", "rho"):
            n = getattr(self, name)
            if n is not None and not _is_count(n):
                raise ValueError(f"{name} must be None or an int >= 1")
        if self.sigma_c is not None:
            _check_sigma(self.sigma_c, "sigma_c")


@dataclass(frozen=True, eq=False)
class PairResult:
    """Relative pose and diagnostics for one consecutive scan pair. A pair
    failed when it has a ``failure_reason``; ``failed`` reads it."""

    pose: Pose2
    u: int = 0
    n_selected: int = 0
    mutual_compatibility: float = 0.0
    eigengap: float = 0.0
    residual_rms: float = 0.0
    timings: dict = field(default_factory=dict)
    failure_reason: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.failure_reason)


@dataclass(frozen=True, eq=False)
class OdometryResult:
    pairs: tuple
    trajectory: TrajectorySpec  # one pose per scan, first is the identity

    @property
    def failure_count(self) -> int:
        return sum(1 for p in self.pairs if p.failed)


def _check_same_meta(meta_a, meta_b):
    if meta_b != meta_a:
        raise ValueError(f"scans differ in sensor geometry: {meta_b} after {meta_a}")


def match_keypoint_sets(
    kp_a: KeypointSet,
    kp_b: KeypointSet,
    cfg: PipelineConfig,
    dt: float | None = None,
):
    """Match two keypoint sets; returns (pose of b in a's frame, stats dict).

    ``dt`` is accepted for older callers and ignored.

    Raises errors from the matching stages, or MatchFailureError when fewer
    than two matches survive selection, with the stats reached as diagnostics.
    A kernel width outside [2**-511, 2**511] (by default the scans' range
    resolution) raises ValueError after the points' check, before describing.
    Sets of different :class:`SensorMeta` raise ValueError first: one
    geometry describes both.
    """
    meta = kp_a.meta
    _check_same_meta(meta, kp_b.meta)
    alpha = cfg.alpha if cfg.alpha is not None else meta.num_azimuths
    rho = cfg.rho if cfg.rho is not None else meta.num_range_bins
    sigma = cfg.sigma_c if cfg.sigma_c is not None else meta.range_resolution
    for kset in (kp_a, kp_b):
        _points(kset)  # a coordinate past the bound is reported before the width
    _check_sigma(sigma)
    swapped = len(kp_a) > len(kp_b)
    l1, l2 = (kp_b, kp_a) if swapped else (kp_a, kp_b)

    stats = {}
    with stage("describe", stats):
        unary = propose_unary_matches(l1, l2, alpha, rho, meta.max_range)
    stats["u"] = unary.u

    with stage("match", stats):
        c = pairwise_compatibility(unary, l1, l2, sigma)
        solution = principal_eigenvector(c)
        selection = greedy_select(c, solution, unary)
        stats["n_selected"] = len(selection.selected)
        stats["mutual_compatibility"] = selection.mutual_compatibility
        stats["eigengap"] = selection.eigengap
        if len(selection.selected) < 2:
            raise MatchFailureError("fewer than 2 matches selected")

    with stage("estimate", stats):
        idx1 = np.array([g for g, _ in selection.selected])
        idx2 = np.array([h for _, h in selection.selected])
        fitted = estimate_se2(l1.xy[idx1], l2.xy[idx2])
        stats["residual_rms"] = math.sqrt(mean_square_residual(fitted, l1.xy[idx1], l2.xy[idx2]))
        # fitted maps l1 coords into l2's frame; express b in a's frame
        pose = fitted if swapped else inverse(fitted)
    return pose, stats


def odometry_pairs(scans, cfg: PipelineConfig | None = None, matcher=None):
    """Match each scan with the one before it, yielding each pair's
    :class:`PairResult` as soon as its second scan is read.

    ``matcher(kp_a, kp_b)`` returns (pose of b in a, stats dict) and raises
    :class:`RadarOdoError` when the pair cannot be matched; ``None`` means
    :func:`match_keypoint_sets` with ``cfg``. The stats, or the error's
    diagnostics, hold :class:`PairResult` fields (any other key raises
    TypeError); a field they leave out keeps its default. Keypoints are
    extracted with ``cfg.l_max`` either way. A failed pair keeps the previous
    relative pose (constant velocity carry-over, identity for a first-pair
    failure) and is flagged; it reports the stats and timings its error
    carries. A scan not later than the one before it, or of another
    :class:`SensorMeta`, raises ValueError before it is extracted; fewer
    than two scans yield nothing.
    """
    cfg = cfg if cfg is not None else PipelineConfig()
    if matcher is None:
        matcher = lambda kp_a, kp_b: match_keypoint_sets(kp_a, kp_b, cfg)
    # a pair is charged with extracting the scans it introduces; extracting
    # as we go keeps two keypoint sets (and cached descriptors) alive
    extracted = {}
    kp_a = None
    pose = Pose2()  # the last good pose, carried over by a failed pair
    for scan in scans:
        if kp_a is not None:
            # written so that NaN fails too
            if not scan.timestamp > kp_a.timestamp:
                raise ValueError("scan timestamps must be strictly increasing")
            _check_same_meta(kp_a.meta, scan.meta)
        with stage("extract", extracted):
            kp_b = extract_keypoints(scan, cfg.l_max)
        if kp_a is not None:
            try:
                pose, stats = matcher(kp_a, kp_b)
                reason = ""
            except RadarOdoError as err:
                stats = err.diagnostics or {}
                reason = f"{type(err).__name__}: {err}"
            stats.setdefault("timings", {})["extract"] = extracted["timings"].pop("extract")
            yield PairResult(pose=pose, failure_reason=reason, **stats)
        kp_a = kp_b


def run_odometry(scans, cfg: PipelineConfig | None = None, matcher=None) -> OdometryResult:
    """Estimate relative poses over a scan sequence and integrate them.

    Collects :func:`odometry_pairs` and composes their poses into one pose
    per scan at the scan's timestamp, the first the identity. ``scans`` may
    be any iterable; each timestamp is recorded as the pair loop pulls its
    scan. Raises ValueError for fewer than 2 scans, and as
    :func:`odometry_pairs` does.
    """
    timestamps = []

    def stamped():
        for scan in scans:
            timestamps.append(scan.timestamp)
            yield scan
    pairs = tuple(odometry_pairs(stamped(), cfg, matcher))
    if not pairs:
        raise ValueError("need at least 2 scans")
    poses = accumulate((p.pose for p in pairs), compose, initial=Pose2())
    return OdometryResult(pairs, TrajectorySpec(poses, timestamps))


def evaluate(estimate: TrajectorySpec, truth: TrajectorySpec) -> dict:
    """Score a trajectory against ground truth, pair by pair.

    ``estimate`` holds one world-frame pose per scan (``result.trajectory``
    for an :class:`OdometryResult`, or a ``trajectory.csv``); each pair is
    the relative pose of two consecutive poses, compared with the truth's.
    Returns the metrics-file entries ``n_pairs``, ``translation_median_m``,
    ``translation_std_m``, ``rotation_median_deg`` and ``rotation_std_deg``.
    Raises ValueError for fewer than two poses, a truth of another length,
    or timestamps more than 1e-9 s apart.
    """
    poses = estimate.poses
    if len(poses) < 2:
        raise ValueError("need at least 2 poses to evaluate")
    if len(truth) != len(poses):
        raise ValueError("truth length does not match scan count")
    if not np.allclose(truth.timestamps, estimate.timestamps, rtol=0, atol=1e-9):
        raise ValueError("truth timestamps do not match scan timestamps")
    t_err, r_err = [], []
    for k in range(len(poses) - 1):
        pose = relative_pose(poses[k], poses[k + 1])
        true_rel = relative_pose(truth.poses[k], truth.poses[k + 1])
        t_err.append(math.hypot(pose.x - true_rel.x, pose.y - true_rel.y))
        r_err.append(abs(wrap_angle(pose.theta - true_rel.theta)))
    t_err = np.asarray(t_err)
    r_err = np.asarray(r_err)
    return {
        "n_pairs": len(poses) - 1,
        "translation_median_m": float(np.median(t_err)),
        "translation_std_m": float(t_err.std()),
        "rotation_median_deg": math.degrees(np.median(r_err)),
        "rotation_std_deg": math.degrees(r_err.std()),
    }
