"""Point-to-point ICP baseline over keypoint sets.

Alternates nearest-neighbor pairing (within a fixed search radius) with a
closed-form rigid re-fit, and stops when the mean squared residual settles.
Unlike the spectral matcher there is no global consistency check, so the
result depends heavily on the initial guess. ``icp_matcher`` wraps
``icp_match`` as a pair matcher for ``odometry.run_odometry``.

Pairing contract: each moved source point pairs with its Euclidean nearest
target when that target lies within ``nn_radius`` (inclusive); ties go to
the lowest target index. Only targets within ``nn_radius`` in x are
examined: the targets are sorted by x once per call, and each iteration
searches a window of them around every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descriptors import _points
from .errors import IcpDivergedError, stage
from .scan import _is_count
from .se2 import Pose2, apply_pose, estimate_se2, inverse, mean_square_residual

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class IcpConfig:
    nn_radius: float = 2.0
    convergence_tol: float = 1e-5
    max_iterations: int = 50
    initial_guess: Pose2 = field(default_factory=Pose2)

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.nn_radius > 0 and self.convergence_tol > 0):
            raise ValueError("nn_radius and convergence_tol must be positive")
        # icp_match compares squared distances with nn_radius**2, which a
        # finite radius must not overflow (an infinite one pairs all points)
        r = float(self.nn_radius)
        if r < math.inf and r * r == math.inf:
            raise ValueError("a finite nn_radius must have a finite square")
        if not _is_count(self.max_iterations):
            raise ValueError("max_iterations must be an int >= 1")


@dataclass(frozen=True, eq=False)
class IcpDiagnostics:
    iterations: int
    pair_count: int
    residual_rms: float
    residual_history: tuple


def icp_match(l1, l2, config: IcpConfig | None = None):
    """Align L1 points onto L2 points; returns (pose, diagnostics).

    The pose maps L1 coordinates into L2's frame. Raises ValueError unless
    both sets are (N, 2) with every coordinate finite and at most 2**510 in
    magnitude, as :func:`radarodo.odometry.match_keypoint_sets` does; then
    :class:`IcpDivergedError` when either set is empty, and when an
    iteration pairs fewer than two points.
    """
    cfg = config if config is not None else IcpConfig()
    src, dst = _points(l1), _points(l2)
    if src.shape[0] == 0 or dst.shape[0] == 0:
        raise IcpDivergedError("cannot align empty keypoint sets")
    r2 = cfg.nn_radius**2
    order = np.argsort(dst[:, 0], kind="stable")
    tx = dst[order, 0]
    ty = dst[order, 1]
    pose = cfg.initial_guess
    history = []
    prev_mse = None
    pair_count = 0
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        moved = apply_pose(pose, src)
        qx = moved[:, 0]
        qy = moved[:, 1]
        # widened by a few ulps so that a target just outside a window is
        # farther than nn_radius even after the rounding of qx - tx and d2;
        # the exact d2 test below then decides as a dense search would
        reach = cfg.nn_radius + 4 * EPS * (np.abs(qx) + cfg.nn_radius)
        lo = np.searchsorted(tx, qx - reach, side="left")
        hi = np.searchsorted(tx, qx + reach, side="right")
        width = max(int((hi - lo).max()), 1)
        # columns past a window's end repeat its last target, which moves
        # neither the minimum nor the tie-break; an empty window reads a
        # target outside it (index lo - 1, or the last), which d2 rejects
        cols = np.minimum(lo[:, None] + np.arange(width), hi[:, None] - 1)
        # the same two squares and one sum as a dense (n, m, 2) tensor's
        # .sum(axis=2), so each d2 is bit-identical to it
        d2 = (qx[:, None] - tx[cols]) ** 2 + (qy[:, None] - ty[cols]) ** 2
        best = d2.min(axis=1)
        nn = np.where(d2 == best[:, None], order[cols], dst.shape[0]).min(axis=1)
        within = best <= r2
        pair_count = int(within.sum())
        if pair_count < 2:
            raise IcpDivergedError(
                f"iteration {iterations}: {pair_count} pairings within {cfg.nn_radius} m"
            )
        paired = src[within], dst[nn[within]]
        pose = estimate_se2(*paired)
        mse = mean_square_residual(pose, *paired)
        history.append(mse)
        if mse == 0.0:
            break
        if prev_mse is not None and abs(prev_mse - mse) <= cfg.convergence_tol * prev_mse:
            break
        prev_mse = mse
    diag = IcpDiagnostics(
        iterations=iterations,
        pair_count=pair_count,
        residual_rms=float(np.sqrt(history[-1])),
        residual_history=tuple(history),
    )
    return pose, diag


def icp_matcher(config: IcpConfig | None = None):
    """A ``run_odometry`` pair matcher that aligns a's keypoints onto b's by
    ICP from ``config.initial_guess``."""

    def match(kp_a, kp_b):
        stats = {}
        with stage("icp", stats):
            fitted, diag = icp_match(kp_a, kp_b, config)
        stats["n_selected"] = diag.pair_count
        stats["residual_rms"] = diag.residual_rms
        # fitted maps a's points into b's frame; express b in a's frame
        return inverse(fitted), stats

    return match
