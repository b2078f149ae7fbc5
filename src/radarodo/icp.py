"""Point-to-point ICP baseline over keypoint sets.

Alternates nearest-neighbor pairing (within a fixed search radius) with a
closed-form rigid re-fit, and stops when the mean squared residual settles.
Unlike the spectral matcher there is no global consistency check, so the
result depends heavily on the initial guess. ``icp_matcher`` wraps
``icp_match`` as a pair matcher for ``odometry.run_odometry``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .descriptors import _points
from .errors import IcpDivergedError
from .se2 import Pose2, apply_pose, estimate_se2, inverse


@dataclass(frozen=True)
class IcpConfig:
    nn_radius: float = 2.0
    convergence_tol: float = 1e-5
    max_iterations: int = 50
    initial_guess: Pose2 = field(default_factory=Pose2)

    def __post_init__(self):
        if self.nn_radius <= 0 or self.convergence_tol <= 0 or self.max_iterations < 1:
            raise ValueError("nn_radius, convergence_tol, max_iterations must be positive")


@dataclass(frozen=True, eq=False)
class IcpDiagnostics:
    iterations: int
    pair_count: int
    residual_rms: float
    residual_history: tuple


def icp_match(l1, l2, config: IcpConfig | None = None):
    """Align L1 points onto L2 points; returns (pose, diagnostics).

    The pose maps L1 coordinates into L2's frame. Raises
    :class:`IcpDivergedError` when an iteration pairs fewer than two points.
    """
    cfg = config if config is not None else IcpConfig()
    src = _points(l1)
    dst = _points(l2)
    if src.shape[0] == 0 or dst.shape[0] == 0:
        raise IcpDivergedError("cannot align empty keypoint sets")
    pose = cfg.initial_guess
    history = []
    prev_mse = None
    pair_count = 0
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        moved = apply_pose(pose, src)
        d2 = ((moved[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
        nn = np.argmin(d2, axis=1)
        within = d2[np.arange(src.shape[0]), nn] <= cfg.nn_radius**2
        pair_count = int(within.sum())
        if pair_count < 2:
            raise IcpDivergedError(
                f"iteration {iterations}: {pair_count} pairings within {cfg.nn_radius} m"
            )
        pose = estimate_se2(src[within], dst[nn[within]])
        resid = apply_pose(pose, src[within]) - dst[nn[within]]
        mse = float((resid**2).sum(axis=1).mean())
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
        t0 = time.perf_counter()
        fitted, diag = icp_match(kp_a, kp_b, config)
        stats = {
            "n_selected": diag.pair_count,
            "residual_rms": diag.residual_rms,
            "timings": {"icp": time.perf_counter() - t0},
        }
        # fitted maps a's points into b's frame; express b in a's frame
        return inverse(fitted), stats

    return match
