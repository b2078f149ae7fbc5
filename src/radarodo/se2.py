"""SE(2) pose algebra and least-squares rigid alignment of 2D point sets; the alignment
stays finite for every point within the pipeline's 2**510 coordinate bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, UnderdeterminedError

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    t = (theta + math.pi) % _TWO_PI - math.pi
    return math.pi if t == -math.pi else t


@dataclass(frozen=True)
class Pose2:
    """Rigid transform in the plane; theta is stored wrapped to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.theta)):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def rotation(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Chain two transforms: the result maps b-coordinates through a."""
    t = a.rotation @ b.translation + a.translation
    return Pose2(t[0], t[1], a.theta + b.theta)


def inverse(a: Pose2) -> Pose2:
    t = -(a.rotation.T @ a.translation)
    return Pose2(t[0], t[1], -a.theta)


def relative_pose(a: Pose2, b: Pose2) -> Pose2:
    """Pose of frame b expressed in frame a (both given in a common frame)."""
    return compose(inverse(a), b)


def apply_pose(pose: Pose2, points) -> np.ndarray:
    """Transform an (N, 2) array of points (or a single point) by ``pose``."""
    pts = np.asarray(points, dtype=float)
    return pts @ pose.rotation.T + pose.translation


def estimate_se2(src, dst) -> Pose2:
    """Least-squares rigid transform mapping ``src`` points onto ``dst``.

    The 2-D closed form: the rotation is the angle of the summed cross and dot products of
    the centred points, so never a reflection, and the fit stays finite within the 2**510 bound.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError("src and dst must be matching (N, 2) arrays")
    if src.shape[0] < 2:
        raise UnderdeterminedError("need at least 2 point pairs, got %d" % src.shape[0])
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    a, b = src - cs, dst - cd
    if not np.any(a):
        raise DegenerateGeometryError("all source points coincide")
    # exact powers of two scale each set below 1: no product overflows, the angle is unchanged
    a, b = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (a, b))
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    theta = math.atan2(cross.sum(), (a * b).sum())
    c, s = math.cos(theta), math.sin(theta)
    return Pose2(cd[0] - (c * cs[0] - s * cs[1]), cd[1] - (s * cs[0] + c * cs[1]), theta)


def mean_square_residual(pose: Pose2, src, dst) -> float:
    """Mean over the point pairs of the squared distance from ``pose`` applied
    to ``src`` to ``dst``.

    The residuals are scaled by an exact power of two below 1 before they are
    squared, and the mean scaled back, so the sum cannot overflow for points
    within the 2**510 bound; outside the subnormals the result is that of
    squaring the raw residuals, bit for bit.
    """
    resid = apply_pose(pose, src) - dst
    e = int(np.frexp(np.abs(resid).max())[1])
    resid = np.ldexp(resid, -e)
    return float(np.ldexp((resid * resid).sum(axis=1).mean(), 2 * e))
