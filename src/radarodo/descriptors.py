"""Rotation-invariant keypoint signatures and descriptor-based matching.

Each keypoint gets two peak-normalized histograms over all other keypoints
of its scan, both weighted by the neighbor's range from the sensor (polar
sampling thins with range, so distant neighbors count for more):

* angular: neighbor bearings about the keypoint, binned relative to the
  keypoint's own bearing from the sensor, then passed through an FFT whose
  coefficient magnitudes are kept. Both steps make a rigid rotation about
  the sensor a no-op.
* radial: neighbor distances from the keypoint, overflow clipped into the
  last bin.

Descriptor distance is plain Euclidean over the two channels concatenated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCandidatesError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Descriptor:
    angular: np.ndarray
    radial: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.angular, self.radial])


@dataclass(frozen=True, eq=False)
class UnaryMatches:
    """Best descriptor match in L2 for each L1 keypoint."""

    l1_indices: np.ndarray
    l2_indices: np.ndarray
    distances: np.ndarray

    @property
    def u(self) -> int:
        return self.l1_indices.shape[0]


def _points(kset) -> np.ndarray:
    xy = getattr(kset, "xy", kset)
    return np.asarray(xy, dtype=float)


def _channel_histograms(xy, i, alpha, rho, max_range):
    """Raw weighted angular and radial histograms for keypoint ``i``."""
    mask = np.ones(xy.shape[0], dtype=bool)
    mask[i] = False
    rel = xy[mask] - xy[i]
    if rel.shape[0] == 0:
        return np.zeros(alpha), np.zeros(rho)
    w = np.hypot(xy[mask, 0], xy[mask, 1]) / max_range
    bearing_i = math.atan2(xy[i, 1], xy[i, 0])
    ang = np.arctan2(rel[:, 1], rel[:, 0]) - bearing_i
    a_bins = np.minimum((np.mod(ang, _TWO_PI) / _TWO_PI * alpha).astype(int), alpha - 1)
    hist_a = np.bincount(a_bins, weights=w, minlength=alpha)
    dist = np.hypot(rel[:, 0], rel[:, 1])
    r_bins = np.minimum((dist / (max_range / rho)).astype(int), rho - 1)
    hist_r = np.bincount(r_bins, weights=w, minlength=rho)
    return hist_a, hist_r


def _normalize_peak(v: np.ndarray) -> np.ndarray:
    peak = v.max() if v.size else 0.0
    return v / peak if peak > 0 else v


def compute_descriptor(i: int, kset, alpha: int, rho: int, max_range: float) -> Descriptor:
    """Descriptor of keypoint ``i``; a keypoint with no neighbors gets zeros."""
    if alpha < 1 or rho < 1:
        raise ValueError("alpha and rho must be >= 1")
    if not (max_range > 0):
        raise ValueError("max_range must be positive")
    xy = _points(kset)
    if not (0 <= i < xy.shape[0]):
        raise ValueError(f"keypoint index {i} out of range")
    hist_a, hist_r = _channel_histograms(xy, i, alpha, rho, max_range)
    return Descriptor(
        angular=_normalize_peak(np.abs(np.fft.fft(hist_a))),
        radial=_normalize_peak(hist_r),
    )


def descriptor_matrix(kset, alpha: int, rho: int, max_range: float) -> np.ndarray:
    """Stacked descriptor vectors, one row per keypoint. Shape (N, alpha+rho)."""
    xy = _points(kset)
    out = np.zeros((xy.shape[0], alpha + rho))
    for i in range(xy.shape[0]):
        d = compute_descriptor(i, xy, alpha, rho, max_range)
        out[i, :alpha] = d.angular
        out[i, alpha:] = d.radial
    return out


def propose_unary_matches(l1, l2, alpha: int, rho: int, max_range: float) -> UnaryMatches:
    """Pair each L1 keypoint with its nearest L2 descriptor.

    Distance ties resolve to the lowest L2 index. The caller is expected to
    pass the smaller set as ``l1``.
    """
    xy1, xy2 = _points(l1), _points(l2)
    if xy1.shape[0] == 0 or xy2.shape[0] == 0:
        raise NoCandidatesError("cannot match empty keypoint sets")
    d1 = descriptor_matrix(xy1, alpha, rho, max_range)
    d2 = descriptor_matrix(xy2, alpha, rho, max_range)
    # (u1, u2) squared descriptor distances via the expanded dot product
    sq = np.maximum(
        (d1 * d1).sum(axis=1)[:, None] + (d2 * d2).sum(axis=1)[None, :] - 2.0 * d1 @ d2.T,
        0.0,
    )
    best = np.argmin(sq, axis=1)
    return UnaryMatches(
        l1_indices=np.arange(xy1.shape[0]),
        l2_indices=best,
        distances=np.sqrt(sq[np.arange(xy1.shape[0]), best]),
    )
