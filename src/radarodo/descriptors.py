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
The histogram is real, so |X_k| = |X_(alpha-k)|: a row keeps coefficients
0..alpha//2 only (``np.fft.rfft``) and weights 1..(alpha-1)//2, the ones
with a mirror image, by sqrt 2. Squared, each weighted entry counts for
itself and its mirror, so the Euclidean distance between two rows is that
of the full alpha-coefficient spectra up to rounding, with alpha//2 - 1
fewer columns. A row is alpha//2 + 1 + rho wide; its angular entries lie
in [0, sqrt 2] and its radial ones in [0, 1]. The angular channel is
divided by X_0, the histogram's total, which is its peak.

One numpy kernel describes blocks of keypoints at a time: both channels of
a whole block come from one ``bincount`` each and one batched FFT. Each
histogram still sums its neighbors one by one in index order, so every
entry is bit-identical to describing the keypoint on its own.

Each block's distances ``sqrt(dx*dx + dy*dy)`` come from the offsets its
bearings use, before ``arctan2`` overwrites them: describing N keypoints
takes (block, N) temporaries and no (N, N) array.

A :class:`~radarodo.keypoints.KeypointSet` is described once per
``(alpha, rho, max_range)``: :func:`descriptor_matrix` keeps the matrix in
the set's ``descriptor_cache`` and hands out that read-only array on every
later call. The set's own arrays are read-only too, so the cache cannot go
stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCandidatesError
from .keypoints import KeypointSet
from .scan import _is_count

_TWO_PI = 2.0 * math.pi
_SQRT2 = math.sqrt(2.0)
# keypoints per kernel call: the (block, n) temporaries stay near 0.5 MB
# each at n = 1000 neighbors
_BLOCK = 64
# with every coordinate at most this in magnitude, a coordinate difference
# is at most 2**511 and dx*dx + dy*dy at most 2**1023, so every distance of
# the describe kernel and of matching._upper_distances is finite
_MAX_COORD = 2.0**510


@dataclass(frozen=True, eq=False)
class UnaryMatches:
    """Best descriptor match in L2 for each L1 keypoint."""

    l1_indices: np.ndarray
    l2_indices: np.ndarray

    @property
    def u(self) -> int:
        return self.l1_indices.shape[0]


def _points(kset) -> np.ndarray:
    """The (N, 2) float points of a keypoint set or a raw cloud.

    Raises ValueError unless every coordinate is finite and at most
    ``_MAX_COORD`` in magnitude, where no squared distance can overflow.
    """
    xy = np.asarray(getattr(kset, "xy", kset), dtype=float)
    # written so that NaN fails too
    if not np.all(np.abs(xy) <= _MAX_COORD):
        raise ValueError(
            f"point coordinates must be finite and at most {_MAX_COORD:.3g} in magnitude"
        )
    return xy


def _check_params(alpha, rho, max_range):
    # PipelineConfig's rules; written so that NaN fails too
    if not (_is_count(alpha) and _is_count(rho)):
        raise ValueError("alpha and rho must be ints >= 1")
    if not (0 < max_range < math.inf):
        raise ValueError("max_range must be finite and > 0")


def _angular_bins(ang: np.ndarray, alpha: int) -> np.ndarray:
    """Bins of angles in [-2 pi, 2 pi] wrapped into [0, 2 pi), worked in place.

    The same bins as ``np.mod(ang, 2 pi)`` bin for bin. The order of the two
    wraps matters: a tiny negative angle plus 2 pi rounds to exactly 2 pi,
    which ``np.mod`` also returns and which then falls in the last bin.
    """
    np.putmask(ang, ang >= _TWO_PI, 0.0)
    np.add(ang, _TWO_PI, out=ang, where=ang < 0.0)
    ang /= _TWO_PI
    ang *= alpha
    return np.minimum(ang.astype(int), alpha - 1)


def _describe_rows(xy, rows, weight, bearing, alpha, rho, max_range) -> np.ndarray:
    """Descriptor vectors of keypoints ``rows`` of the cloud ``xy``, one row
    each, given every keypoint's range ``weight`` and the ``bearing`` of
    each of ``rows``; a keypoint with no neighbors gets zeros."""
    b = rows.size
    # a keypoint is not its own neighbor: zero weight adds exactly nothing
    weights = np.broadcast_to(weight, (b, xy.shape[0])).copy()
    weights[np.arange(b), rows] = 0.0
    weights = weights.ravel()
    rel_x = xy[None, :, 0] - xy[rows, 0][:, None]
    rel_y = xy[None, :, 1] - xy[rows, 1][:, None]
    # histogram bin k of block row r sits at r * bins + k of one bincount
    offset = np.arange(b)[:, None]
    # distances first: arctan2 writes its angles over rel_x
    dist = rel_x * rel_x
    dist += rel_y * rel_y
    np.sqrt(dist, out=dist)

    ang = np.arctan2(rel_y, rel_x, out=rel_x)
    ang -= bearing[:, None]
    a_bins = _angular_bins(ang, alpha)
    hist_a = np.bincount((offset * alpha + a_bins).ravel(), weights=weights, minlength=b * alpha)

    # clipped before the cast, so a distance of 2**63 bins or more still
    # lands in the last bin
    r_bins = np.divide(dist, max_range / rho, out=dist)
    np.minimum(r_bins, rho - 1, out=r_bins)
    r_bins = r_bins.astype(int)
    hist_r = np.bincount((offset * rho + r_bins).ravel(), weights=weights, minlength=b * rho)

    half = alpha // 2 + 1
    out = np.empty((b, half + rho))
    spectrum, radial = out[:, :half], out[:, half:]
    np.abs(np.fft.rfft(hist_a.reshape(b, alpha), axis=1), out=spectrum)
    radial[:] = hist_r.reshape(b, rho)
    # the spectrum of a non-negative histogram peaks at X_0, its total
    peaks = (spectrum[:, :1].copy(), radial.max(axis=1, keepdims=True))
    for channel, peak in zip((spectrum, radial), peaks):
        np.divide(channel, peak, out=channel, where=peak > 0)
    # coefficients 1..(alpha-1)//2 stand for their mirror images too
    spectrum[:, 1 : (alpha + 1) // 2] *= _SQRT2
    return out


def descriptor_matrix(kset, alpha: int, rho: int, max_range: float) -> np.ndarray:
    """Stacked descriptor vectors, one row per keypoint.

    Shape (N, alpha//2 + 1 + rho): the half angular spectrum, its mirrored
    coefficients weighted by sqrt 2 so that row distances equal those of
    the full spectrum, then the radial histogram (module docstring).

    For a :class:`KeypointSet` the matrix is built on the first call with
    these parameters and returned, read-only, from the set's cache after.
    ``alpha`` and ``rho`` must be ints >= 1 (a bool is not one) and
    ``max_range`` finite and > 0, else ValueError. A raw (N, 2) cloud raises
    ValueError if a coordinate is not finite or exceeds 2**510 in magnitude,
    where a squared distance could overflow.
    """
    _check_params(alpha, rho, max_range)
    cache = kset.descriptor_cache if isinstance(kset, KeypointSet) else None
    key = (alpha, rho, max_range)
    if cache is not None and key in cache:
        return cache[key]
    xy = _points(kset)
    n = xy.shape[0]
    out = np.empty((n, alpha // 2 + 1 + rho))
    # each keypoint's weight as a neighbor is its range over max_range
    weight = np.hypot(xy[:, 0], xy[:, 1]) / max_range
    bearing = np.array([math.atan2(y, x) for x, y in xy.tolist()])
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        out[lo:hi] = _describe_rows(
            xy, np.arange(lo, hi), weight, bearing[lo:hi], alpha, rho, max_range
        )
    if cache is not None:
        out.flags.writeable = False
        cache[key] = out
    return out


def propose_unary_matches(l1, l2, alpha: int, rho: int, max_range: float) -> UnaryMatches:
    """Pair each L1 keypoint with its nearest L2 descriptor.

    Distance ties resolve to the lowest L2 index. The caller is expected to
    pass the smaller set as ``l1``.
    """
    n1 = _points(l1).shape[0]
    if n1 == 0 or _points(l2).shape[0] == 0:
        raise NoCandidatesError("cannot match empty keypoint sets")
    d1 = descriptor_matrix(l1, alpha, rho, max_range)
    d2 = descriptor_matrix(l2, alpha, rho, max_range)
    # squared descriptor distances via the expanded dot product, one block
    # of L1 rows at a time. The product stays whole (a row-blocked product
    # changes its last bits); doubling it after is exact.
    cross = d1 @ d2.T
    cross *= 2.0
    norm1 = (d1 * d1).sum(axis=1)
    norm2 = (d2 * d2).sum(axis=1)
    best = np.empty(n1, dtype=np.intp)
    for lo in range(0, n1, _BLOCK):
        hi = min(lo + _BLOCK, n1)
        sq = norm1[lo:hi, None] + norm2[None, :]
        np.subtract(sq, cross[lo:hi], out=sq)
        # rounding leaves some squares just below 0: clamped, they tie at 0
        # and argmin takes the lowest index among them
        np.maximum(sq, 0.0, out=sq)
        best[lo:hi] = np.argmin(sq, axis=1)
    return UnaryMatches(l1_indices=np.arange(n1), l2_indices=best)
