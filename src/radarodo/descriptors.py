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

Unary matching takes each L1 row's nearest L2 row by the float64 sum of
(a - b)**2, screened by a float32 product under a proven error bound, ties
to the lowest index (:func:`propose_unary_matches`).

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
# with the cloud's largest range times (N + rho) at most this many radial
# bin widths, every weight, histogram total and radial bin index stays
# finite with room to spare
_MAX_SCALE = 2.0**960
# L1 rows per unary screen block: its (block, n2) float32 products stay
# near 1 MB at n2 = 1000
_UNARY_BLOCK = 256
# entries per float64 gather of the unary decision's row differences
_GATHER = 2**17
# unit roundoffs of float32 and float64, and the least normal float32
_U32 = 2.0**-24
_U64 = 2.0**-53
_TINY32 = 2.0**-126


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

    Raises ValueError unless every coordinate is finite and at most ``_MAX_COORD`` in
    magnitude, where no squared distance overflows and the rigid fit stays finite.
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
    where a squared distance could overflow. So does a ``max_range`` too
    small for the cloud: a radial bin width ``max_range / rho`` of zero, or
    the largest range from the sensor times N + rho beyond 2**960 bin
    widths, where a weight, a histogram total or a bin index could overflow.
    """
    _check_params(alpha, rho, max_range)
    cache = kset.descriptor_cache if isinstance(kset, KeypointSet) else None
    key = (alpha, rho, max_range)
    if cache is not None and key in cache:
        return cache[key]
    xy = _points(kset)
    n = xy.shape[0]
    ranges = np.hypot(xy[:, 0], xy[:, 1])
    reach = float(ranges.max(initial=0.0))
    width = float(max_range) / int(rho)
    if not (0.0 < width and reach * (n + int(rho)) <= width * _MAX_SCALE):
        raise ValueError(
            f"max_range {max_range!r} is too small for points {reach:.3g} from the sensor"
        )
    out = np.empty((n, alpha // 2 + 1 + rho))
    # each keypoint's weight as a neighbor is its range over max_range
    weight = ranges / max_range
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

    Row a of L1's descriptor matrix gets the row b of L2's that minimises
    F(a, b), the float64 ``np.square(a - b).sum()`` along the row; ties go
    to the lowest L2 index. The caller is expected to pass the smaller set
    as ``l1``.

    A float32 product screens the L2 rows and F decides among the few that
    pass. For rows a, b of K entries, all >= 0, let na and nb be their
    float64 sums of squares, r = sqrt(na), q = sqrt(nb), and m = fl32(nb),
    whose difference from nb is exact in float64. The screen takes

        t(a, b) = fl32(s + m),  s the float32 dot product of -2 fl32(a) and fl32(b),

    an estimate of T = |b|^2 - 2a.b = D - |a|^2, where D = |a - b|^2
    exactly. Let u = 2**-24 and v = 2**-53 be the unit roundoffs of float32
    and float64, gamma_n = nu / (1 - nu), and eta = 2**-126, the least
    normal float32: more than a float32 operation loses to underflow,
    gradual or flushed.

    Claim. If (K + 3)u < 1/2, every pair has

        |t - T| + |F - D| <= u|t| + R(a, b),
        R(a, b) = c r q + |m - nb| + w (na + nb) + h (1 + r + q),

    with c = 2 gamma_(K+3), w = 4(K + 3)v and h = 8K eta.

    Proof. A float32 operation with exact result x returns x(1 + d) + e,
    |d| <= u, |e| <= eta; scaling by -2 is exact. The casts and the
    product take each a_k b_k through at most K + 2 factors (1 + d), in
    any summation order, with or without fused multiply-adds, so the
    product is -2a.b to within 2 gamma_(K+2) a.b plus, from the e's,
    4 eta ((1 + u) sqrt(K) (|a| + |b|) + K eta + K) <= 5K eta (1 + |a| + |b|)
    (gamma_K <= 1 and |a|_1 <= sqrt(K) |a|). Entries are >= 0, so
    0 <= a.b <= |a||b|. Adding m loses at most u|t| + eta, and m is |b|^2
    to within |m - nb| + |nb - |b|^2|. In float64, F, na and nb sum
    non-negative terms, each rounded at most K + 2 times, and
    D <= |a|^2 + |b|^2 as a.b >= 0; so |F - D| + |nb - |b|^2| is at most
    2 gamma64_(K+2) (|a|^2 + |b|^2), which w (na + nb) covers with room
    for na and nb being rounded. Likewise r q >= (1 - (K + 3)v) |a||b|,
    which the extra u of gamma_(K+3) over gamma_(K+2) makes up for while
    K + 3 < 2**26. Float64 underflow loses under 2**-990 in all of this;
    h (1 + r + q) covers it, the e's and the add's eta. []

    Selection. Let t* = t(a, b*) be the least t of row a and
    S = u|t*| + R(a, b*) + R_max(a), where

        R_max(a) = c r max(q) + max(|m - nb| + w nb + h q) + w na + h (1 + r)

    takes its maxima over L2, so R_max(a) >= R(a, b) for every b. Let
    x = t* + S. A row b with t > x + 2u|x| has t - u|t| > x, as t - u|t|
    grows with t and 2u > u / (1 - u); then by the claim

        F(a, b) >= |a|^2 + t - u|t| - R(a, b)
                 > |a|^2 + t* + u|t*| + R(a, b*) >= F(a, b*),

    so b is not the argmin and does not tie with it. Every other row of L2
    is kept: if that is b* alone, b* is the answer, else the least F among
    the kept rows is, ties to the lowest index. S is formed in float64 and
    scaled by 1 + 2**-40, more than its rounding can take off; 2u|x|
    exceeds u|x| / (1 - u) by far more than forming x and x + 2u|x| in
    float64 can round off, and the threshold is rounded up to float32. With (K + 3)u >= 1/2 no bound is formed and
    every row is kept. L1 goes through in blocks of rows: the bound holds
    for any float32 summation, so blocking changes no answer.
    """
    n1 = _points(l1).shape[0]
    if n1 == 0 or _points(l2).shape[0] == 0:
        raise NoCandidatesError("cannot match empty keypoint sets")
    d1 = descriptor_matrix(l1, alpha, rho, max_range)
    d2 = descriptor_matrix(l2, alpha, rho, max_range)
    return UnaryMatches(l1_indices=np.arange(n1), l2_indices=_nearest_rows(d1, d2))


def _nearest_rows(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Index of the nearest ``d2`` row of each ``d1`` row: the float32
    screen and float64 decision of :func:`propose_unary_matches`, whose
    docstring proves the bound computed here. Entries must be >= 0."""
    n1, width = d1.shape
    na = np.einsum("ij,ij->i", d1, d1)
    nb = np.einsum("ij,ij->i", d2, d2)
    ra, rb = np.sqrt(na), np.sqrt(nb)
    m = nb.astype(np.float32)
    f2t = d2.astype(np.float32).T
    k3 = (width + 3) * _U32
    screened = k3 < 0.5
    if screened:
        c = 2.0 * k3 / (1.0 - k3)
        w = 4.0 * (width + 3) * _U64
        h = 8.0 * width * _TINY32
        # R(a, b) = c r q + col(b) + row(a)
        col = np.abs(m - nb) + w * nb + h * rb
        row = w * na + h * (1.0 + ra)
        rb_max, col_max = rb.max(), col.max()
    best = np.empty(n1, dtype=np.intp)
    for lo in range(0, n1, _UNARY_BLOCK):
        hi = min(lo + _UNARY_BLOCK, n1)
        f1 = d1[lo:hi].astype(np.float32)
        f1 *= -2.0
        t = f1 @ f2t
        t += m
        j = np.argmin(t, axis=1)
        if screened:
            t_best = t[np.arange(hi - lo), j].astype(float)
            # S = u|t*| + R(a, b*) + R_max
            slack = _U32 * np.abs(t_best) + c * ra[lo:hi] * (rb[j] + rb_max)
            slack += col[j] + col_max + 2.0 * row[lo:hi]
            slack *= 1.0 + 2.0**-40
            x = t_best + slack
            x += 2.0 * _U32 * np.abs(x)
            limit = x.astype(np.float32)
            np.nextafter(limit, np.float32(np.inf), out=limit, where=limit < x)
        else:
            limit = np.full(hi - lo, np.inf, np.float32)
        r, k = np.divmod(np.flatnonzero(t <= limit[:, None]), t.shape[1])
        several = (np.bincount(r, minlength=hi - lo) > 1)[r]
        r, k = r[several], k[several]
        if r.size:
            f = np.empty(r.size)
            step = max(1, _GATHER // width)
            for p in range(0, r.size, step):
                diff = d1[lo + r[p : p + step]] - d2[k[p : p + step]]
                f[p : p + step] = np.square(diff, out=diff).sum(axis=1)
            # r is sorted, so each row keeps its place in the sort, and its
            # first entry there has its least F, ties to the lowest column
            order = np.lexsort((k, f, r))
            first = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            j[r[first]] = k[order[first]]
        best[lo:hi] = j
    return best
