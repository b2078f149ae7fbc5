"""Gradient-weighted keypoint extraction from polar power scans.

The extractor scores every cell by how bright it is relative to the scan
mean and how flat its neighborhood is (low gradient), then greedily marks
peak regions in score order. A region on one azimuth is the inclusive span
between the nearest below-mean bins on either side of the visited cell.
Marking stops after ``l_max`` disjoint regions, or sooner once only
zero-or-below scores remain. Emission is one pass over the marked cells,
with runs broken at each azimuth's range ends: each contiguous marked run
on an azimuth yields at most one keypoint (its score maximum), and runs
with no range-overlapping marked cells on a neighboring azimuth are
discarded as single-beam clutter. Azimuth 0 and m-1 are neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .scan import PolarScan, SensorMeta, bins_to_points


class Keypoint(NamedTuple):
    azimuth_index: int
    range_bin: int
    x: float
    y: float
    strength: float


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """Keypoints of one scan, ordered by (azimuth index, range bin).

    The set holds read-only copies of its arrays, so values derived from
    them can be cached on the set: ``descriptor_cache`` maps
    ``(alpha, rho, max_range)`` to the set's descriptor matrix (see
    :func:`radarodo.descriptors.descriptor_matrix`). ``dataclasses.replace``
    gives a copy with an empty cache.
    """

    azimuths: np.ndarray
    range_bins: np.ndarray
    xy: np.ndarray
    strengths: np.ndarray
    meta: SensorMeta
    timestamp: float = 0.0
    descriptor_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("azimuths", "range_bins", "xy", "strengths"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.azimuths.shape[0]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i) -> Keypoint:
        return Keypoint(
            int(self.azimuths[i]),
            int(self.range_bins[i]),
            float(self.xy[i, 0]),
            float(self.xy[i, 1]),
            float(self.strengths[i]),
        )


def _peak_exponent(power: np.ndarray) -> int:
    """The ``frexp`` exponent e of the peak power: every cell of the power
    times 2**-e is below 1, so no sum of the Prewitt stencil or of the mean
    can overflow. A power-of-two scale is exact, so ordinary scans keep
    the same values bit for bit."""
    return int(np.frexp(power.max())[1])


def _prewitt_magnitude(power: np.ndarray, e: int) -> np.ndarray:
    """Prewitt gradient magnitude of ``power`` times 2**-e, normalized to
    peak 1."""
    # the scaled grid padded by one cell, wrapped along azimuth and then
    # edge-repeated along range: what two np.pad calls give, in one array
    m, n = power.shape
    p = np.empty((m + 2, n + 2))
    np.ldexp(power, -e, out=p[1:-1, 1:-1])
    p[0, 1:-1] = p[-2, 1:-1]
    p[-1, 1:-1] = p[1, 1:-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]
    ga = (p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]) - (p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:])
    gr = (p[:-2, 2:] + p[1:-1, 2:] + p[2:, 2:]) - (p[:-2, :-2] + p[1:-1, :-2] + p[2:, :-2])
    g = np.hypot(ga, gr)
    peak = g.max()
    return g / peak if peak > 0 else g


def gradient_magnitude(scan: PolarScan) -> np.ndarray:
    """Prewitt gradient magnitude of the power grid, normalized to peak 1.

    The azimuth axis wraps (the scan is one full rotation); the range axis
    replicates its edge bins. An all-constant scan maps to all zeros. The
    power is scaled by a power of two first, so any finite scan gives a
    finite gradient.
    """
    return _prewitt_magnitude(scan.power, _peak_exponent(scan.power))


def scoring_image(scan: PolarScan):
    """Return (H, S') where S' is mean-subtracted power and H = (1 - G) * S'.

    The mean, like G, is taken of the power scaled by a power of two and
    scaled back, so both stay finite for any finite scan.
    """
    e = _peak_exponent(scan.power)
    s_prime = scan.power - np.ldexp(np.ldexp(scan.power, -e).mean(), e)
    h = (1.0 - _prewitt_magnitude(scan.power, e)) * s_prime
    return h, s_prime


def mark_regions(h: np.ndarray, s_prime: np.ndarray, l_max: int):
    """Greedily mark peak regions in descending ``h`` order.

    Returns (marked, region_count). ``region_count`` only advances when a
    newly marked span contains no previously marked cell. Marking stops at
    ``l_max`` regions or when no unmarked cell scores above zero: sub-zero
    cells are region boundaries, not regions, and marking them would let
    bare noise lend adjacency support to isolated detections. Score ties
    are visited in (azimuth, range) order.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    m, n = h.shape
    marked = np.zeros((m, n), dtype=bool)
    # each cell's span ends at the nearest below-mean bin on either side of
    # it on its azimuth (inclusive), or at the row's end when there is none
    bins = np.arange(n)
    below = s_prime < 0.0
    r_lo = np.maximum.accumulate(np.where(below, bins, 0), axis=1)
    r_hi = np.minimum.accumulate(np.where(below, bins, n - 1)[:, ::-1], axis=1)[:, ::-1]
    # stable sort of the positive cells = descending h, ties by (a, r)
    pos = np.flatnonzero(h > 0.0)
    order = pos[np.argsort(-h.flat[pos], kind="stable")]
    region_count = 0
    for flat in order:
        if region_count >= l_max:
            break
        a, r = divmod(int(flat), n)
        if marked[a, r]:
            continue
        span = marked[a, r_lo[a, r] : r_hi[a, r] + 1]
        if not span.any():
            region_count += 1
        span[:] = True
    return marked, region_count


def extract_keypoints(scan: PolarScan, l_max: int = 1000) -> KeypointSet:
    """Extract at most one keypoint per marked run per azimuth.

    Emission is one pass over the marked cells in (azimuth, range) order,
    with runs broken at gaps and at each azimuth's range ends. A run yields
    its first score maximum, and survives only if some cell of its range
    span is also marked on an adjacent azimuth and its best score is
    strictly positive.
    """
    h, s_prime = scoring_image(scan)
    marked, _ = mark_regions(h, s_prime, l_max)
    n = scan.meta.num_range_bins
    flat = marked.ravel()
    cells = np.flatnonzero(flat)
    # a run starts after a gap and at range bin 0, so runs never span azimuths
    is_start = (np.diff(cells, prepend=-2) != 1) | (cells % n == 0)
    starts = np.flatnonzero(is_start)
    run = np.cumsum(is_start) - 1
    hc = h.ravel()[cells]
    best = np.maximum.reduceat(hc, starts)
    # each run's first cell at its maximum, which is argmax's tie-break
    at_best = np.where(hc == best[run], np.arange(cells.size), cells.size)
    first = np.minimum.reduceat(at_best, starts)
    # a cell is supported if marked on either neighboring azimuth (wrapping)
    support = flat[(cells - n) % flat.size] | flat[(cells + n) % flat.size]
    keep = np.logical_or.reduceat(support, starts) & (best > 0.0)
    az, rb = np.divmod(cells[first[keep]], n)
    return KeypointSet(
        azimuths=az,
        range_bins=rb,
        xy=bins_to_points(az, rb, scan.meta).reshape(-1, 2),
        strengths=best[keep],
        meta=scan.meta,
        timestamp=scan.timestamp,
    )


def write_keypoints_csv(path, kset: KeypointSet) -> None:
    """Write keypoints as CSV rows of (azimuth_index, range_bin, x, y, strength)."""
    with open(path, "w", encoding="ascii") as f:
        f.write("azimuth_index,range_bin,x,y,strength\n")
        for kp in kset:
            f.write(f"{kp.azimuth_index},{kp.range_bin},{kp.x!r},{kp.y!r},{kp.strength!r}\n")
