"""Gradient-weighted keypoint extraction from polar power scans.

The extractor scores every cell by how bright it is relative to the scan
mean and how flat its neighborhood is (low gradient), then greedily marks
peak regions in score order. A region on one azimuth is the inclusive span
between the nearest below-mean bins on either side of the visited cell.
Marking stops after ``l_max`` disjoint regions, or sooner once only
zero-or-below scores remain. It orders only the top-scoring cells it can
reach, about 4 ``l_max`` of them, and works out the greedy visits by array
arithmetic over their spans, with no loop over cells. Scoring takes the
Prewitt gradient as two separable three-cell sums. Emission is one pass
over the marked cells, with runs broken at each azimuth's range ends: each
contiguous marked run on an azimuth yields at most one keypoint (its score
maximum), and runs with no range-overlapping marked cells on a neighboring
azimuth are discarded as single-beam clutter. Azimuth 0 and m-1 are
neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scan import PolarScan, SensorMeta, _is_count, bins_to_points


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
        n = self.xy.shape[:1]  # (N,) for an (N, 2) xy
        if self.xy.shape != (*n, 2) or any(
            a.shape != n for a in (self.azimuths, self.range_bins, self.strengths)
        ):
            raise ValueError("need an (N, 2) xy and N azimuths, range bins and strengths")

    def __len__(self):
        return self.azimuths.shape[0]


def _peak_exponent(power: np.ndarray) -> int:
    """The ``frexp`` exponent e of the peak power: every cell of the power
    times 2**-e is below 1, so no sum of the Prewitt stencil or of the mean
    can overflow. A power-of-two scale is exact, so ordinary scans keep
    the same values bit for bit."""
    return int(np.frexp(power.max())[1])


def _prewitt_magnitude(power: np.ndarray, e: int) -> np.ndarray:
    """Prewitt gradient magnitude of ``power`` times 2**-e, normalized to
    peak 1.

    The magnitude is ``sqrt(ga*ga + gr*gr)`` of the two Prewitt sums. The
    scaled cells are below 1, so the sums are below 3 and their squares
    cannot overflow. They can underflow: where both sums are below 2**-511
    their squares are subnormal or 0, where ``hypot`` kept the digits.
    That moves no keypoint while the peak magnitude is at least 2**-456:
    such a cell's G is then below 2**-54 either way, and 1 - G rounds to
    exactly 1, so its score does not change. The scaled grid's largest
    cell is at least 1/2, so a smaller peak needs large cells whose stencil
    sums cancel exactly everywhere, beside tiny ones (say, rows of one
    constant alternating with rows of values below 2**-500). Only on such
    a grid can G itself lose digits.
    """
    # the scaled grid padded by one cell, wrapped along azimuth and then
    # edge-repeated along range: what two np.pad calls give, in one array
    m, n = power.shape
    p = np.empty((m + 2, n + 2))
    np.ldexp(power, -e, out=p[1:-1, 1:-1])
    p[0, 1:-1] = p[-2, 1:-1]
    p[-1, 1:-1] = p[1, 1:-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]
    # the stencil is separable: three-cell sums along range, differenced
    # along azimuth, and the other way round, in the stencil's own
    # addition order, so the sums are the same bit for bit; each sum is
    # freed once differenced
    s = p[:, :-2] + p[:, 1:-1]
    s += p[:, 2:]
    g = s[2:] - s[:-2]
    del s
    t = p[:-2] + p[1:-1]
    t += p[2:]
    gr = t[:, 2:] - t[:, :-2]
    del t, p
    g *= g
    gr *= gr
    g += gr
    del gr
    np.sqrt(g, out=g)
    peak = g.max()
    if peak > 0:
        g /= peak
    return g


def scoring_image(scan: PolarScan):
    """Return (H, S') where S' is mean-subtracted power and H = (1 - G) * S'.

    G is the Prewitt gradient magnitude of the power grid, normalized to
    peak 1. Its azimuth axis wraps (the scan is one full rotation) and its
    range axis replicates the edge bins, so a constant scan gives G = 0.
    G and the mean are both taken of the power scaled by a power of two
    (the mean then scaled back), so they stay finite for any finite scan.
    """
    e = _peak_exponent(scan.power)
    s_prime = scan.power - np.ldexp(np.ldexp(scan.power, -e).mean(), e)
    h = _prewitt_magnitude(scan.power, e)
    np.subtract(1.0, h, out=h)
    h *= s_prime
    return h, s_prime


# cells ordered per batch, in multiples of the region budget: a greedy pass
# over real scans visits 1.35-1.81 l_max cells before the budget runs out
_BATCH_PER_REGION = 4


def _spans(s_prime: np.ndarray, cells: np.ndarray, rank: np.ndarray):
    """The spans holding ``cells`` (ascending flat indices), in flat order.

    Returns (lo, hi, first): each span's inclusive flat bounds and the least
    ``rank`` among its cells. A span runs between the nearest below-mean
    cells on either side of a cell on its azimuth, or the row's ends; a
    below-mean cell among ``cells`` is a span of its own. Two spans share
    at most one cell, a below-mean one, so the cells of one span are
    contiguous in ``cells``.
    """
    n = s_prime.shape[1]
    below = np.concatenate(([-1], np.flatnonzero(s_prime < 0.0), [s_prime.size]))
    row_start = cells - cells % n
    lo = np.maximum(below[np.searchsorted(below, cells, side="right") - 1], row_start)
    hi = np.minimum(below[np.searchsorted(below, cells, side="left")], row_start + n - 1)
    starts = np.flatnonzero((np.diff(lo, prepend=-1) != 0) | (np.diff(hi, prepend=-1) != 0))
    return lo[starts], hi[starts], np.minimum.reduceat(rank, starts)


def _opens_region(lo: np.ndarray, hi: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Whether each span, visited at rank ``first``, opens a new region:
    whether no span sharing a cell with it was visited earlier.

    In flat order, a span shares a cell with the span ``d`` places on iff
    its ``hi`` is that span's ``lo``; at most three spans hold one cell, so
    ``d`` is 1 or 2.
    """
    new = np.ones(lo.size, dtype=bool)
    for d in (1, 2):
        touch = hi[:-d] == lo[d:]
        new[d:] &= ~(touch & (first[:-d] < first[d:]))
        new[:-d] &= ~(touch & (first[d:] < first[:-d]))
    return new


def mark_regions(h: np.ndarray, s_prime: np.ndarray, l_max: int):
    """Greedily mark peak regions in descending ``h`` order.

    Returns (marked, region_count). A visited cell marks its span: the
    cells between the nearest below-mean (``s_prime < 0``) cells on either
    side of it on its azimuth, inclusive, or the row's ends where there is
    none. ``region_count`` only advances when a newly marked span contains
    no previously marked cell. Marking stops at ``l_max`` regions or when no
    unmarked cell scores above zero: sub-zero cells are region boundaries,
    not regions, and marking them would let bare noise lend adjacency
    support to isolated detections. Score ties are visited in (azimuth,
    range) order.

    There is no loop over cells. Only a batch of the top-scoring positive
    cells is ordered: every one scoring at least the (4 l_max)-th best
    score, ties at the cut included, so the batch is a prefix of the visit
    order. Each span is visited at its first cell in that order, and it
    is a new region unless a span visited earlier shares one of its
    bounding below-mean cells. The cut falls at the ``l_max``-th new
    region; if the batch runs out first and positive cells remain, it is
    widened fourfold.

    ``l_max`` must be an int >= 1 (a bool is not one), and ``h`` and
    ``s_prime`` 2-D arrays of one shape, else ValueError.
    """
    if not _is_count(l_max):
        raise ValueError("l_max must be an int >= 1")
    if h.ndim != 2 or h.shape != s_prime.shape:
        raise ValueError(
            f"need 2-D h and s_prime of one shape, got {h.shape} and {s_prime.shape}"
        )
    pos = np.flatnonzero(h > 0.0)
    score = h.ravel()[pos]
    size = _BATCH_PER_REGION * l_max
    while True:
        if size < pos.size:
            take = score >= np.partition(score, pos.size - size)[pos.size - size]
            cells, cell_score = pos[take], score[take]
        else:
            cells, cell_score = pos, score
        # visit order: descending h, ties in (azimuth, range) order
        rank = np.empty(cells.size, dtype=np.intp)
        rank[np.argsort(-cell_score, kind="stable")] = np.arange(cells.size)
        lo, hi, first = _spans(s_prime, cells, rank)
        new = _opens_region(lo, hi, first)
        region_count = int(np.count_nonzero(new))
        if region_count >= l_max:
            keep = first <= np.sort(first[new])[l_max - 1]
            lo, hi, region_count = lo[keep], hi[keep], l_max
            break
        if cells.size == pos.size:
            break
        size *= _BATCH_PER_REGION
    marked = np.zeros(h.shape, dtype=bool)
    length = hi - lo + 1
    offset = np.repeat(lo - (np.cumsum(length) - length), length)
    marked.ravel()[offset + np.arange(offset.size)] = True
    return marked, region_count


def extract_keypoints(scan: PolarScan, l_max: int) -> KeypointSet:
    """Extract at most one keypoint per marked run per azimuth.

    Emission is one pass over the marked cells in (azimuth, range) order,
    with runs broken at gaps and at each azimuth's range ends. A run yields
    its first score maximum, and survives only if some cell of its range
    span is also marked on an adjacent azimuth. Every strength is positive,
    as marking visits only positive cells: the best > 0 test drops only a
    run whose best score is NaN, which a finite scan never scores.
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
        xy=bins_to_points(az, rb, scan.meta),
        strengths=best[keep],
        meta=scan.meta,
        timestamp=scan.timestamp,
    )


def write_keypoints_csv(path, kset: KeypointSet) -> None:
    """Write keypoints as CSV rows of (azimuth_index, range_bin, x, y, strength)."""
    with open(path, "w", encoding="ascii") as f:
        f.write("azimuth_index,range_bin,x,y,strength\n")
        rows = zip(kset.azimuths.tolist(), kset.range_bins.tolist(), kset.xy.tolist(),
                   kset.strengths.tolist())
        for a, r, (x, y), s in rows:
            f.write(f"{a},{r},{x!r},{y!r},{s!r}\n")
