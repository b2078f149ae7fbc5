"""Spectral selection of a consistent subset of candidate matches.

Candidate pairs are scored against each other by how well they preserve
pairwise distances between the two scans. The principal eigenvector of that
compatibility matrix concentrates on the largest mutually consistent group;
a greedy sweep over its squared entries then commits candidates one at a
time, enforcing one-to-one use of keypoints, and stops as soon as a
cosine-based consistency index drops. Two confidence measures come out of
the process: the consistency index of the final selection and a normalized
eigengap of the selection-restricted matrix, taken from the k x k block of
the k selected candidates. One block Lanczos kernel serves both spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descriptors import _BLOCK, UnaryMatches, _points
from .errors import DegenerateProblemError, NoCompatibilityError

# From this many selected candidates on, block Lanczos finds the eigengap's
# two eigenvalues faster than eigvalsh of the block. On sub-blocks of busy
# benchmark selections, one BLAS thread of a 2-core x86_64 VM, the two
# took 2.7 and 2.5 ms at k = 220, 2.1 and 2.5 ms at k = 230, 3.3 and 9.0 ms
# at k = 400, and 3.2 and 2.4 ms at k = 200.
_LANCZOS_MIN_K = 220
# steps of one or two Lanczos vectors each; the benchmark's eigenvectors take
# 13-16 steps of one, the eigengaps of its k = 357-502 selections 16-21 of two
_LANCZOS_STEPS = 40
# Ritz residual bound, relative to |lambda1|, that certifies a Ritz value
_LANCZOS_TOL = 1e-13
# a new Lanczos vector shorter than this, relative to |lambda1|, means the
# Krylov space is (nearly) invariant and the Ritz pairs exact to this
_LANCZOS_BREAKDOWN = 1e-10
# the kernel's widths: 2 sigma**2 is a normal float and 3 sigma finite
_SIGMA_MIN = 2.0**-511
_SIGMA_MAX = 2.0**511


def _check_sigma(sigma, name="sigma"):
    """Raise ValueError naming ``name`` unless ``sigma`` is a width the
    compatibility kernel can use: in [2**-511, 2**511], NaN not."""
    # written so that NaN fails too
    if not (_SIGMA_MIN <= sigma <= _SIGMA_MAX):
        raise ValueError(f"{name} must be in [2**-511, 2**511], got {sigma!r}")


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    eigenvector: np.ndarray
    eigenvalue: float
    iterations: int


@dataclass(frozen=True, eq=False)
class MatchSelection:
    """Committed matches plus the confidence measures of the selection."""

    selected: tuple  # (L1 index, L2 index) pairs in commit order
    indicator: np.ndarray
    mutual_compatibility: float
    eigengap: float


def _upper_distances(p: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Distances from points ``lo:hi`` of ``p`` to points ``lo:`` of ``p``:
    rows ``lo:hi`` of the pairwise distance matrix, columns ``lo:`` only,
    each ``sqrt(dx*dx + dy*dy)`` worked in place."""
    dx = p[lo:hi, 0:1] - p[None, lo:, 0]
    dy = p[lo:hi, 1:2] - p[None, lo:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def pairwise_compatibility(u_matches: UnaryMatches, l1, l2, sigma: float) -> np.ndarray:
    """Symmetric (u, u) matrix of pairwise consistency scores.

    Entry (g, h) is a Gaussian kernel over how much the distance between the
    two L1 keypoints differs from the distance between their proposed L2
    counterparts; discrepancies beyond 3 sigma are cut to exactly zero. The
    diagonal is zero, and so are entries of candidate pairs that share a
    keypoint on either side (they can never be selected together). A
    coordinate that is not finite or exceeds 2**510 in magnitude raises
    ValueError, as in :func:`radarodo.descriptors.descriptor_matrix`, and so
    do a candidate index at or past its set's size and a ``sigma`` outside
    [2**-511, 2**511] (:func:`_check_sigma`), where 2 sigma**2 could
    overflow or round to zero, before any (u, u) work. A discrepancy whose
    ratio to 2 sigma**2 overflows is far past the 3 sigma cut, so its entry
    is zero and the overflow is not reported.

    C is exactly symmetric: distances square their coordinate differences,
    (-d)**2 = d**2 exactly, and every later step is elementwise. So only its
    upper triangle is computed, a block of rows ``[lo, hi)`` at a time over
    columns ``lo:u``, and each block's off-diagonal part is mirrored into
    the rows below; C is the only (u, u) array. The cut is a multiply by
    the keep mask: the kernel's values are finite and >= 0, so multiplying
    by 1.0 or 0.0 is exact.
    """
    _check_sigma(sigma)
    u = u_matches.u
    if u < 2:
        raise DegenerateProblemError(f"need at least 2 candidates, got {u}")
    i1, i2 = u_matches.l1_indices, u_matches.l2_indices
    p1, p2 = _points(l1), _points(l2)
    if i1.max() >= p1.shape[0] or i2.max() >= p2.shape[0]:
        raise ValueError("candidate indices must be below their set's size")
    p1, p2 = p1[i1], p2[i2]
    c = np.empty((u, u))
    for lo in range(0, u, _BLOCK):
        hi = min(lo + _BLOCK, u)
        # exp(-(|d1 - d2| ** 2) / (2 sigma^2)) in the expression's own order,
        # the sign in the divisor: x / (-d) is (-x) / d bit for bit
        delta = _upper_distances(p1, lo, hi)
        block = c[lo:hi, lo:]
        np.subtract(delta, _upper_distances(p2, lo, hi), out=delta)
        np.abs(delta, out=delta)
        np.square(delta, out=block)
        # a ratio that overflows to -inf is past the cut and exps to 0
        with np.errstate(over="ignore"):
            np.divide(block, -2.0 * sigma**2, out=block)
        np.exp(block, out=block)
        # kept: within the 3 sigma cut and sharing no keypoint on either side
        keep = delta <= 3.0 * sigma
        keep &= i1[lo:hi, None] != i1[None, lo:]
        keep &= i2[lo:hi, None] != i2[None, lo:]
        block *= keep
        c[hi:, lo:hi] = c[lo:hi, hi:].T
    return c


def principal_eigenvector(c: np.ndarray) -> SpectralSolution:
    """Dominant eigenvector of a non-negative symmetric matrix.

    The top Ritz pair of one-vector Lanczos from the uniform vector, kept
    also on a breakdown (then exact) and at the step cap; ``iterations``
    counts the products with ``c``. The eigenvector is |y| for the Ritz
    vector y, which fixes the sign: entry by entry, |y| is no farther than
    y or -y from the non-negative Perron vector. The first Ritz value, the
    mean row sum, is positive unless ``c`` is zero: NoCompatibilityError.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("compatibility matrix must be square")
    ritz, v, products, _ = _lanczos(c, np.ones((1, c.shape[0])), [-1])
    if not ritz[-1] > 0.0:
        raise NoCompatibilityError("compatibility matrix is identically zero")
    return SpectralSolution(eigenvector=np.abs(v), eigenvalue=float(ritz[-1]), iterations=products)


def _orthonormalise(w: np.ndarray) -> np.ndarray:
    """Orthonormalise the one or two rows of ``w`` in place by Gram-Schmidt,
    the second row's projection taken twice; returns the upper-triangular R
    with ``w`` on entry equal to R^T times ``w`` on return. A row with
    nothing left stays zero (a breakdown) rather than divided 0/0."""
    r = np.zeros((len(w), len(w)))
    for i, row in enumerate(w):
        for _ in range(2 * i):
            coef = w[0] @ row
            row -= coef * w[0]
            r[0, 1] += coef
        r[i, i] = math.sqrt(row.dot(row))  # np.linalg.norm's sum, less overhead
        if r[i, i]:
            row /= r[i, i]
    return r


def _lanczos(a: np.ndarray, start: np.ndarray, ends):
    """Block Lanczos on the symmetric ``a`` from the one or two rows of
    ``start`` (orthonormalised in place), as many vectors per step; returns
    the ascending Ritz values, the top Ritz vector, the number of products
    with ``a`` and whether the Ritz values at ``ends`` are certified.

    Every new block is orthogonalised twice against all earlier ones. A
    step certifies once each Ritz value at ``ends`` has a residual norm
    ||A y - theta y|| = ||R s_j[lo:hi]|| (R the new block's triangular
    factor, s_j[lo:hi] the Ritz vector's last coordinates) at most
    ``_LANCZOS_TOL`` |lambda1|, so each is within that of an eigenvalue.
    Two vectors per step find a repeated or near-repeated lambda1, which
    one Krylov vector cannot tell from a simple one. The run ends
    uncertified at the step cap or on a breakdown: the new block has
    (nearly) no part outside the Krylov space built so far.
    """
    b = start.shape[0]
    n = b * _LANCZOS_STEPS
    q = np.empty((n + b, a.shape[0]))  # Lanczos vectors, one per row
    t = np.zeros((n + b, n))  # band, lower half read
    q[:b] = start
    _orthonormalise(q[:b])
    for lo in range(0, n, b):
        hi = lo + b
        w = q[lo:hi] @ a  # (a @ q.T).T, as a is symmetric
        basis = q[:hi]
        coef = basis @ w.T
        w -= coef.T @ basis
        again = basis @ w.T
        w -= again.T @ basis
        t[:hi, lo:hi] = coef + again
        r = _orthonormalise(w)
        ritz, s = np.linalg.eigh(t[:hi, :hi], UPLO="L")
        scale = abs(ritz[-1])
        broken = not r.diagonal().min() > _LANCZOS_BREAKDOWN * scale
        certified = (not broken and hi > b
                     and np.linalg.norm(r @ s[lo:hi, ends], axis=0).max() <= _LANCZOS_TOL * scale)
        if broken or certified or hi == n:
            return ritz, s[:, -1] @ basis, hi, certified
        q[hi : hi + b] = w
        t[hi : hi + b, lo:hi] = r


def eigengap_measure(c: np.ndarray, selected_rows) -> float:
    """Normalized gap between the two dominant eigenvalues of the
    selection-restricted matrix, clamped to [0, 1]: (lambda1 - lambda2) / u.

    The restricted matrix keeps the rows and columns of the selected
    candidates and zeroes the rest, so its nonzero spectrum is that of the
    k x k block ``c[rows][:, rows]``, taken here with rows in ascending
    order whatever order they are given in. lambda1 is the block's largest
    eigenvalue (its Perron root, as ``c`` is non-negative); lambda2 is the
    eigenvalue of largest magnitude among the rest, which can be negative,
    and 0 when there is no other. A large gap means the selection stands out
    against every alternative grouping.

    From k = ``_LANCZOS_MIN_K`` on, block Lanczos (:func:`_lanczos`) with
    two vectors per step from a fixed-seed positive start gives the
    ascending spectrum, with lambda1 and both ends of the rest
    each within 1e-13 |lambda1| of an eigenvalue; past its step cap, on an
    early breakdown, and on smaller blocks, where it is faster,
    ``np.linalg.eigvalsh`` of the block does. Either way the rest's
    smallest value is lambda2 only if its magnitude beats the largest by
    more than 2e-13 lambda1, the most two certified values can differ by:
    a closer tie goes to the positive end, so a repeated lambda1 gives a gap
    of 0 on both paths, even with the smallest eigenvalue at -lambda1.
    Where both paths pick the same end, their gaps differ by at most
    2e-13 lambda1 / u (below 2e-13 for a compatibility matrix, whose
    entries are at most 1).
    Raises ValueError unless ``c`` is square and every row is an integer
    in [0, u).
    """
    rows = np.asarray(selected_rows)
    if rows.size < 1:
        raise ValueError("need at least one selected candidate")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"need a square compatibility matrix, got shape {c.shape}")
    u = c.shape[0]
    if not np.issubdtype(rows.dtype, np.integer) or rows.min() < 0 or rows.max() >= u:
        raise ValueError(f"selected rows must be integers in [0, {u})")
    rows = np.unique(rows)
    block = c.take(rows, axis=0).take(rows, axis=1)
    certified = False
    if rows.size >= _LANCZOS_MIN_K:
        start = np.random.default_rng(0).uniform(0.5, 1.5, (2, rows.size))
        lam, _, _, certified = _lanczos(block, start, [-1, -2, 0])
    if not certified:
        lam = np.linalg.eigvalsh(block)
    lam1, rest = lam[-1], (lam[:-1] if lam.size > 1 else (0.0,))
    lam2 = rest[0] if -rest[0] - rest[-1] > 2 * _LANCZOS_TOL * lam1 else rest[-1]
    return float(min(max((lam1 - lam2) / u, 0.0), 1.0))


def greedy_select(c: np.ndarray, solution: SpectralSolution, u_matches: UnaryMatches) -> MatchSelection:
    """Commit candidates in decreasing squared-eigenvector order.

    Candidates are visited once each, in that order with ties to the lower
    index. One sharing a keypoint with an earlier commit is skipped, so the
    selection uses each keypoint at most once. Each tentative commit is kept
    only if the mutual compatibility index did not drop; the first
    candidate is always kept. The index is the cosine between the
    projection p = C (indicator * v) and the indicator, which holds k
    ones: (p . indicator) / (||p|| sqrt(k)), clipped to [0, 1], and 0 when
    p vanishes. p is kept up to date by adding one row per commit (C is
    exactly symmetric, and a row is contiguous). Raises ValueError unless
    ``c`` is (u, u) and the eigenvector has u entries.
    """
    v = solution.eigenvector
    u = u_matches.u
    if c.shape != (u, u):
        raise ValueError("compatibility matrix does not match candidate count")
    if v.shape != (u,):
        raise ValueError("eigenvector does not match candidate count")
    l1, l2 = u_matches.l1_indices.tolist(), u_matches.l2_indices.tolist()
    used1, used2 = set(), set()
    indicator = np.zeros(u)
    projected = np.zeros(u)
    rows = []
    current = None
    for g in np.argsort(-(v**2), kind="stable").tolist():
        if l1[g] in used1 or l2[g] in used2:
            continue
        indicator[g] = 1.0
        projected += c[g] * v[g]
        norm = math.sqrt(projected.dot(projected)) * math.sqrt(len(rows) + 1)
        score = min(max((projected @ indicator) / norm, 0.0), 1.0) if norm else 0.0
        if current is not None and score < current:
            indicator[g] = 0.0
            break
        current = score
        rows.append(g)
        used1.add(l1[g])
        used2.add(l2[g])
    return MatchSelection(
        selected=tuple((l1[g], l2[g]) for g in rows),
        indicator=indicator,
        mutual_compatibility=float(current),
        eigengap=eigengap_measure(c, rows),
    )
