"""Timing sweeps for the two pipeline stages with algorithmic knobs.

Two sweeps: data association time as a function of the region budget
(which drives the candidate count), and keypoint extraction time as a
function of grid size. Each point is the best of ``repeats`` runs, taken
round-robin after one warm-up call per point; the log-log slope of time
against the swept parameter summarizes the scaling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import RadarOdoError
from .keypoints import extract_keypoints
from .odometry import PipelineConfig, match_keypoint_sets
from .scan import SensorMeta, _is_count
from .se2 import Pose2
from .simulate import ArtifactModel, random_world, render_scan


@dataclass(frozen=True)
class BenchPoint:
    parameter: float
    seconds: float
    detail: dict


def _busy_scene(meta: SensorMeta, seed: int):
    """A clutter-rich scan pair so the keypoint count tracks the region budget."""
    world = random_world(
        600, 0.85 * meta.max_range, seed=seed, min_range=4.0, reflectivity_range=(0.6, 2.0)
    )
    art = ArtifactModel(speckle_scale=0.15, background_noise=0.01, beam_width_azimuths=2.5)
    scan_a = render_scan(world, Pose2(), meta, art, seed=seed, timestamp=0.0)
    scan_b = render_scan(
        world, Pose2(0.4, 0.1, 0.01), meta, art, seed=seed + 1, timestamp=meta.scan_period
    )
    return scan_a, scan_b


def _check_sweep(points, repeats, grid: bool) -> None:
    """Reject a sweep before anything is rendered, with a ValueError naming
    the bad shape or value. A sweep needs ``repeats`` an int >= 1, at least
    3 points, budgets ints >= 1 and grid sides ints >= 2 (a bool is neither),
    and, for its slope, at least 2 distinct region budgets or cell counts."""
    if not _is_count(repeats):
        raise ValueError(f"repeats must be at least 1, got {repeats!r}")
    what = "grid shapes" if grid else "region budgets"
    if len(points) < 3:
        raise ValueError(f"need at least 3 {what}, got {len(points)}")
    params = points
    for p in points:
        if not (grid or _is_count(p)):
            raise ValueError(f"region budget {p} must be an int >= 1")
        if grid and not (_is_count(p[0]) and _is_count(p[1]) and min(p) >= 2):
            raise ValueError(f"grid shape {p[0]}x{p[1]} needs integer sides of at least 2")
    if grid:
        params, what = [m * n for m, n in points], "cell counts m*n"
    if len(set(params)) < 2:
        raise ValueError(f"need at least 2 distinct {what} for a slope, got {params}")


def _best_of_each(fns, repeats: int):
    """Best wall time of each call over ``repeats`` rounds, and each call's
    result. Every call runs once untimed first; then each round times every
    call once, so a slow spell on the host spreads over all sweep points
    instead of landing on one."""
    outs = [fn() for fn in fns]
    best = [np.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, outs


def _match_budget(l_max, kp_a, kp_b, cfg):
    # fresh copies, so every timed call describes both sets instead of
    # reading the descriptors an earlier call cached on them
    try:
        return match_keypoint_sets(replace(kp_a), replace(kp_b), cfg)
    except RadarOdoError as err:
        raise ValueError(f"region budget {l_max} leaves too little to match: {err}") from err


def sweep_association(l_max_values, seed: int = 0, repeats: int = 3):
    """Time ``match_keypoint_sets`` per region budget on a 256x256 busy scene.
    A budget whose scene cannot be matched raises ValueError naming it."""
    _check_sweep(l_max_values, repeats, grid=False)
    scan_a, scan_b = _busy_scene(SensorMeta(256, 256, 0.5, 0.25), seed)
    cfg = PipelineConfig(alpha=64, rho=64)
    runs = [
        partial(
            _match_budget,
            l_max,
            extract_keypoints(scan_a, l_max),
            extract_keypoints(scan_b, l_max),
            cfg,
        )
        for l_max in l_max_values
    ]
    seconds, results = _best_of_each(runs, repeats)
    return [
        BenchPoint(
            parameter=float(l_max),
            seconds=t,
            detail={"u": st["u"], "selected": st["n_selected"]},
        )
        for l_max, t, (_, st) in zip(l_max_values, seconds, results)
    ]


def sweep_extraction(grid_shapes, seed: int = 0, repeats: int = 3):
    """Time ``extract_keypoints(scan, 200)`` per (azimuths, range bins) grid shape."""
    _check_sweep(grid_shapes, repeats, grid=True)
    world = random_world(120, 50.0, seed=seed, min_range=4.0)
    art = ArtifactModel(speckle_scale=0.3, background_noise=0.02)
    scans = [
        render_scan(world, Pose2(), SensorMeta(m, n, 64.0 / n, 0.25), art, seed=seed)
        for m, n in grid_shapes
    ]
    seconds, ksets = _best_of_each([partial(extract_keypoints, s, 200) for s in scans], repeats)
    return [
        BenchPoint(
            parameter=float(m * n),
            seconds=t,
            detail={"azimuths": m, "range_bins": n, "keypoints": len(kset)},
        )
        for (m, n), t, kset in zip(grid_shapes, seconds, ksets)
    ]


def slope_of(points) -> float:
    """Slope of the least-squares line through (log parameter, log seconds).
    Fewer than 2 distinct parameters have no slope: ValueError."""
    if len({p.parameter for p in points}) < 2:
        raise ValueError("need at least 2 distinct sweep parameters")
    xs = np.log([p.parameter for p in points])
    return float(np.polyfit(xs, np.log([p.seconds for p in points]), 1)[0])
