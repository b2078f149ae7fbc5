"""Timing sweeps for the two pipeline stages with algorithmic knobs.

Two sweeps: data association time as a function of the region budget
(which drives the candidate count), and keypoint extraction time as a
function of grid size. Each point is the best of ``repeats`` runs, taken
round-robin after one warm-up call per point; the log-log slope of time
against the swept parameter summarizes the scaling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import RadarOdoError
from .keypoints import extract_keypoints
from .odometry import PipelineConfig, match_keypoint_sets
from .scan import SensorMeta
from .se2 import Pose2
from .simulate import ArtifactModel, random_world, render_scan


@dataclass(frozen=True)
class BenchPoint:
    parameter: float
    seconds: float
    detail: dict


def loglog_slope(xs, ys) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least 2 sweep points")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


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
    try:
        return match_keypoint_sets(kp_a, kp_b, cfg)
    except RadarOdoError as err:
        raise ValueError(f"region budget {l_max} leaves too little to match: {err}") from err


def sweep_association(l_max_values, seed: int = 0, repeats: int = 3, meta: SensorMeta | None = None):
    """Time ``match_keypoint_sets`` per region budget. A budget whose scene
    cannot be matched raises ValueError naming it."""
    if len(l_max_values) < 3:
        raise ValueError("need at least 3 sweep points")
    meta = meta or SensorMeta(256, 256, 0.5, 0.25)
    scan_a, scan_b = _busy_scene(meta, seed)
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


def sweep_extraction(grid_shapes, seed: int = 0, repeats: int = 3, l_max: int = 200):
    """Time keypoint extraction per (azimuths, range bins) grid shape."""
    if len(grid_shapes) < 3:
        raise ValueError("need at least 3 sweep points")
    world = random_world(120, 50.0, seed=seed, min_range=4.0)
    art = ArtifactModel(speckle_scale=0.3, background_noise=0.02)
    scans = [
        render_scan(world, Pose2(), SensorMeta(m, n, 64.0 / n, 0.25), art, seed=seed)
        for m, n in grid_shapes
    ]
    seconds, ksets = _best_of_each([partial(extract_keypoints, s, l_max) for s in scans], repeats)
    return [
        BenchPoint(
            parameter=float(m * n),
            seconds=t,
            detail={"azimuths": m, "range_bins": n, "keypoints": len(kset)},
        )
        for (m, n), t, kset in zip(grid_shapes, seconds, ksets)
    ]


def slope_of(points) -> float:
    return loglog_slope([p.parameter for p in points], [p.seconds for p in points])
