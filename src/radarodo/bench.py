"""Timing sweeps for the two pipeline stages with algorithmic knobs.

Two fixed sweeps, seeded with ``_SEED``: data association time at the
region budgets ``_BUDGETS`` on a busy 256x256 scene (the budget drives the
candidate count), and keypoint extraction time on the ``_GRIDS`` grid
shapes. Each point is the best of ``_REPEATS`` runs, taken round-robin
after one warm-up call per point; the log-log slope of time against the
swept parameter summarizes the scaling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .keypoints import extract_keypoints
from .odometry import PipelineConfig, match_keypoint_sets
from .scan import SensorMeta
from .se2 import Pose2
from .simulate import ArtifactModel, random_world, render_scan


_BUDGETS = (240, 480, 960)
_GRIDS = ((128, 256), (256, 512), (512, 1024))
_REPEATS = 3
_SEED = 0


@dataclass(frozen=True)
class BenchPoint:
    parameter: float
    seconds: float
    detail: dict


def _busy_scene(meta: SensorMeta):
    """A clutter-rich scan pair so the keypoint count tracks the region budget."""
    world = random_world(
        600, 0.85 * meta.max_range, seed=_SEED, min_range=4.0, reflectivity_range=(0.6, 2.0)
    )
    art = ArtifactModel(speckle_scale=0.15, background_noise=0.01, beam_width_azimuths=2.5)
    scan_a = render_scan(world, Pose2(), meta, art, seed=_SEED, timestamp=0.0)
    scan_b = render_scan(
        world, Pose2(0.4, 0.1, 0.01), meta, art, seed=_SEED + 1, timestamp=meta.scan_period
    )
    return scan_a, scan_b


def _best_of_each(fns):
    """Best wall time of each call over ``_REPEATS`` rounds, and each call's
    result. Every call runs once untimed first; then each round times every
    call once, so a slow spell on the host spreads over all sweep points
    instead of landing on one."""
    outs = [fn() for fn in fns]
    best = [np.inf] * len(fns)
    for _ in range(_REPEATS):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, outs


def _match_budget(kp_a, kp_b, cfg):
    # fresh copies, so every timed call describes both sets instead of
    # reading the descriptors an earlier call cached on them
    return match_keypoint_sets(replace(kp_a), replace(kp_b), cfg)


def sweep_association():
    """Time ``match_keypoint_sets`` per region budget on a 256x256 busy scene."""
    scan_a, scan_b = _busy_scene(SensorMeta(256, 256, 0.5, 0.25))
    cfg = PipelineConfig(alpha=64, rho=64)
    runs = [
        partial(
            _match_budget,
            extract_keypoints(scan_a, l_max),
            extract_keypoints(scan_b, l_max),
            cfg,
        )
        for l_max in _BUDGETS
    ]
    seconds, results = _best_of_each(runs)
    return [
        BenchPoint(
            parameter=float(l_max),
            seconds=t,
            detail={"u": st["u"], "selected": st["n_selected"]},
        )
        for l_max, t, (_, st) in zip(_BUDGETS, seconds, results)
    ]


def sweep_extraction():
    """Time ``extract_keypoints(scan, 200)`` per (azimuths, range bins) grid shape."""
    world = random_world(120, 50.0, seed=_SEED, min_range=4.0)
    art = ArtifactModel(speckle_scale=0.3, background_noise=0.02)
    scans = [
        render_scan(world, Pose2(), SensorMeta(m, n, 64.0 / n, 0.25), art, seed=_SEED)
        for m, n in _GRIDS
    ]
    seconds, ksets = _best_of_each([partial(extract_keypoints, s, 200) for s in scans])
    return [
        BenchPoint(
            parameter=float(m * n),
            seconds=t,
            detail={"azimuths": m, "range_bins": n, "keypoints": len(kset)},
        )
        for (m, n), t, kset in zip(_GRIDS, seconds, ksets)
    ]


def slope_of(points) -> float:
    """Slope of the least-squares line through (log parameter, log seconds).
    Fewer than 2 distinct parameters have no slope: ValueError."""
    if len({p.parameter for p in points}) < 2:
        raise ValueError("need at least 2 distinct sweep parameters")
    xs = np.log([p.parameter for p in points])
    return float(np.polyfit(xs, np.log([p.seconds for p in points]), 1)[0])
