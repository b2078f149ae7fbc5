"""Synthetic scanning-radar scenes: landmark worlds, trajectories, rendering.

Rendering stamps one Gaussian blob per visible landmark onto the polar grid,
then layers optional artifacts on top: false-positive blobs, per-landmark
dropout, unit-mean multiplicative speckle, and an additive noise floor.
Each artifact family draws from its own child RNG stream, so e.g. raising
the false-positive rate never changes how the true landmarks are rendered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scan import PolarScan, SensorMeta, _is_count
from .se2 import Pose2, apply_pose, inverse, wrap_angle

_TWO_PI = 2.0 * math.pi
# the most rings a blob's azimuth window may cover: it wraps, so it is not
# clipped to the grid, and each blob allocates its whole window; every
# scene in the tests, demos and benchmark stays under one ring
MAX_BLOB_RINGS = 16


@dataclass(frozen=True, eq=False)
class Landmark:
    position: np.ndarray  # (2,) world coordinates, meters
    reflectivity: float = 1.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (2,) or not np.all(np.isfinite(pos)):
            raise ValueError("position must be a finite (2,) point")
        if not (self.reflectivity > 0.0):
            raise ValueError("reflectivity must be positive")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class ArtifactModel:
    """Noise and clutter knobs. The default renders a clean scan."""

    speckle_scale: float = 0.0
    background_noise: float = 0.0
    false_positive_rate: float = 0.0
    dropout_prob: float = 0.0
    beam_width_azimuths: float = 2.0
    range_spread_bins: float = 1.0

    def __post_init__(self):
        if not (self.speckle_scale >= 0 and self.background_noise >= 0):
            raise ValueError("noise scales must be non-negative")
        if self.speckle_scale > 0:
            # render_scan draws gamma(k, 1 / k) speckle with k = 1 / speckle_scale**2
            s2 = float(self.speckle_scale) * float(self.speckle_scale)
            if not (0.0 < s2 < math.inf and 1.0 / s2 < math.inf):
                raise ValueError(
                    "speckle_scale must keep the gamma shape 1 / speckle_scale**2 "
                    "finite and nonzero"
                )
        if not self.false_positive_rate >= 0:
            raise ValueError("false_positive_rate must be non-negative")
        if not (0.0 <= self.dropout_prob <= 1.0):
            raise ValueError("dropout_prob must lie in [0, 1]")
        if not (self.beam_width_azimuths > 0 and self.range_spread_bins > 0):
            raise ValueError("blob spreads must be positive")
        # a blob's window reaches 3 sigma each way; an int too large for a
        # float fails too
        try:
            fits = 3.0 * max(self.beam_width_azimuths, self.range_spread_bins) < math.inf
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError("blob spreads must keep 3 * spread finite")


@dataclass(frozen=True, eq=False)
class TrajectorySpec:
    """World-frame poses at finite, strictly increasing times; iterating it yields the poses."""

    poses: tuple
    timestamps: np.ndarray

    def __post_init__(self):
        poses = tuple(self.poses)
        ts = np.asarray(self.timestamps, dtype=float)
        if len(poses) == 0 or ts.shape != (len(poses),):
            raise ValueError("need one timestamp per pose")
        if not np.all(np.isfinite(ts)):
            raise ValueError("timestamps must be finite")
        if len(poses) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self):
        return len(self.poses)

    def __iter__(self):
        return iter(self.poses)


def _stamp_blob(grid, az_f, r_f, amplitude, sigma_a, sigma_r):
    """Add a separable Gaussian blob at continuous bin coords (az_f, r_f).

    Azimuth wraps around the rotation; range is clipped at the grid edge.
    """
    m, n = grid.shape
    ha = int(math.ceil(3.0 * sigma_a))
    hr = int(math.ceil(3.0 * sigma_r))
    a0 = int(math.floor(az_f))
    az_idx = np.arange(a0 - ha, a0 + ha + 1)
    da = az_idx - az_f
    az_idx = np.mod(az_idx, m)
    r0 = int(math.floor(r_f))
    r_idx = np.arange(max(r0 - hr, 0), min(r0 + hr, n - 1) + 1)
    dr = r_idx - r_f
    blob = amplitude * np.outer(
        np.exp(-0.5 * (da / sigma_a) ** 2), np.exp(-0.5 * (dr / sigma_r) ** 2)
    )
    # np.add.at tolerates repeated azimuth indices when the window wraps fully
    np.add.at(grid, (az_idx[:, None], r_idx[None, :]), blob)


def render_scan(
    world,
    pose: Pose2,
    meta: SensorMeta,
    artifacts: ArtifactModel | None = None,
    seed: int = 0,
    timestamp: float = 0.0,
) -> PolarScan:
    """Render the landmark ``world`` as seen from ``pose``.

    Deterministic for a fixed (world, pose, meta, artifacts, seed).
    Landmarks at or beyond the maximum range are silently out of view.
    Raises ValueError, before it allocates, when a blob's azimuth window
    (``2 ceil(3 beam_width_azimuths) + 1`` azimuths) spans more than
    ``MAX_BLOB_RINGS`` rings of ``meta.num_azimuths``.
    """
    art = artifacts if artifacts is not None else ArtifactModel()
    m, n = meta.num_azimuths, meta.num_range_bins
    if 2 * math.ceil(3.0 * art.beam_width_azimuths) + 1 > MAX_BLOB_RINGS * m:
        raise ValueError(
            f"beam_width_azimuths {art.beam_width_azimuths} gives a blob wider than "
            f"{MAX_BLOB_RINGS} rings of {m} azimuths"
        )
    rng_land, rng_fp, rng_noise = np.random.default_rng(seed).spawn(3)
    grid = np.zeros((m, n))

    sensor_from_world = inverse(pose)
    reflectivities = []
    for lm in world:
        reflectivities.append(lm.reflectivity)
        dropped = rng_land.uniform() < art.dropout_prob
        p = apply_pose(sensor_from_world, lm.position)
        rng_m = math.hypot(p[0], p[1])
        if dropped or rng_m >= meta.max_range or rng_m <= 0.0:
            continue
        az_f = (math.atan2(p[1], p[0]) % _TWO_PI) / _TWO_PI * m
        r_f = rng_m / meta.range_resolution - 0.5
        _stamp_blob(grid, az_f, r_f, lm.reflectivity, art.beam_width_azimuths, art.range_spread_bins)

    if art.false_positive_rate > 0:
        fp_amp_scale = float(np.mean(reflectivities)) if reflectivities else 1.0
        for _ in range(rng_fp.poisson(art.false_positive_rate)):
            az_f = rng_fp.uniform(0.0, m)
            r_f = rng_fp.uniform(0.0, n)
            amp = rng_fp.uniform(0.5, 1.0) * fp_amp_scale
            _stamp_blob(grid, az_f, r_f, amp, art.beam_width_azimuths, art.range_spread_bins)

    if art.speckle_scale > 0:
        # unit-mean gamma multiplier, variance speckle_scale**2
        k = 1.0 / art.speckle_scale**2
        grid *= rng_noise.gamma(shape=k, scale=1.0 / k, size=grid.shape)
    if art.background_noise > 0:
        grid += art.background_noise * rng_noise.standard_exponential(size=grid.shape)

    return PolarScan(meta=meta, power=grid, timestamp=timestamp)


def make_trajectory(
    kind: str,
    steps: int,
    speed: float = 1.0,
    yaw_rate: float = 0.0,
    dt: float = 1.0,
    seed: int = 0,
) -> TrajectorySpec:
    """Generate a vehicle path: ``straight``, ``arc``, or ``random_walk``."""
    if not _is_count(steps):
        raise ValueError("steps must be an int >= 1")
    if not (0.0 < dt < math.inf):  # NaN fails too
        raise ValueError("dt must be positive and finite")
    # every timestamp, and every distance and turn of the three kinds, is at
    # most (steps - 1) dt times 2 max(1, |speed|, |yaw_rate|); an int too
    # large for a float fails too
    try:
        fits = (steps - 1) * dt * 2.0 * max(1.0, abs(speed), abs(yaw_rate)) < math.inf
    except OverflowError:
        fits = False
    if not fits:
        raise ValueError("steps * dt is too long: the trajectory's times or distances overflow")
    ts = np.arange(steps) * dt

    if kind == "straight" or (kind == "arc" and abs(yaw_rate) < 1e-12):
        poses = [Pose2(k * speed * dt, 0.0, 0.0) for k in range(steps)]
    elif kind == "arc":
        radius = speed / yaw_rate
        angles = [k * yaw_rate * dt for k in range(steps)]
        poses = [Pose2(radius * math.sin(a), radius * (1.0 - math.cos(a)), a) for a in angles]
    elif kind == "random_walk":
        rng = np.random.default_rng(seed)
        poses = [Pose2()]
        v, w = speed, yaw_rate
        x = y = th = 0.0
        for _ in range(steps - 1):
            v = float(np.clip(v + rng.uniform(-0.5, 0.5) * speed * dt, 0.0, 2.0 * speed))
            w_span = max(abs(yaw_rate), 0.2)
            w = float(np.clip(w + rng.uniform(-0.5, 0.5) * w_span * dt, -2.0 * w_span, 2.0 * w_span))
            th = wrap_angle(th + w * dt)
            x += v * math.cos(th) * dt
            y += v * math.sin(th) * dt
            poses.append(Pose2(x, y, th))
    else:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    return TrajectorySpec(poses=tuple(poses), timestamps=ts)


def random_world(
    n_landmarks: int,
    extent: float,
    seed: int = 0,
    min_range: float = 3.0,
    reflectivity_range=(0.5, 2.0),
    min_separation: float = 0.0,
) -> list[Landmark]:
    """Scatter landmarks uniformly over [-extent, extent]^2.

    Rejects points closer than ``min_range`` to the origin (the radar starts
    there) and, optionally, closer than ``min_separation`` to each other.
    """
    if not _is_count(n_landmarks, 0):
        raise ValueError("n_landmarks must be an int >= 0")
    # 4 extent bounds the placement span and every landmark distance; NaN
    # fails too, and so does an extent too large for a float
    try:
        fits = extent > min_range and 4 * float(extent) < math.inf
    except OverflowError:
        fits = False
    if not fits:
        raise ValueError(f"extent must exceed min_range with 4 * extent finite, got {extent}")
    rng = np.random.default_rng(seed)
    placed = []
    landmarks = []
    attempts = 0
    while len(landmarks) < n_landmarks:
        attempts += 1
        if attempts > 10000 * n_landmarks:
            raise ValueError("could not place landmarks; relax min_separation")
        p = rng.uniform(-extent, extent, size=2)
        if math.hypot(p[0], p[1]) < min_range:
            continue
        if min_separation > 0 and placed:
            d = np.hypot(*(np.asarray(placed) - p).T)
            if np.min(d) < min_separation:
                continue
        placed.append(p)
        landmarks.append(Landmark(position=p, reflectivity=float(rng.uniform(*reflectivity_range))))
    return landmarks


def render_sequence(
    world,
    trajectory: TrajectorySpec,
    meta: SensorMeta,
    artifacts: ArtifactModel | None = None,
    seed: int = 0,
) -> list[PolarScan]:
    """Render one scan per trajectory pose, each with its own derived seed."""
    return [
        render_scan(world, pose, meta, artifacts, seed=seed + k, timestamp=float(t))
        for k, (pose, t) in enumerate(zip(trajectory.poses, trajectory.timestamps))
    ]
