import os
import warnings
from pathlib import Path

import numpy as np
import pytest

# On a failing @given test the Hypothesis pytest plugin imports its patch
# writer, whose libcst import warns a DeprecationWarning; pyproject turns
# that into an INTERNALERROR that ends the run. Imported once here, with
# only that category ignored, the plugin's later import is a cached no-op.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from radarodo import (
    ArtifactModel,
    Pose2,
    SensorMeta,
    TrajectorySpec,
    compose,
    extract_keypoints,
    make_trajectory,
    random_world,
    render_scan,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(blas_threads=None):
    """The environment for a child Python that imports this checkout's
    ``radarodo``; ``blas_threads`` pins the BLAS thread count."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}
    if blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return env


def composite_trajectory(speed=3.0, yaw_rate=0.2, dt=0.25, straight_steps=10, arc_steps=10):
    """Straight leg followed by an arc, stitched into one trajectory."""
    leg_a = make_trajectory("straight", straight_steps, speed, 0.0, dt, seed=0)
    leg_b = make_trajectory("arc", arc_steps, speed, yaw_rate, dt, seed=0)
    last = leg_a.poses[-1]
    poses = list(leg_a.poses) + [compose(last, p) for p in leg_b.poses[1:]]
    t0 = leg_a.timestamps[-1]
    stamps = list(leg_a.timestamps) + [t0 + t for t in leg_b.timestamps[1:]]
    return TrajectorySpec(poses=tuple(poses), timestamps=tuple(stamps))


@pytest.fixture
def bench_meta():
    return SensorMeta(num_azimuths=256, num_range_bins=120, range_resolution=0.5, scan_period=0.25)


def close_world(seed):
    # landmarks kept close enough that arcs subtend useful tangential extent
    return random_world(35, 28.0, seed=seed, min_range=6.0, min_separation=3.0)


NOISY_ARTIFACTS = ArtifactModel(
    speckle_scale=0.3,
    background_noise=0.05,
    false_positive_rate=7.0,
    dropout_prob=0.2,
)


def random_cloud(rng, n, spread=30.0):
    return rng.uniform(-spread, spread, size=(n, 2))


def random_pose(rng, t_scale=5.0):
    return Pose2(
        rng.uniform(-t_scale, t_scale),
        rng.uniform(-t_scale, t_scale),
        rng.uniform(-np.pi, np.pi),
    )


@pytest.fixture(scope="session")
def noisy_keypoints():
    """Keypoints of one noisy 400x500 scan, as in the seq_noisy benchmark."""
    meta = SensorMeta(num_azimuths=400, num_range_bins=500, range_resolution=0.2, scan_period=0.25)
    world = random_world(120, 80.0, seed=0, min_range=6.0, min_separation=3.0)
    return extract_keypoints(render_scan(world, Pose2(), meta, NOISY_ARTIFACTS, seed=200), 600)


@pytest.fixture(scope="session")
def busy_keypoints():
    """Keypoints of two scans of the association sweep's clutter-rich scene
    (about 880 each at l_max 960)."""
    meta = SensorMeta(num_azimuths=256, num_range_bins=256, range_resolution=0.5, scan_period=0.25)
    world = random_world(600, 0.85 * meta.max_range, seed=0, min_range=4.0,
                         reflectivity_range=(0.6, 2.0))
    art = ArtifactModel(speckle_scale=0.15, background_noise=0.01, beam_width_azimuths=2.5)
    poses = (Pose2(), Pose2(0.4, 0.1, 0.01))
    return tuple(
        extract_keypoints(render_scan(world, pose, meta, art, seed=k, timestamp=0.25 * k), 960)
        for k, pose in enumerate(poses)
    )
