"""Ego-motion estimation from scanning radar.

The pipeline turns a pair of polar power scans into an SE(2) motion
estimate: gradient-weighted keypoint extraction, rotation-invariant
descriptors for match proposal, spectral selection of a mutually consistent
match subset, and a closed-form rigid fit. A synthetic scan simulator, an
ICP baseline, a sequence-level odometry runner, and an evaluation harness
round out the toolkit.
"""

from .bench import BenchPoint, slope_of, sweep_association, sweep_extraction
from .descriptors import UnaryMatches, descriptor_matrix, propose_unary_matches
from .errors import (
    DegenerateGeometryError,
    DegenerateProblemError,
    IcpDivergedError,
    MatchFailureError,
    NoCandidatesError,
    NoCompatibilityError,
    RadarOdoError,
    ScanFormatError,
    UnderdeterminedError,
)
from .icp import IcpConfig, IcpDiagnostics, icp_match, icp_matcher
from .keypoints import (
    KeypointSet,
    extract_keypoints,
    mark_regions,
    scoring_image,
    write_keypoints_csv,
)
from .matching import (
    MatchSelection,
    SpectralSolution,
    eigengap_measure,
    greedy_select,
    pairwise_compatibility,
    principal_eigenvector,
)
from .odometry import (
    OdometryResult,
    PairResult,
    PipelineConfig,
    evaluate,
    match_keypoint_sets,
    odometry_pairs,
    run_odometry,
)
from .scan import (
    PolarScan,
    SensorMeta,
    bins_to_points,
    load_scan,
    save_scan,
)
from .se2 import Pose2, apply_pose, compose, estimate_se2, inverse, relative_pose, wrap_angle
from .simulate import (
    ArtifactModel,
    Landmark,
    TrajectorySpec,
    make_trajectory,
    random_world,
    render_scan,
    render_sequence,
)

__version__ = "0.1.0"
