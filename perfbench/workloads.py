"""The three benchmark workloads.

Each workload renders a fixed set of scenes in ``setup`` (``run.py`` lets
the run's seed set the order in which a round visits them), then runs whole
rounds: one round makes the same calls on the same inputs every time.
``run_round`` times each call as a user makes it; ``trace_round`` makes the
same call and also replays it through the layers' public functions with a
timer around each one, and checks that the replay gives the same pose.
Poses leave the program as ``(x, y, theta)`` tuples so that ``checks``
can judge them with its own arithmetic.
"""

from __future__ import annotations

import contextlib
import io
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from clock import Span
from radarodo import (
    ArtifactModel,
    IcpConfig,
    PipelineConfig,
    Pose2,
    SensorMeta,
    compose,
    descriptor_matrix,
    eigengap_measure,
    estimate_se2,
    extract_keypoints,
    greedy_select,
    icp_match,
    inverse,
    load_scan,
    make_trajectory,
    mark_regions,
    match_keypoint_sets,
    pairwise_compatibility,
    principal_eigenvector,
    propose_unary_matches,
    random_world,
    render_scan,
    run_odometry,
    save_scan,
    scoring_image,
)
from radarodo.cli import main as cli_main
from radarodo.errors import RadarOdoError

# the acceptance tests' noisy artifacts: speckle, noise floor, false
# positives and dropout
NOISY = ArtifactModel(
    speckle_scale=0.3, background_noise=0.05, false_positive_rate=7.0, dropout_prob=0.2
)
# 100 m range, so one azimuth bin spans 1.57 m at the edge
WIDE = SensorMeta(num_azimuths=400, num_range_bins=500, range_resolution=0.2, scan_period=0.25)


def as_tuple(pose: Pose2):
    return (pose.x, pose.y, pose.theta)


class Tally:
    """What one run saw: pair counts, per-call latencies, pose errors,
    layer counts and every failed check."""

    def __init__(self):
        self.pairs = 0
        self.failed = 0
        self.latency = []  # normalised s per pair, one entry per timed call
        self.t_err = []
        self.r_err = []
        self.first_pose = {}
        self.counts = defaultdict(list)
        self.problems = []

    def pair(self, key, pose, truth_rel):
        """Record one estimated relative pose. The first round scores it
        against truth; later rounds must reproduce it exactly."""
        self.pairs += 1
        if key in self.first_pose:
            if pose != self.first_pose[key]:
                self.problems.append(f"{key}: pose changed between rounds")
            return
        self.first_pose[key] = pose
        t, r = checks.pair_errors([pose], [(0.0, 0.0, 0.0), truth_rel])
        self.t_err += t
        self.r_err += r

    def check(self, key, problems):
        self.problems += [f"{key}: {p}" for p in problems]


def composite_trajectory(speed=3.0, yaw_rate=0.2, dt=0.25, straight_steps=10, arc_steps=11):
    """The acceptance tests' straight leg followed by an arc (20 poses)."""
    leg_a = make_trajectory("straight", straight_steps, speed, 0.0, dt)
    leg_b = make_trajectory("arc", arc_steps, speed, yaw_rate, dt)
    poses = list(leg_a.poses) + [compose(leg_a.poses[-1], p) for p in leg_b.poses[1:]]
    stamps = list(leg_a.timestamps) + [leg_a.timestamps[-1] + t for t in leg_b.timestamps[1:]]
    return poses, stamps


def scene(span, world, poses, stamps, meta, art, render_seed):
    """One scan per pose, scan k rendered with seed ``render_seed + k`` as
    ``render_sequence`` does. Returns (scans, truth poses as tuples)."""
    scans = [
        span.time("simulate.render", render_scan, world, pose, meta, art,
                  seed=render_seed + k, timestamp=float(t))
        for k, (pose, t) in enumerate(zip(poses, stamps))
    ]
    return scans, [as_tuple(p) for p in poses]


def in_turn(call, replay, swap):
    """Run the user's call and its replay, the replay first when ``swap``.
    Alternating the order keeps warm caches from favouring either side."""
    if swap:
        replayed = replay()
        return call(), replayed
    return call(), replay()


def replay_extract(span, scan, l_max, tally):
    """``extract_keypoints`` plus its score and mark stages on their own."""
    h, s_prime = span.time("keypoints.score", scoring_image, scan)
    _, regions = span.time("keypoints.mark", mark_regions, h, s_prime, l_max)
    kp = span.time("keypoints.extract", extract_keypoints, scan, l_max)
    tally.counts["keypoints.per_scan"].append(len(kp))
    tally.counts["keypoints.regions"].append(regions)
    return kp


def replay_match(span, kp_a, kp_b, cfg, tally, key):
    """``match_keypoint_sets`` (no prior) stage by stage; returns the pose
    of b in a's frame, or None if selection keeps fewer than 2 matches."""
    meta = kp_a.meta
    alpha = cfg.alpha or meta.num_azimuths
    rho = cfg.rho or meta.num_range_bins
    sigma = cfg.sigma_c or meta.range_resolution
    swapped = len(kp_a) > len(kp_b)
    l1, l2 = (kp_b, kp_a) if swapped else (kp_a, kp_b)
    for kset in (l1, l2):
        span.time("descriptors.matrix", descriptor_matrix, kset, alpha, rho, meta.max_range)
    unary = span.time("descriptors.propose", propose_unary_matches, l1, l2, alpha, rho,
                      meta.max_range)
    c = span.time("matching.compat", pairwise_compatibility, unary, l1, l2, sigma)
    solution = span.time("matching.eigen", principal_eigenvector, c)
    selection = span.time("matching.greedy_select", greedy_select, c, solution, unary)
    gap = span.time("matching.eigengap", eigengap_measure, c, np.flatnonzero(selection.indicator))
    tally.counts["descriptors.candidates"].append(unary.u)
    tally.counts["matching.eigen_iterations"].append(solution.iterations)
    tally.counts["matching.selected"].append(len(selection.selected))
    tally.check(key, checks.check_one_to_one(selection.selected, unary.u))
    tally.check(key, checks.check_confidences(selection.mutual_compatibility, gap))
    if gap != selection.eigengap:
        tally.problems.append(f"{key}: eigengap_measure disagrees with greedy_select")
    if len(selection.selected) < 2:
        return None
    idx1 = np.array([g for g, _ in selection.selected])
    idx2 = np.array([h for _, h in selection.selected])
    fitted = span.time("se2.fit", estimate_se2, l1.xy[idx1], l2.xy[idx2])
    return as_tuple(fitted if swapped else inverse(fitted))


class SeqNoisy:
    """Batch ``run_odometry`` on short pieces of the noisy composite
    trajectory, one piece per world."""

    WORLDS = 8
    SCANS = 5  # 4 pairs per call
    STARTS = (0, 4, 8, 12, 15)  # piece starts along the 20-pose trajectory
    CFG = PipelineConfig(l_max=600)
    RANGE_RESOLUTION = WIDE.range_resolution
    GLUE = "odometry.glue_ms"  # per-layer metric for the call's time beyond the layers

    def __init__(self, workdir):
        pass

    def setup(self, span):
        poses, stamps = composite_trajectory()
        pieces = []
        for i in range(self.WORLDS):
            world = random_world(120, 80.0, seed=i, min_range=6.0, min_separation=3.0)
            k0 = self.STARTS[i % len(self.STARTS)]
            piece = slice(k0, k0 + self.SCANS)
            pieces.append(scene(span, world, poses[piece], stamps[piece], WIDE, NOISY,
                                200 + 50 * i + k0))
        return pieces

    def warm_up(self, pieces):
        run_odometry(pieces[0][0], self.CFG)

    def _score(self, tally, i, result, truth):
        rel = [as_tuple(p.pose) for p in result.pairs]
        for k, (p, pose) in enumerate(zip(result.pairs, rel)):
            tally.failed += p.failed
            tally.pair((i, k), pose, checks.relative(truth[k], truth[k + 1]))
            tally.check((i, k), checks.check_confidences(p.mutual_compatibility, p.eigengap))
            if not 2 <= p.n_selected <= p.u:
                tally.problems.append(f"{(i, k)}: {p.n_selected} selected of {p.u}")
        tally.check(i, checks.check_composition([as_tuple(q) for q in result.trajectory], rel))
        return rel

    def run_round(self, pieces, clock, tally):
        for i, (scans, truth) in enumerate(pieces):
            result, seconds = clock.time("call", run_odometry, scans, self.CFG)
            tally.latency.append(seconds / len(result.pairs))
            self._score(tally, i, result, truth)

    def verify(self, pieces, tally):
        """Replay the first pair of every piece through the layers: the
        selection must be one-to-one and give the pose run_odometry gave."""
        for i, (scans, _) in enumerate(pieces):
            kp_a, kp_b = (extract_keypoints(s, self.CFG.l_max) for s in scans[:2])
            if replay_match(Span(), kp_a, kp_b, self.CFG, tally, (i, 0)) != tally.first_pose[(i, 0)]:
                tally.problems.append(f"piece {i}: replayed pose differs from run_odometry")

    def trace_round(self, pieces, clock, tally):
        for i, (scans, truth) in enumerate(pieces):

            def replay(span):
                kps = [replay_extract(span, s, self.CFG.l_max, tally) for s in scans]
                return [replay_match(span, a, b, self.CFG, tally, (i, k))
                        for k, (a, b) in enumerate(zip(kps, kps[1:]))]

            def work(span):
                return in_turn(lambda: span.time("call", run_odometry, scans, self.CFG),
                               lambda: replay(span), swap=i % 2)

            (result, replayed), norm = clock.bracket(work)
            tally.latency.append(norm["call"] / len(result.pairs))
            if replayed != self._score(tally, i, result, truth):
                tally.problems.append(f"piece {i}: replayed poses differ from run_odometry")


class StreamBusy:
    """A live 4 Hz feed with one caller: each new scan is extracted and
    matched against the previous scan's keypoints before the next arrives."""

    STREAMS = 3
    SCANS = 6  # 5 timed scans per stream after the first
    META = SensorMeta(num_azimuths=256, num_range_bins=256, range_resolution=0.5, scan_period=0.25)
    # the clutter-rich scene of radarodo.bench's association sweep
    ART = ArtifactModel(speckle_scale=0.15, background_noise=0.01, beam_width_azimuths=2.5)
    CFG = PipelineConfig(l_max=960)
    RANGE_RESOLUTION = META.range_resolution
    GLUE = None

    def __init__(self, workdir):
        pass

    def setup(self, span):
        streams = []
        for i in range(self.STREAMS):
            world = random_world(600, 0.85 * self.META.max_range, seed=i, min_range=4.0,
                                 reflectivity_range=(0.6, 2.0))
            traj = make_trajectory("random_walk", self.SCANS, 2.0, 0.1, self.META.scan_period,
                                   seed=i)
            streams.append(scene(span, world, traj.poses, traj.timestamps, self.META, self.ART,
                                 50 * i))
        return streams

    def _step(self, prev_kp, scan):
        kp = extract_keypoints(scan, self.CFG.l_max)
        try:
            pose, stats = match_keypoint_sets(prev_kp, kp, self.CFG, scan.timestamp - prev_kp.timestamp)
        except RadarOdoError:
            return kp, None, None
        return kp, as_tuple(pose), stats

    def warm_up(self, streams):
        scans = streams[0][0]
        self._step(extract_keypoints(scans[0], self.CFG.l_max), scans[1])

    def _score(self, tally, key, pose, stats, truth_rel):
        if pose is None:
            tally.pairs += 1
            tally.failed += 1
            return
        tally.pair(key, pose, truth_rel)
        tally.check(key, checks.check_confidences(stats["mutual_compatibility"], stats["eigengap"]))
        if not 2 <= stats["n_selected"] <= stats["u"]:
            tally.problems.append(f"{key}: {stats['n_selected']} selected of {stats['u']}")

    def _stream(self, clock, tally, scans, truth, i, traced):
        prev = extract_keypoints(scans[0], self.CFG.l_max)
        prev_replayed = prev
        trajectory, rel = [(0.0, 0.0, 0.0)], []
        for k in range(1, len(scans)):
            if traced:

                def replay(span):
                    kp = replay_extract(span, scans[k], self.CFG.l_max, tally)
                    return kp, replay_match(span, prev_replayed, kp, self.CFG, tally, (i, k))

                def work(span):
                    return in_turn(lambda: span.time("call", self._step, prev, scans[k]),
                                   lambda: replay(span), swap=k % 2)

                ((kp, pose, stats), (prev_replayed, replayed)), norm = clock.bracket(work)
                if pose != replayed:
                    tally.problems.append(f"{(i, k)}: replayed pose differs from match_keypoint_sets")
                seconds = norm["call"]
            else:
                (kp, pose, stats), seconds = clock.time("call", self._step, prev, scans[k])
            tally.latency.append(seconds)
            self._score(tally, (i, k), pose, stats, checks.relative(truth[k - 1], truth[k]))
            if pose is not None:
                # the caller's own dead reckoning from the returned poses
                rel.append(pose)
                trajectory.append(checks.compose(trajectory[-1], pose))
            prev = kp
        tally.check(i, checks.check_composition(trajectory, rel))

    def run_round(self, streams, clock, tally):
        for i, (scans, truth) in enumerate(streams):
            self._stream(clock, tally, scans, truth, i, traced=False)

    def verify(self, streams, tally):
        """Replay the first pair of every stream through the layers: the
        selection must be one-to-one and give the pose the stream gave."""
        for i, (scans, _) in enumerate(streams):
            kp_a, kp_b = (extract_keypoints(s, self.CFG.l_max) for s in scans[:2])
            if replay_match(Span(), kp_a, kp_b, self.CFG, tally, (i, 1)) != tally.first_pose.get((i, 1)):
                tally.problems.append(f"stream {i}: replayed pose differs from match_keypoint_sets")

    def trace_round(self, streams, clock, tally):
        for i, (scans, truth) in enumerate(streams):
            self._stream(clock, tally, scans, truth, i, traced=True)


class IcpCli:
    """``radarodo odometry --method icp`` called in-process on ``.rscan``
    datasets of a noisy random walk written during setup."""

    DATASETS = 8
    SCANS = 5  # 4 pairs per call
    L_MAX = 600
    # the CLI's defaults for the ICP keys of its config file
    ICP = IcpConfig(nn_radius=2.0, convergence_tol=1e-5, max_iterations=50)
    RANGE_RESOLUTION = WIDE.range_resolution
    GLUE = "cli.glue_ms"

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.setups = 0

    def setup(self, span):
        self.setups += 1
        root = self.workdir / f"setup{self.setups}"
        datasets = []
        for i in range(self.DATASETS):
            world = random_world(120, 80.0, seed=100 + i, min_range=6.0, min_separation=3.0)
            traj = make_trajectory("random_walk", self.SCANS, 2.0, 0.1, WIDE.scan_period,
                                   seed=100 + i)
            scans, truth = scene(span, world, traj.poses, traj.timestamps, WIDE, NOISY,
                                 100 + 50 * i)
            data = root / f"data{i}"
            data.mkdir(parents=True)
            for k, scan in enumerate(scans):
                save_scan(data / f"scan_{k:05d}.rscan", scan)
            with open(data / "truth.csv", "w", encoding="ascii") as f:
                f.write("timestamp,x,y,theta\n")
                for t, (x, y, th) in zip(traj.timestamps, truth):
                    f.write(f"{float(t)!r},{x!r},{y!r},{th!r}\n")
            datasets.append((data, root / f"out{i}"))
        return datasets

    def _cli(self, data, out):
        argv = ["odometry", "--method", "icp", "--l-max", str(self.L_MAX),
                "--dataset", str(data), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)

    def warm_up(self, datasets):
        self._cli(*datasets[0])

    def _score(self, tally, i, code, data, out):
        _, truth = checks.read_pose_csv(data / "truth.csv")
        if code != 0:
            tally.pairs += self.SCANS - 1
            tally.failed += self.SCANS - 1
            tally.problems.append(f"dataset {i}: exit code {code}")
            return None
        _, trajectory = checks.read_pose_csv(out / "trajectory.csv")
        metrics = checks.read_metrics(out / "metrics.txt")
        rel = [checks.relative(a, b) for a, b in zip(trajectory, trajectory[1:])]
        tally.failed += int(metrics.get("failures", 0))
        for k, pose in enumerate(rel):
            tally.pair((i, k), pose, checks.relative(truth[k], truth[k + 1]))
        t_err, _ = checks.pair_errors(rel, truth)
        tally.check(i, checks.check_cli_run(code, trajectory, truth, metrics, self.SCANS, t_err))
        return trajectory

    def run_round(self, datasets, clock, tally):
        for i, (data, out) in enumerate(datasets):
            code, seconds = clock.time("call", self._cli, data, out)
            tally.latency.append(seconds / (self.SCANS - 1))
            self._score(tally, i, code, data, out)

    def verify(self, datasets, tally):
        """Nothing to add: ICP selects no matches, and every call's outputs
        are already checked against truth and the CLI's own metrics."""

    def trace_round(self, datasets, clock, tally):
        for i, (data, out) in enumerate(datasets):

            def replay(span):
                scans = [span.time("scan.load", load_scan, p)
                         for p in sorted(data.glob("scan_*.rscan"))]
                kps = [replay_extract(span, s, self.L_MAX, tally) for s in scans]
                trajectory = [Pose2()]
                for a, b in zip(kps, kps[1:]):
                    fitted, diag = span.time("icp.match", icp_match, a, b, self.ICP)
                    tally.counts["icp.iterations"].append(diag.iterations)
                    trajectory.append(compose(trajectory[-1], inverse(fitted)))
                return [as_tuple(p) for p in trajectory]

            def work(span):
                return in_turn(lambda: span.time("call", self._cli, data, out),
                               lambda: replay(span), swap=i % 2)

            (code, replayed), norm = clock.bracket(work)
            tally.latency.append(norm["call"] / (self.SCANS - 1))
            written = self._score(tally, i, code, data, out)
            # trajectory.csv holds floats by repr, so the replay must match exactly
            if written is not None and written != replayed:
                tally.problems.append(f"dataset {i}: replayed ICP trajectory differs from the CLI's")


WORKLOADS = {"seq_noisy": SeqNoisy, "stream_busy": StreamBusy, "icp_cli": IcpCli}
