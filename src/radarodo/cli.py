"""Command line front end: simulate, extract, odometry, eval, bench.

Configuration comes from an optional flat key-value file (``key = value``
per line, ``#`` comments) overridden by command line flags. Every command
writes a ``manifest.json`` recording the resolved configuration, inputs,
outputs, and stage wall times next to its outputs.

``odometry`` runs both methods (``ro`` and ``icp``) through
``odometry.run_odometry`` and scores them, like ``eval``, with
``odometry.evaluate``.

Exit codes: 0 success, 2 configuration or usage error, 3 I/O error
(including a malformed scan file), 4 no scan pair could be matched
(``odometry`` still writes its outputs).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import slope_of, sweep_association, sweep_extraction
from .errors import RadarOdoError, ScanFormatError
from .icp import IcpConfig, icp_matcher
from .keypoints import extract_keypoints, write_keypoints_csv
from .odometry import EvalMetrics, PipelineConfig, evaluate, run_odometry
from .scan import SensorMeta, load_scan, save_scan
from .se2 import Pose2, relative_pose
from .simulate import ArtifactModel, TrajectorySpec, make_trajectory, random_world, render_sequence

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MATCH = 4


class ConfigError(Exception):
    pass


# every config key with its type and default; flags override file values
CONFIG_SCHEMA = {
    "kind": (str, "straight"),
    "steps": (int, 20),
    "speed": (float, 2.0),
    "yaw_rate": (float, 0.0),
    "dt": (float, 0.25),
    "num_azimuths": (int, 100),
    "num_range_bins": (int, 200),
    "range_resolution": (float, 0.5),
    "scan_period": (float, 0.25),
    "n_landmarks": (int, 30),
    "world_extent": (float, 60.0),
    "min_range": (float, 4.0),
    "min_separation": (float, 0.0),
    "speckle_scale": (float, 0.0),
    "background_noise": (float, 0.0),
    "false_positive_rate": (float, 0.0),
    "dropout_prob": (float, 0.0),
    "beam_width_azimuths": (float, 2.0),
    "range_spread_bins": (float, 1.0),
    "l_max": (int, 1000),
    "alpha": (int, 0),  # 0 means "use the scan's azimuth count"
    "rho": (int, 0),
    "sigma_c": (float, 0.0),  # 0 means "use the range resolution"
    "nn_radius": (float, 2.0),
    "icp_tol": (float, 1e-5),
    "icp_max_iterations": (int, 50),
}


def read_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ, _ = CONFIG_SCHEMA[key]
        try:
            values[key] = typ(raw)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    return values


def resolve_config(args) -> dict:
    cfg = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
    if getattr(args, "config", None):
        cfg.update(read_config_file(args.config))
    if getattr(args, "l_max", None) is not None:
        cfg["l_max"] = args.l_max
    return cfg


def pipeline_config(cfg: dict) -> PipelineConfig:
    return PipelineConfig(
        l_max=cfg["l_max"],
        alpha=cfg["alpha"] or None,
        rho=cfg["rho"] or None,
        sigma_c=cfg["sigma_c"] or None,
    )


def write_manifest(out_dir: Path, command: str, cfg: dict, seed, inputs, outputs, timings):
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": cfg,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "timings_s": timings,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_pose_csv(path):
    """Read a (timestamp, x, y, theta) CSV; returns (timestamps, poses)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0].strip() != "timestamp,x,y,theta":
        raise ValueError(f"{path}: expected header 'timestamp,x,y,theta'")
    ts, poses = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        t, x, y, th = (float(v) for v in line.split(","))
        ts.append(t)
        poses.append(Pose2(x, y, th))
    return np.asarray(ts), poses


def write_pose_csv(path, timestamps, poses):
    """Write the (timestamp, x, y, theta) CSV that ``read_pose_csv`` reads,
    floats by ``repr`` so they read back exactly."""
    with open(path, "w", encoding="ascii") as f:
        f.write("timestamp,x,y,theta\n")
        for t, p in zip(timestamps, poses):
            f.write(f"{float(t)!r},{p.x!r},{p.y!r},{p.theta!r}\n")


def write_metrics_file(path, entries: dict):
    """Plain ``key = value`` lines; timing keys carry a ``timing_`` prefix."""
    with open(path, "w", encoding="ascii") as f:
        for key, value in entries.items():
            if isinstance(value, float):
                value = repr(value)
            f.write(f"{key} = {value}\n")


def error_entries(metrics: EvalMetrics) -> dict:
    """The ``*_m`` / ``*_deg`` metrics-file entries of an evaluation."""
    return {
        "translation_median_m": metrics.translation_median,
        "translation_std_m": metrics.translation_std,
        "rotation_median_deg": math.degrees(metrics.rotation_median),
        "rotation_std_deg": math.degrees(metrics.rotation_std),
    }


def write_trajectory_svg(path, named_tracks):
    """Minimal SVG polyline overlay of 2D tracks, equal-aspect, y up."""
    pts = np.concatenate([xy for _, xy in named_tracks], axis=0)
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    size = 640.0
    scale = size / span
    colors = ["#888888", "#c0392b", "#2c6fbb", "#27ae60"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    for i, (name, xy) in enumerate(named_tracks):
        coords = " ".join(
            f"{(x - lo[0]) * scale:.2f},{(hi[1] - y) * scale:.2f}" for x, y in xy
        )
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="10" y="{20 + 18 * i}" fill="{color}" font-size="14">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")


def _scan_paths(dataset: Path):
    paths = sorted(dataset.glob("scan_*.rscan"))
    if not paths:
        raise FileNotFoundError(f"no scan_*.rscan files in {dataset}")
    return paths


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    meta = SensorMeta(
        cfg["num_azimuths"], cfg["num_range_bins"], cfg["range_resolution"], cfg["scan_period"]
    )
    world = random_world(
        cfg["n_landmarks"],
        cfg["world_extent"],
        seed=args.seed,
        min_range=cfg["min_range"],
        min_separation=cfg["min_separation"],
    )
    traj = make_trajectory(
        cfg["kind"], cfg["steps"], cfg["speed"], cfg["yaw_rate"], cfg["dt"], seed=args.seed
    )
    art = ArtifactModel(
        speckle_scale=cfg["speckle_scale"],
        background_noise=cfg["background_noise"],
        false_positive_rate=cfg["false_positive_rate"],
        dropout_prob=cfg["dropout_prob"],
        beam_width_azimuths=cfg["beam_width_azimuths"],
        range_spread_bins=cfg["range_spread_bins"],
    )
    scans = render_sequence(world, traj, meta, art, seed=args.seed)
    outputs = []
    for k, scan in enumerate(scans):
        p = out_dir / f"scan_{k:05d}.rscan"
        save_scan(p, scan)
        outputs.append(p)
    truth_path = out_dir / "truth.csv"
    write_pose_csv(truth_path, traj.timestamps, traj.poses)
    outputs.append(truth_path)
    write_manifest(
        out_dir, "simulate", cfg, args.seed, [], outputs, {"total": time.perf_counter() - t0}
    )
    print(f"wrote {len(scans)} scans + truth.csv to {out_dir}")
    return 0


def cmd_extract(args) -> int:
    cfg = resolve_config(args)
    scan = load_scan(args.scan)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    kset = extract_keypoints(scan, cfg["l_max"])
    elapsed = time.perf_counter() - t0
    write_keypoints_csv(out_path, kset)
    write_manifest(
        out_path.parent, "extract", cfg, args.seed, [args.scan], [out_path], {"extract": elapsed}
    )
    print(f"{len(kset)} keypoints -> {out_path}")
    return 0


def cmd_odometry(args) -> int:
    cfg = resolve_config(args)
    dataset = Path(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scan_paths = _scan_paths(dataset)
    scans = [load_scan(p) for p in scan_paths]

    t0 = time.perf_counter()
    matcher = None
    if args.method == "icp":
        matcher = icp_matcher(
            IcpConfig(
                nn_radius=cfg["nn_radius"],
                convergence_tol=cfg["icp_tol"],
                max_iterations=cfg["icp_max_iterations"],
            )
        )
    result = run_odometry(scans, pipeline_config(cfg), matcher)
    total = time.perf_counter() - t0
    entries = {
        "method": args.method,
        "n_pairs": len(result.pairs),
        "failures": result.failure_count,
    }
    matched = [p for p in result.pairs if not p.failed]
    if args.method == "ro" and matched:
        entries["mean_mutual_compatibility"] = float(
            np.mean([p.mutual_compatibility for p in matched])
        )
        entries["mean_eigengap"] = float(np.mean([p.eigengap for p in matched]))

    truth_path = Path(args.truth) if args.truth else dataset / "truth.csv"
    true_poses = None
    if truth_path.exists():
        true_ts, true_poses = read_pose_csv(truth_path)
        try:
            truth = TrajectorySpec(true_poses, true_ts)
            metrics = evaluate([p.pose for p in result.pairs], result.timestamps, truth)
            entries.update(error_entries(metrics))
        except ValueError:
            pass  # truth that does not line up with the scans is not scored

    pair_times = [sum(p.timings.values()) for p in result.pairs]
    entries["timing_pair_p50_s"] = float(np.percentile(pair_times, 50))
    entries["timing_pair_p90_s"] = float(np.percentile(pair_times, 90))
    entries["timing_total_s"] = total

    traj_path = out_dir / "trajectory.csv"
    write_pose_csv(traj_path, result.timestamps, result.trajectory)
    metrics_path = out_dir / "metrics.txt"
    write_metrics_file(metrics_path, entries)
    outputs = [traj_path, metrics_path]
    if args.plot:
        svg_path = out_dir / "trajectory.svg"
        tracks = [("estimate", np.array([[p.x, p.y] for p in result.trajectory]))]
        if true_poses is not None:
            tracks.insert(0, ("truth", np.array([[p.x, p.y] for p in true_poses])))
        write_trajectory_svg(svg_path, tracks)
        outputs.append(svg_path)
    write_manifest(
        out_dir, "odometry", cfg, args.seed, [str(p) for p in scan_paths], outputs, {"total": total}
    )
    print(f"{args.method}: {len(result.pairs)} pairs, {result.failure_count} failures -> {out_dir}")
    if result.failure_count == len(result.pairs):
        print("error: no scan pair could be matched", file=sys.stderr)
        return EXIT_MATCH
    return 0


def cmd_eval(args) -> int:
    est_ts, est_poses = read_pose_csv(args.trajectory)
    true_ts, true_poses = read_pose_csv(args.truth)
    est_rel = [relative_pose(a, b) for a, b in zip(est_poses, est_poses[1:])]
    metrics = evaluate(est_rel, est_ts, TrajectorySpec(true_poses, true_ts))
    entries = {"n_pairs": metrics.n_pairs, **error_entries(metrics)}
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_file(out_path, entries)
    if args.plot:
        svg_path = out_path.with_suffix(".svg")
        write_trajectory_svg(
            svg_path,
            [
                ("truth", np.array([[p.x, p.y] for p in true_poses])),
                ("estimate", np.array([[p.x, p.y] for p in est_poses])),
            ],
        )
    for key, value in entries.items():
        print(f"{key} = {value}")
    return 0


def cmd_bench(args) -> int:
    try:
        l_max_values = [int(v) for v in args.sweep.split(",") if v.strip()]
        grid_shapes = []
        for token in args.grid_sweep.split(","):
            token = token.strip()
            if token:
                m, n = token.split("x")
                grid_shapes.append((int(m), int(n)))
    except ValueError as err:
        raise ConfigError(f"bad sweep specification: {err}") from err
    if len(l_max_values) < 3 or len(grid_shapes) < 3:
        raise ConfigError("each sweep needs at least 3 points")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    assoc = sweep_association(l_max_values, seed=args.seed, repeats=args.repeats)
    extract = sweep_extraction(grid_shapes, seed=args.seed, repeats=args.repeats)

    table_path = out_dir / "bench.csv"
    with open(table_path, "w", encoding="ascii") as f:
        f.write("stage,parameter,seconds,detail\n")
        for p in assoc:
            f.write(f"association,{p.parameter!r},{p.seconds!r},u={p.detail['u']}\n")
        for p in extract:
            f.write(
                f"extraction,{p.parameter!r},{p.seconds!r},"
                f"keypoints={p.detail['keypoints']}\n"
            )
    summary = {
        "association_slope": slope_of(assoc),
        "extraction_slope": slope_of(extract),
    }
    write_metrics_file(out_dir / "bench_summary.txt", summary)
    for key, value in summary.items():
        print(f"{key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarodo", description="Radar-only ego-motion estimation toolkit"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--l-max", dest="l_max", type=int, default=None, help="region budget")

    p = sub.add_parser("simulate", help="render a synthetic scan sequence + truth")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("extract", help="extract keypoints from one scan file")
    common(p)
    p.add_argument("--scan", required=True, help="input .rscan file")
    p.add_argument("--out", required=True, help="output keypoints CSV")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("odometry", help="run scan-to-scan odometry over a dataset")
    common(p)
    p.add_argument("--dataset", required=True, help="directory of scan_*.rscan files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", choices=("ro", "icp"), default="ro")
    p.add_argument("--truth", default=None, help="truth CSV (default: dataset/truth.csv)")
    p.add_argument("--plot", action="store_true", help="also write an SVG overlay")
    p.set_defaults(fn=cmd_odometry)

    p = sub.add_parser("eval", help="compare a trajectory CSV against truth")
    common(p)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="output metrics file")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="timing sweeps and log-log scaling slopes")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sweep", default="240,480,960", help="comma list of region budgets")
    p.add_argument(
        "--grid-sweep",
        default="128x256,256x512,512x1024",
        help="comma list of MxN grid shapes",
    )
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ScanFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except RadarOdoError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATCH
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
