"""Command line front end: simulate, extract, odometry, eval, bench.

``simulate`` reads the dataset it renders from an optional flat key-value
file (``key = value`` per line, ``#`` comments); ``extract`` and
``odometry`` read the pipeline's one parameter, the region budget, from
``--l-max``. Each of the three writes a ``manifest.json`` next to its
outputs recording what it read (the resolved file keys, or ``l_max``),
inputs, outputs, and stage wall times. None of them writes into a dataset,
a directory holding ``scan_*.rscan`` files, whose scans and manifest are
``simulate``'s.

``odometry`` runs both methods (``ro`` and ``icp``) through
``odometry.run_odometry``, loading each scan file when the pair loop
reaches it, so at most two scans are in memory. Both read ``--l-max``;
``icp`` runs ``icp_matcher()`` at its defaults. A dataset whose scans
differ in sensor geometry is refused (exit 2) before the odd scan is
extracted. On glibc, ``odometry`` first fixes the allocator's mmap and
trim thresholds for its process, so each scan reuses the heap the one
before it freed instead of faulting its temporaries in again; the library
and the other commands leave the allocator alone.
``odometry`` scores against ``dataset/truth.csv`` when it exists, ``eval``
against any truth file; both write what ``odometry.evaluate`` returns, so
``eval`` of ``odometry``'s ``trajectory.csv`` repeats its error lines exactly.

Exit codes: 0 success, 2 configuration or usage error (including an
``extract`` or ``eval`` output that is one of its inputs), 3 I/O error
(including a malformed scan file, and ``simulate``, ``extract`` or
``odometry`` into a dataset), 4 no scan pair could be matched (``odometry``
still writes its outputs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import _check_sweep, slope_of, sweep_association, sweep_extraction
from .errors import ScanFormatError, stage
from .icp import icp_matcher
from .keypoints import extract_keypoints, write_keypoints_csv
from .odometry import PipelineConfig, evaluate, run_odometry
from .scan import SensorMeta, load_scan, save_scan
from .se2 import Pose2
from .simulate import ArtifactModel, TrajectorySpec, make_trajectory, random_world, render_sequence

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MATCH = 4

# mallopt parameters from glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


# every config key, all read by simulate, with its type and default. A
# default the library's records own is read from them.
CONFIG_SCHEMA = {
    "kind": (str, "straight"),
    "steps": (int, 20),
    "speed": (float, 2.0),
    "yaw_rate": (float, 0.0),
    "num_azimuths": (int, 100),
    "num_range_bins": (int, 200),
    "range_resolution": (float, 0.5),
    "scan_period": (float, 0.25),
    "n_landmarks": (int, 30),
    "world_extent": (float, 60.0),
    "min_range": (float, 4.0),
    "min_separation": (float, 0.0),
    **{f.name: (type(f.default), f.default) for f in dataclasses.fields(ArtifactModel)},
}


def read_config_file(path) -> dict:
    values, set_on = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValueError(f"cannot read config file: {err}") from err
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not a UTF-8 config file: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        typ, _ = CONFIG_SCHEMA[key]
        try:
            values[key] = typ(raw)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {err}") from err
        if typ is float and not math.isfinite(values[key]):
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {raw} is not finite")
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
    return values


def resolve_config(config_path) -> dict:
    cfg = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
    if config_path:
        cfg.update(read_config_file(config_path))
    return cfg


def write_manifest(out_dir: Path, command: str, cfg: dict, inputs, outputs, timings, **extra):
    manifest = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "timings_s": timings,
        **extra,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_pose_csv(path) -> TrajectorySpec:
    """Read a (timestamp, x, y, theta) CSV as a :class:`TrajectorySpec`.

    Raises ValueError, naming ``path``, for a file that is not ASCII, lacks
    the header or any row, has timestamps that do not increase, or has a row
    that is not four finite numbers (naming ``path:line``).
    """
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not an ASCII pose CSV") from err
    if not lines or lines[0].strip() != "timestamp,x,y,theta":
        raise ValueError(f"{path}: expected header 'timestamp,x,y,theta'")
    ts, poses = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        try:
            t, x, y, th = (float(v) for v in fields)
            if not math.isfinite(t):
                raise ValueError("timestamp must be finite")
            poses.append(Pose2(x, y, th))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
        ts.append(t)
    try:
        return TrajectorySpec(poses, ts)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def write_pose_csv(path, trajectory: TrajectorySpec):
    """Write the (timestamp, x, y, theta) CSV that ``read_pose_csv`` reads,
    floats by ``repr`` so they read back exactly."""
    with open(path, "w", encoding="ascii") as f:
        f.write("timestamp,x,y,theta\n")
        for t, p in zip(trajectory.timestamps, trajectory.poses):
            f.write(f"{float(t)!r},{p.x!r},{p.y!r},{p.theta!r}\n")


def write_metrics_file(path, entries: dict):
    """Plain ``key = value`` lines; timing keys carry a ``timing_`` prefix."""
    with open(path, "w", encoding="ascii") as f:
        for key, value in entries.items():
            f.write(f"{key} = {value}\n")


def write_trajectory_svg(path, named_tracks):
    """Minimal SVG polyline overlay of ``(name, poses)`` tracks, equal-aspect,
    y up."""
    tracks = [(name, np.array([[p.x, p.y] for p in poses])) for name, poses in named_tracks]
    pts = np.concatenate([xy for _, xy in tracks], axis=0)
    # a span past the float range would draw NaN; halving every coordinate
    # is exact, so such tracks are drawn from their halves
    if np.any(pts.max(axis=0) / 2 - pts.min(axis=0) / 2 > np.finfo(float).max / 2):
        tracks = [(name, xy / 2) for name, xy in tracks]
        pts = pts / 2
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    size = 640.0
    # the 1 m margins can round away on coordinates of magnitude >= 2**53,
    # so tracks that sit on one such point span nothing
    scale = size / span if span > 0 else 1.0
    colors = ["#888888", "#c0392b", "#2c6fbb", "#27ae60"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    for i, (name, xy) in enumerate(tracks):
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
    # by length first, so scan_100000 follows scan_99999 as simulate numbers them
    paths = sorted(dataset.glob("scan_*.rscan"), key=lambda p: (len(p.name), p.name))
    if not paths:
        raise FileNotFoundError(f"no scan_*.rscan files in {dataset}")
    return paths


def _refuse_overwrite(outputs: dict, inputs: dict):
    """Raise ValueError when an output path resolves to an input's or to an
    earlier output's; both map a flag to its path."""
    taken = {Path(path).resolve(): flag for flag, path in inputs.items()}
    for flag, path in outputs.items():
        resolved = Path(path).resolve()
        if resolved in taken:
            raise ValueError(f"{flag} {path} would overwrite {taken[resolved]}")
        taken[resolved] = flag


def _refuse_dataset(out_dir: Path):
    """Raise FileExistsError when ``out_dir`` holds ``scan_*.rscan`` files:
    new scans would mix two runs, and any manifest would replace its own."""
    if any(out_dir.glob("scan_*.rscan")):
        raise FileExistsError(f"{out_dir} already holds scan_*.rscan files")


def _from_config(record, cfg):
    """Build the dataclass ``record`` from the config keys named like its fields."""
    return record(**{f.name: cfg[f.name] for f in dataclasses.fields(record)})


def cmd_simulate(args) -> int:
    cfg = resolve_config(args.config)
    out_dir = Path(args.out)
    _refuse_dataset(out_dir)
    stats = {}
    with stage("total", stats):
        meta = _from_config(SensorMeta, cfg)
        world = random_world(
            cfg["n_landmarks"],
            cfg["world_extent"],
            seed=args.seed,
            min_range=cfg["min_range"],
            min_separation=cfg["min_separation"],
        )
        # one scan per rotation: the poses are spaced by the sensor's period
        traj = make_trajectory(
            cfg["kind"], cfg["steps"], cfg["speed"], cfg["yaw_rate"], meta.scan_period,
            seed=args.seed,
        )
        art = _from_config(ArtifactModel, cfg)
        scans = render_sequence(world, traj, meta, art, seed=args.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = []
        for k, scan in enumerate(scans):
            p = out_dir / f"scan_{k:05d}.rscan"
            save_scan(p, scan)
            outputs.append(p)
        truth_path = out_dir / "truth.csv"
        write_pose_csv(truth_path, traj)
        outputs.append(truth_path)
    write_manifest(out_dir, "simulate", cfg, [], outputs, stats["timings"], seed=args.seed)
    print(f"wrote {len(scans)} scans + truth.csv to {out_dir}")
    return 0


def cmd_extract(args) -> int:
    _refuse_overwrite({"--out": args.out}, {"--scan": args.scan})
    out_path = Path(args.out)
    _refuse_dataset(out_path.parent)
    scan = load_scan(args.scan)
    stats = {}
    with stage("extract", stats):
        kset = extract_keypoints(scan, args.l_max)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_keypoints_csv(out_path, kset)
    write_manifest(out_path.parent, "extract", {"l_max": args.l_max}, [args.scan], [out_path],
                   stats["timings"])
    print(f"{len(kset)} keypoints -> {out_path}")
    return 0


def _on_glibc() -> bool:
    """Whether this process runs on glibc (``os.confstr`` names it there)."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


def _keep_heap():
    """On glibc, keep freed blocks in the process: blocks below 32 MiB come
    from the heap, and the heap top is returned to the kernel only past
    64 MiB free. Elsewhere, or without ``mallopt``, do nothing.

    glibc's dynamic rule sets both thresholds from the largest block freed
    so far, about one scan here, so the heap top went back to the kernel
    after every scan and the next scan faulted its temporaries in again.
    32 MiB is the ceiling of that rule's mmap threshold on 64-bit, and the
    trim threshold keeps its 2x ratio. Setting either one turns the rule
    off, so both are set. The setting is process-wide and cannot be undone.
    """
    if not _on_glibc():
        return
    import ctypes  # only odometry needs it

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 32 << 20)
        mallopt(M_TRIM_THRESHOLD, 64 << 20)


def cmd_odometry(args) -> int:
    """Run odometry over ``args.dataset`` and write its outputs to ``args.out``.

    It calls :func:`_keep_heap` first, so on glibc the allocator keeps
    freed scan temporaries for the next scan; an in-process caller of
    ``main(["odometry", ...])`` keeps that setting for the rest of its
    process.
    """
    _keep_heap()
    dataset = Path(args.dataset)
    out_dir = Path(args.out)
    _refuse_dataset(out_dir)
    scan_paths = _scan_paths(dataset)

    stats = {}
    with stage("total", stats):
        scans = map(load_scan, scan_paths)  # each loaded when the pair loop reaches it
        matcher = icp_matcher() if args.method == "icp" else None
        result = run_odometry(scans, PipelineConfig(l_max=args.l_max), matcher)
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

    truth_path = dataset / "truth.csv"
    truth = None
    if truth_path.exists():
        try:
            truth = read_pose_csv(truth_path)  # plotted even when it does not line up
            entries.update(evaluate(result.trajectory, truth))
        except (OSError, ValueError) as err:
            print(f"warning: truth not scored: {err}", file=sys.stderr)

    pair_times = [sum(p.timings.values()) for p in result.pairs]
    entries["timing_pair_p50_s"] = float(np.percentile(pair_times, 50))
    entries["timing_pair_p90_s"] = float(np.percentile(pair_times, 90))
    entries["timing_total_s"] = stats["timings"]["total"]

    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "trajectory.csv"
    write_pose_csv(traj_path, result.trajectory)
    metrics_path = out_dir / "metrics.txt"
    write_metrics_file(metrics_path, entries)
    outputs = [traj_path, metrics_path]
    if args.plot:
        svg_path = out_dir / "trajectory.svg"
        tracks = [("estimate", result.trajectory)]
        if truth is not None:
            tracks.insert(0, ("truth", truth))
        write_trajectory_svg(svg_path, tracks)
        outputs.append(svg_path)
    write_manifest(out_dir, "odometry", {"l_max": args.l_max}, scan_paths, outputs,
                   stats["timings"])
    print(f"{args.method}: {len(result.pairs)} pairs, {result.failure_count} failures -> {out_dir}")
    if result.failure_count == len(result.pairs):
        print("error: no scan pair could be matched", file=sys.stderr)
        return EXIT_MATCH
    return 0


def cmd_eval(args) -> int:
    out_path = Path(args.out)
    svg_path = out_path.with_suffix(".svg")
    outputs = {"--out": out_path}
    if args.plot:
        outputs["--plot's <out>.svg"] = svg_path
    _refuse_overwrite(outputs, {"--trajectory": args.trajectory, "--truth": args.truth})
    estimate, truth = read_pose_csv(args.trajectory), read_pose_csv(args.truth)
    entries = evaluate(estimate, truth)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_file(out_path, entries)
    if args.plot:
        write_trajectory_svg(svg_path, [("truth", truth), ("estimate", estimate)])
    for key, value in entries.items():
        print(f"{key} = {value}")
    return 0


def cmd_bench(args) -> int:
    try:
        l_max_values = [int(v) for v in args.sweep.split(",") if v.strip()]
        grid_shapes = []
        for token in args.grid_sweep.split(","):
            if token.strip():
                m, n = (int(v) for v in token.split("x"))
                grid_shapes.append((m, n))
    except ValueError as err:
        raise ValueError(f"bad sweep specification: {err}") from err
    _check_sweep(l_max_values, args.repeats, grid=False)
    _check_sweep(grid_shapes, args.repeats, grid=True)
    assoc = sweep_association(l_max_values, seed=args.seed, repeats=args.repeats)
    extract = sweep_extraction(grid_shapes, seed=args.seed, repeats=args.repeats)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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

    p = sub.add_parser("simulate", help="render a synthetic scan sequence + truth")
    p.add_argument("--config", help="flat key = value file describing the dataset")
    p.add_argument("--seed", type=int, default=0, help="world, trajectory and noise seed")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("extract", help="extract keypoints from one scan file")
    p.add_argument("--l-max", type=int, default=PipelineConfig.l_max,
                   help="region budget, the pipeline's one parameter (default %(default)s)")
    p.add_argument("--scan", required=True, help="input .rscan file")
    p.add_argument("--out", required=True, help="output keypoints CSV")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("odometry", help="run scan-to-scan odometry over a dataset")
    p.add_argument("--l-max", type=int, default=PipelineConfig.l_max,
                   help="region budget, the pipeline's one parameter (default %(default)s)")
    p.add_argument("--dataset", required=True, help="scan_*.rscan files and an optional truth.csv")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", choices=("ro", "icp"), default="ro")
    p.add_argument("--plot", action="store_true", help="also write an SVG overlay")
    p.set_defaults(fn=cmd_odometry)

    p = sub.add_parser("eval", help="compare a trajectory CSV against truth")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="output metrics file")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="timing sweeps and log-log scaling slopes")
    p.add_argument("--seed", type=int, default=0, help="scene seed")
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
    except (OSError, ScanFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
