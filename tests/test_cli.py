import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radarodo
from radarodo import (
    IcpConfig, PipelineConfig, PolarScan, Pose2, SensorMeta, TrajectorySpec, evaluate,
    extract_keypoints, icp_matcher, load_scan, run_odometry, save_scan,
)
from radarodo import odometry
from radarodo.cli import (
    CONFIG_SCHEMA, _on_glibc, main, read_config_file, read_pose_csv, write_metrics_file,
    write_pose_csv,
)
from radarodo.errors import ScanFormatError

from conftest import child_env

SMALL_SIM = """
# compact scene for fast pipeline tests
kind = straight
steps = 4
speed = 3.0
num_azimuths = 256
num_range_bins = 120
range_resolution = 0.5
n_landmarks = 35
world_extent = 28.0
min_range = 6.0
min_separation = 3.0
"""


def write_cfg(tmp_path, text=SMALL_SIM, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def simulate(tmp_path, seed=0):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "data"
    rc = main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


def read_metrics(path):
    return dict(line.split(" = ") for line in path.read_text().splitlines() if " = " in line)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_config_file_parsing(tmp_path):
    path = write_cfg(tmp_path, "steps = 7 # trailing comment\nspeed = 1.5\n")
    values = read_config_file(path)
    assert values == {"steps": 7, "speed": 1.5}


def test_config_rejects_unknown_key(tmp_path, capsys):
    # dt is gone: simulated scans are one scan_period apart; the ICP method
    # runs at IcpConfig's defaults; and l_max is the --l-max flag of
    # extract and odometry, which read no config file
    for key in ("warp_drive", "dt", "nn_radius", "icp_tol", "icp_max_iterations", "l_max"):
        path = write_cfg(tmp_path, f"{key} = 0.25\n")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2, key
        assert f"{path}:1: unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_config_rejects_bad_value(tmp_path, capsys):
    # a non-finite float would reach the manifest as NaN or Infinity
    for text in ("steps = soon", "speckle_scale = nan", "background_noise = nan",
                 "false_positive_rate = nan", "yaw_rate = nan", "world_extent = inf",
                 "speed = -inf"):
        path = write_cfg(tmp_path, f"steps = 3\n{text}\n")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2, text
        key = text.split(" = ")[0]
        assert f"{path}:2: bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_repeated_config_key_names_the_file_and_both_lines(tmp_path, capsys):
    path = write_cfg(tmp_path, "steps = 5\nspeed = 3.0\n\nsteps = 7\n")
    with pytest.raises(ValueError, match=f"^{path}:4: steps already set on line 1$"):
        read_config_file(path)
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"{path}:4: steps already set on line 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_readme_config_table_lists_the_schema():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            table[cells[0]] = cells[1]
    assert list(table) == list(CONFIG_SCHEMA)
    for key, (typ, default) in CONFIG_SCHEMA.items():
        assert typ(table[key]) == default, key


def test_negative_landmark_count_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, SMALL_SIM + "n_landmarks = -1\n")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "n_landmarks" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("scale", ["1e-200", "1e200"])
def test_speckle_scale_without_a_finite_gamma_shape_is_a_config_error(tmp_path, scale, capsys):
    path = write_cfg(tmp_path, SMALL_SIM + f"speckle_scale = {scale}\n")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "speckle_scale" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_is_a_config_error(tmp_path, kind, capsys):
    path = tmp_path / "cfg.ini"
    if kind == "directory":
        path.mkdir()
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_non_utf8_config_names_the_file(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_bytes(b"steps = 3\n\xff\n")
    with pytest.raises(ValueError, match=f"^{path}: not a UTF-8 config file"):
        read_config_file(path)
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert str(path) in capsys.readouterr().err


def test_extract_that_fails_leaves_no_output_directory(tmp_path, capsys):
    path = tmp_path / "scan.rscan"
    small_scan_file(path)
    rc = main(["extract", "--scan", str(path), "--l-max", "0",
               "--out", str(tmp_path / "e1" / "sub" / "kp.csv")])
    assert rc == 2
    assert "l_max" in capsys.readouterr().err
    assert not (tmp_path / "e1").exists()


def test_simulate_whose_max_range_overflows_is_a_config_error(tmp_path, capsys):
    text = SMALL_SIM.replace("range_resolution = 0.5", "range_resolution = 1e308")
    path = write_cfg(tmp_path, text)
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "max range" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_simulate_with_a_step_count_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, "steps = 1" + "0" * 400 + "\n")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "steps * dt is too long" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "text", ["world_extent = 1e308", "world_extent = 8e307\nmin_separation = 1.0"],
    ids=["1e308", "8e307"],
)
def test_simulate_whose_world_extent_overflows_is_a_config_error(tmp_path, text, capsys):
    path = write_cfg(tmp_path, "n_landmarks = 10\nsteps = 3\n" + text + "\n")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "extent" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_odometry_on_points_beyond_the_pipeline_bound_is_a_config_error(tmp_path, capsys):
    # every range bin is 1e300 m long, so keypoint coordinates exceed 2**510
    path = write_cfg(tmp_path, "range_resolution = 1e300\nnum_range_bins = 50\n"
                               "num_azimuths = 64\nn_landmarks = 10\nsteps = 3\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(path), "--out", str(data)]) == 0
    capsys.readouterr()
    for method in ("ro", "icp"):
        out = tmp_path / method
        rc = main(["odometry", "--dataset", str(data), "--out", str(out), "--method", method,
                   "--l-max", "50"])
        assert rc == 2, method
        assert "point coordinates must be finite" in capsys.readouterr().err, method
        assert not out.exists(), method


def test_odometry_with_a_sigma_below_the_kernel_bound_is_a_config_error(tmp_path, capsys,
                                                                        monkeypatch):
    # sigma defaults to the range resolution; at 1e-200, 2 sigma**2 rounds
    # to zero
    path = write_cfg(tmp_path, "range_resolution = 1e-200\nworld_extent = 3e-199\n"
                               "min_range = 1e-199\nspeed = 1e-201\nsteps = 3\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(path), "--out", str(data)]) == 0
    capsys.readouterr()
    described = []
    describe = odometry.propose_unary_matches
    monkeypatch.setattr(odometry, "propose_unary_matches",
                        lambda *args: described.append(args) or describe(*args))
    out = tmp_path / "ro"
    rc = main(["odometry", "--dataset", str(data), "--out", str(out)])
    assert rc == 2
    assert "sigma must be in [2**-511, 2**511], got 1e-200" in capsys.readouterr().err
    assert not out.exists()
    # the width is checked before the first pair is described
    assert described == []


def test_missing_scan_file_is_io_error(tmp_path):
    rc = main(["extract", "--scan", str(tmp_path / "nope.rscan"), "--out", str(tmp_path / "kp.csv")])
    assert rc == 3


@pytest.mark.parametrize(
    "content",
    [
        b"#notascan\n1 2 x y z\n",
        b"#polarscan1\n8 16 0x1.0p-1 \xff\xfe 0x0.0p+0\n" + bytes(8 * 16 * 8),
        b"#polarscan1\n8 16 0x1.0p-1 0x1.0p-2 0x0.0p+0\n" + bytes(8 * 16 * 8 - 8),
        # a max range of 16 * 2**1020, past the float range
        b"#polarscan1\n8 16 0x1.0p+1020 0x1.0p-2 0x0.0p+0\n" + np.ones(8 * 16, "<f8").tobytes(),
    ],
    ids=["bad_magic", "non_ascii_header", "truncated_payload", "max_range_overflows"],
)
def test_malformed_scan_file_is_io_error(tmp_path, content, capsys):
    data = tmp_path / "data"
    data.mkdir()
    scan = data / "scan_00000.rscan"
    scan.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["extract", "--scan", str(scan), "--out", str(tmp_path / "kp.csv")])
    assert rc == 3
    assert str(scan) in capsys.readouterr().err
    rc = main(["odometry", "--dataset", str(data), "--out", str(tmp_path / "o")])
    assert rc == 3


@pytest.mark.parametrize("method", ["ro", "icp"])
def test_odometry_reports_a_malformed_last_scan_and_writes_nothing(tmp_path, method, capsys):
    data = simulate(tmp_path)
    last = sorted(data.glob("scan_*.rscan"))[-1]
    last.write_bytes(b"#notascan\n1 2 x y z\n")
    out = tmp_path / "o"
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out),
               "--method", method])
    assert rc == 3
    assert str(last) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["ro", "icp"])
def test_odometry_loads_each_scan_when_the_pair_loop_reaches_it(tmp_path, method,
                                                                monkeypatch):
    cfg = write_cfg(tmp_path, SMALL_SIM.replace("steps = 4", "steps = 6"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    refs, alive = [], []
    load = radarodo.cli.load_scan

    def recording_load(path):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        scan = load(path)
        refs.append(weakref.ref(scan))
        return scan

    monkeypatch.setattr(radarodo.cli, "load_scan", recording_load)
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data),
               "--out", str(tmp_path / "o"), "--method", method])
    assert rc == 0
    # the scan before the one being loaded may still be alive, no earlier one
    assert len(alive) == 6 and max(alive) <= 1


def test_odometry_reads_scans_past_scan_99999_in_index_order(tmp_path, capsys):
    # as strings, scan_100000 sorts between scan_10000 and scan_10001
    data = tmp_path / "data"
    data.mkdir()
    names = ["scan_10000", "scan_10001", "scan_100000"]
    for k, name in enumerate(names):
        power = np.random.default_rng(k).random((2, 2))
        save_scan(data / f"{name}.rscan", PolarScan(SensorMeta(2, 2, 0.5, 0.25), power, 0.25 * k))
    out = tmp_path / "out"
    rc = main(["odometry", "--dataset", str(data), "--out", str(out)])
    assert rc != 2, capsys.readouterr().err
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs == [str(data / f"{name}.rscan") for name in names]


def test_simulate_writes_dataset(tmp_path):
    out = simulate(tmp_path)
    scans = sorted(out.glob("scan_*.rscan"))
    assert len(scans) == 4
    assert (out / "truth.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 0
    assert manifest["config"]["steps"] == 4
    truth = read_pose_csv(out / "truth.csv")
    assert len(truth) == 4
    assert truth.poses[-1].x == pytest.approx(3 * 3.0 * 0.25)


def snapshot(root):
    """Every file under ``root``, by path, with its bytes."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def assert_a_dataset_refuses(tmp_path, capsys, argv):
    """Simulate six scans into ``tmp_path/d``, then run ``argv`` (formatted
    with that directory and a three-step config) and require exit 3, no file
    touched and the manifest still ``simulate``'s."""
    small = "num_azimuths = 64\nnum_range_bins = 64\nsteps = {}\n"
    data = tmp_path / "d"
    data.mkdir()  # a new, empty directory is fine
    cfg = write_cfg(tmp_path, small.format(6), name="six.ini")
    assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    before = snapshot(tmp_path)
    cfg = write_cfg(tmp_path, small.format(3), name="three.ini")
    before[cfg] = cfg.read_bytes()
    rc = main([arg.format(data=data, cfg=cfg) for arg in argv])
    assert rc == 3
    assert f"error: {data} already holds scan_*.rscan files" in capsys.readouterr().err
    assert snapshot(tmp_path) == before
    assert len(list(data.glob("scan_*.rscan"))) == 6
    assert json.loads((data / "manifest.json").read_text())["command"] == "simulate"


def test_simulate_into_a_directory_holding_scans_exits_3(tmp_path, capsys):
    assert_a_dataset_refuses(
        tmp_path, capsys, ["simulate", "--config", "{cfg}", "--seed", "2", "--out", "{data}"])


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--scan", "{data}/scan_00000.rscan", "--out", "{data}/kp.csv"],
        ["odometry", "--dataset", "{data}", "--out", "{data}"],
    ],
    ids=["extract", "odometry"],
)
def test_extract_or_odometry_into_a_dataset_exits_3(tmp_path, capsys, argv):
    # their manifest would replace simulate's, which records how the scans came about
    assert_a_dataset_refuses(tmp_path, capsys, argv)


def test_simulated_scans_are_one_scan_period_apart(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_SIM + "scan_period = 0.1\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    true_ts = read_pose_csv(data / "truth.csv").timestamps
    scans = [load_scan(p) for p in sorted(data.glob("scan_*.rscan"))]
    assert len(scans) == len(true_ts) == 4
    for k, (scan, t) in enumerate(zip(scans, true_ts)):
        assert scan.timestamp == t == k * 0.1
        assert scan.meta.scan_period == 0.1


def test_extract_writes_keypoints_csv(tmp_path):
    out = simulate(tmp_path)
    kp_csv = tmp_path / "kp.csv"
    rc = main(
        ["extract", "--l-max", "200", "--scan", str(out / "scan_00000.rscan"), "--out", str(kp_csv)]
    )
    assert rc == 0
    lines = kp_csv.read_text().splitlines()
    assert lines[0] == "azimuth_index,range_bin,x,y,strength"
    assert len(lines) > 10


def test_l_max_flag_sets_the_region_budget(tmp_path):
    out = simulate(tmp_path)
    scan = out / "scan_00000.rscan"
    kp_csv = tmp_path / "kp" / "kp.csv"
    rc = main(["extract", "--scan", str(scan), "--out", str(kp_csv), "--l-max", "5"])
    assert rc == 0
    assert json.loads((kp_csv.parent / "manifest.json").read_text())["config"] == {"l_max": 5}
    rows = kp_csv.read_text().splitlines()[1:]
    assert len(rows) == len(extract_keypoints(load_scan(scan), 5)) < len(
        extract_keypoints(load_scan(scan), 200))


def test_odometry_then_eval_round_trip(tmp_path):
    data = simulate(tmp_path)
    odo = tmp_path / "odo"
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(odo)])
    assert rc == 0
    traj_csv = odo / "trajectory.csv"
    metrics_path = odo / "metrics.txt"
    assert traj_csv.exists() and metrics_path.exists()

    metrics = read_metrics(metrics_path)
    assert int(metrics["n_pairs"]) == 3
    assert int(metrics["failures"]) == 0
    assert float(metrics["translation_median_m"]) < 0.25

    poses = read_pose_csv(traj_csv).poses
    assert len(poses) == 4
    assert math.hypot(poses[-1].x - 2.25, poses[-1].y) < 0.3

    ev = tmp_path / "eval"
    rc = main(
        [
            "eval",
            "--trajectory", str(traj_csv),
            "--truth", str(data / "truth.csv"),
            "--out", str(ev / "metrics.txt"),
        ]
    )
    assert rc == 0
    text = (ev / "metrics.txt").read_text()
    assert "translation_median_m" in text


def test_odometry_icp_method_runs(tmp_path):
    data = simulate(tmp_path)
    out = tmp_path / "icp"
    rc = main(
        ["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out), "--method", "icp"]
    )
    assert rc == 0
    poses = read_pose_csv(out / "trajectory.csv").poses
    assert len(poses) == 4
    # 0.75 m steps sit within the 2 m pairing radius, so ICP should track
    assert math.hypot(poses[-1].x - 2.25, poses[-1].y) < 0.4


def test_odometry_plot_writes_svg(tmp_path):
    data = simulate(tmp_path)
    out = tmp_path / "odo"
    rc = main(
        ["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out), "--plot"]
    )
    assert rc == 0
    svg = (out / "trajectory.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg
    assert "polyline" in svg


def test_eval_plot_writes_truth_and_estimate(tmp_path):
    data = simulate(tmp_path)
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = tmp_path / "ev" / "eval.txt"
    rc = main(["eval", "--trajectory", str(tmp_path / "o" / "trajectory.csv"),
               "--truth", str(data / "truth.csv"), "--out", str(out), "--plot"])
    assert rc == 0
    svg = (tmp_path / "ev" / "eval.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") == 2
    assert ">truth</text>" in svg and ">estimate</text>" in svg


def test_eval_plot_that_would_overwrite_its_metrics_is_a_usage_error(tmp_path, capsys):
    data = simulate(tmp_path)
    rc = main(["eval", "--trajectory", str(data / "truth.csv"), "--truth", str(data / "truth.csv"),
               "--out", str(tmp_path / "ev" / "res.svg"), "--plot"])
    assert rc == 2
    assert "overwrite" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--scan", "data/scan_00000.rscan", "--out", "data/../data/scan_00000.rscan"],
        ["eval", "--trajectory", "t.csv", "--truth", "data/truth.csv", "--out", "./data/truth.csv"],
        ["eval", "--trajectory", "t.csv", "--truth", "data/truth.csv", "--out", "t.csv"],
        ["eval", "--trajectory", "t.csv", "--truth", "data/truth.csv", "--out", "link.csv"],
        ["eval", "--trajectory", "t.csv", "--truth", "g.svg", "--out", "g.txt", "--plot"],
        ["eval", "--trajectory", "t.svg", "--truth", "data/truth.csv", "--out", "t.txt", "--plot"],
    ],
    ids=["extract-scan", "eval-truth", "eval-trajectory", "eval-truth-by-link",
         "eval-plot-truth", "eval-plot-trajectory"],
)
def test_an_output_that_is_an_input_is_a_usage_error(tmp_path, monkeypatch, argv, capsys):
    simulate(tmp_path)
    monkeypatch.chdir(tmp_path)
    truth = (tmp_path / "data" / "truth.csv").read_bytes()
    for name in ("t.csv", "t.svg", "g.svg"):
        (tmp_path / name).write_bytes(truth)
    (tmp_path / "link.csv").symlink_to(tmp_path / "data" / "truth.csv")
    capsys.readouterr()
    before = snapshot(tmp_path)
    rc = main(argv)
    assert rc == 2
    assert "would overwrite" in capsys.readouterr().err
    assert snapshot(tmp_path) == before


def test_metrics_file_writes_each_value_as_python_prints_it(tmp_path):
    floats = {"third": 1 / 3, "tiny": 5e-324, "big": 1e16, "negzero": -0.0, "inf": math.inf}
    entries = {"method": "ro", "n_pairs": 3, **floats, "np": np.float64(0.1)}
    path = tmp_path / "metrics.txt"
    write_metrics_file(path, entries)
    assert path.read_text().splitlines() == [
        "method = ro", "n_pairs = 3", *(f"{k} = {v!r}" for k, v in floats.items()), "np = 0.1",
    ]


def test_odometry_error_lines_equal_eval_of_its_trajectory(tmp_path):
    # and both equal, by repr, what the library's evaluate returns for the
    # same run: --l-max 200 and the CLI's ICP defaults; so does n_pairs
    cfg = write_cfg(tmp_path, SMALL_SIM.replace("kind = straight", "kind = arc\nyaw_rate = 0.4"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(data)]) == 0
    error_lines = lambda path: [
        line for line in path.read_text().splitlines()
        if line.split(" = ")[0].endswith(("_m", "_deg"))
    ]
    scans = [load_scan(p) for p in sorted(data.glob("scan_*.rscan"))]
    truth = read_pose_csv(data / "truth.csv")
    for method, matcher in (("ro", None), ("icp", icp_matcher(IcpConfig()))):
        out = tmp_path / method
        rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out),
                   "--method", method])
        assert rc == 0
        rc = main(["eval", "--trajectory", str(out / "trajectory.csv"),
                   "--truth", str(data / "truth.csv"), "--out", str(out / "eval.txt")])
        assert rc == 0
        lines = error_lines(out / "metrics.txt")
        assert len(lines) == 4 and lines == error_lines(out / "eval.txt"), method
        result = run_odometry(scans, PipelineConfig(l_max=200), matcher)
        entries = evaluate(result.trajectory, truth)
        assert lines == [f"{k} = {v!r}" for k, v in entries.items() if k != "n_pairs"], method
        n_pairs = {read_metrics(out / name)["n_pairs"] for name in ("metrics.txt", "eval.txt")}
        assert n_pairs == {str(entries["n_pairs"])} == {"3"}, method


def test_eval_plot_of_tracks_on_one_far_point_exits_0(tmp_path):
    cases = [
        # 1e20 +- 1 rounds back to 1e20, so the plot's 1 m margins span nothing
        ("1e20,1e20", "1e20,1e20", ["0.00,0.00 0.00,0.00"] * 2),
        # the span between the tracks overflows a float
        ("-1.7e308,0.0", "1.7e308,0.0", ["0.00,0.00 0.00,0.00", "640.00,0.00 640.00,0.00"]),
    ]
    for k, (truth_xy, est_xy, polylines) in enumerate(cases):
        # each track stands still for two rows
        for name, xy in (("truth.csv", truth_xy), ("trajectory.csv", est_xy)):
            (tmp_path / name).write_text(f"timestamp,x,y,theta\n0.0,{xy},0.0\n0.25,{xy},0.0\n")
        out = tmp_path / f"ev{k}" / "eval.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["eval", "--trajectory", str(tmp_path / "trajectory.csv"),
                       "--truth", str(tmp_path / "truth.csv"), "--out", str(out), "--plot"])
        assert rc == 0, est_xy
        assert read_metrics(out)["translation_median_m"] == "0.0"
        svg = out.with_suffix(".svg").read_text()
        assert "nan" not in svg
        assert [line.split('"')[1] for line in svg.splitlines() if "<polyline" in line] == polylines


def write_blank_dataset(root, stamps):
    root.mkdir()
    meta = SensorMeta(64, 48, 0.5, 0.25)
    for k, t in enumerate(stamps):
        save_scan(root / f"scan_{k:05d}.rscan", PolarScan(meta, np.zeros((64, 48)), t))
    return root


@pytest.mark.parametrize("method", ["ro", "icp"])
def test_odometry_with_no_matched_pair_exits_4_after_writing(tmp_path, method):
    data = write_blank_dataset(tmp_path / "blank", [0.0, 0.25, 0.5, 0.75])
    out = tmp_path / "out"
    rc = main(["odometry", "--dataset", str(data), "--out", str(out), "--method", method])
    assert rc == 4
    metrics = read_metrics(out / "metrics.txt")
    assert metrics["n_pairs"] == "3" and metrics["failures"] == "3"
    poses = read_pose_csv(out / "trajectory.csv").poses
    assert len(poses) == 4 and all(p.x == p.y == p.theta == 0.0 for p in poses)
    assert json.loads((out / "manifest.json").read_text())["command"] == "odometry"
    # no pair succeeded, so there is no confidence to average
    assert "mean_mutual_compatibility" not in metrics and "mean_eigengap" not in metrics


def test_confidences_average_over_matched_pairs_only(tmp_path):
    data = simulate(tmp_path)
    blank = load_scan(data / "scan_00002.rscan")
    save_scan(data / "scan_00002.rscan",
              PolarScan(blank.meta, np.zeros_like(blank.power), blank.timestamp))
    out = tmp_path / "ro"
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out)])
    assert rc == 0
    metrics = read_metrics(out / "metrics.txt")
    assert metrics["failures"] == "2"

    scans = [load_scan(p) for p in sorted(data.glob("scan_*.rscan"))]
    result = run_odometry(scans, PipelineConfig(l_max=200))
    matched = [p for p in result.pairs if not p.failed]
    assert len(matched) == 1
    assert float(metrics["mean_mutual_compatibility"]) == matched[0].mutual_compatibility > 0
    assert float(metrics["mean_eigengap"]) == matched[0].eigengap > 0


@pytest.mark.parametrize("method", ["ro", "icp"])
def test_odometry_rejects_unordered_or_single_scans(tmp_path, method):
    for name, stamps in (("one", [0.0]), ("stale", [0.0, 0.0])):
        data = write_blank_dataset(tmp_path / name, stamps)
        rc = main(["odometry", "--dataset", str(data), "--out", str(tmp_path / f"o_{name}"),
                   "--method", method])
        assert rc == 2
        assert not (tmp_path / f"o_{name}").exists()


@pytest.mark.parametrize("method", ["ro", "icp"])
def test_odometry_on_scans_of_different_geometry_exits_2_and_writes_nothing(tmp_path, method,
                                                                            capsys):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(0)
    for k, bins in enumerate((160, 200, 160)):
        meta = SensorMeta(128, bins, 0.5, 0.25)
        save_scan(data / f"scan_{k:05d}.rscan", PolarScan(meta, rng.random((128, bins)), 0.25 * k))
    out = tmp_path / "o"
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out),
               "--method", method])
    assert rc == 2
    assert "scans differ in sensor geometry" in capsys.readouterr().err
    assert not out.exists()


def test_odometry_on_empty_dataset_is_io_error(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    rc = main(["odometry", "--dataset", str(empty), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_bench_rejects_a_malformed_sweep_token(tmp_path, capsys):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--sweep", "20,40,80",
               "--grid-sweep", "32x64,48,64x128", "--repeats", "1"])
    assert rc == 2
    assert "bad sweep specification" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("shape", ["32x0", "1x64"])
def test_bench_rejects_a_grid_side_below_2_before_timing(tmp_path, shape, capsys, monkeypatch):
    def untimed(*args, **kwargs):
        raise AssertionError("a sweep ran before the grid shapes were checked")

    monkeypatch.setattr("radarodo.cli.sweep_association", untimed)
    monkeypatch.setattr("radarodo.cli.sweep_extraction", untimed)
    rc = main(["bench", "--out", str(tmp_path / "b"), "--sweep", "20,40,80",
               "--grid-sweep", f"48x96,{shape},64x128", "--repeats", "1"])
    assert rc == 2
    assert f"grid shape {shape} " in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bench_rejects_a_budget_below_1_before_timing(tmp_path, capsys, monkeypatch):
    def untimed(*args, **kwargs):
        raise AssertionError("a sweep ran before the region budgets were checked")

    monkeypatch.setattr("radarodo.cli.sweep_association", untimed)
    monkeypatch.setattr("radarodo.cli.sweep_extraction", untimed)
    rc = main(["bench", "--out", str(tmp_path / "b"), "--sweep", "0,40,80",
               "--grid-sweep", "32x64,48x96,64x128", "--repeats", "1"])
    assert rc == 2
    assert "region budget 0 " in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "sweep, grid_sweep, message",
    [
        ("50,100", "32x64,48x96,64x128", "need at least 3 region budgets, got 2"),
        ("20,40,80", "32x64,64x128", "need at least 3 grid shapes, got 2"),
        ("40,40,40", "32x64,48x96,64x128", "need at least 2 distinct region budgets"),
        ("20,40,80", "32x64,64x32,32x64", "need at least 2 distinct cell counts"),
    ],
    ids=["two-budgets", "two-grid-shapes", "equal-budgets", "equal-cell-counts"],
)
def test_bench_requires_three_sweep_points(tmp_path, sweep, grid_sweep, message, capsys):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--sweep", sweep,
               "--grid-sweep", grid_sweep, "--repeats", "1"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_requires_a_positive_repeat_count(tmp_path, repeats, capsys):
    out = tmp_path / "b"
    rc = main(["bench", "--out", str(out), "--sweep", "20,40,80",
               "--grid-sweep", "32x64,48x96,64x128", "--repeats", repeats])
    assert rc == 2
    assert "repeats must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep", ["10,12,14", "5,10,15", "2,3,4"])
def test_bench_with_an_unmatchable_budget_is_a_usage_error(tmp_path, sweep, capsys):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--sweep", sweep,
               "--grid-sweep", "32x64,48x96,64x128", "--repeats", "1"])
    assert rc == 2
    assert f"region budget {sweep.split(',')[0]} " in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bench_writes_summary(tmp_path):
    out = tmp_path / "bench"
    rc = main(
        [
            "bench",
            "--out", str(out),
            "--sweep", "20,40,80",
            "--grid-sweep", "32x64,48x96,64x128",
            "--repeats", "1",
        ]
    )
    assert rc == 0
    rows = (out / "bench.csv").read_text().splitlines()
    assert rows[0].startswith("stage,parameter,seconds")
    assert len(rows) == 7
    summary = (out / "bench_summary.txt").read_text()
    assert "association_slope" in summary
    assert "extraction_slope" in summary


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--trajectory", "t.csv", "--truth", "g.csv", "--out", "e.txt", *extra]
        for extra in (["--config", "/nonexistent"], ["--l-max", "5"], ["--seed", "9"])
    ]
    + [
        ["bench", "--out", "b", "--sweep", "1", *extra]
        for extra in (["--config", "/nonexistent"], ["--l-max", "3"])
    ]
    + [
        ["simulate", "--out", "d", "--l-max", "5"],
        ["extract", "--scan", "s.rscan", "--out", "k.csv", "--seed", "9"],
        ["extract", "--scan", "s.rscan", "--out", "k.csv", "--config", "c.ini"],
        ["odometry", "--dataset", "d", "--out", "o", "--seed", "9"],
        ["odometry", "--dataset", "d", "--out", "o", "--truth", "t.csv"],
        ["odometry", "--dataset", "d", "--out", "o", "--config", "c.ini"],
    ],
    ids=["eval-config", "eval-l-max", "eval-seed", "bench-config", "bench-l-max",
         "simulate-l-max", "extract-seed", "extract-config", "odometry-seed", "odometry-truth",
         "odometry-config"],
)
def test_commands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("l_max", ["0", "-3"], ids=["l_max = 0", "l_max = -3"])
def test_negative_pipeline_setting_is_a_config_error(tmp_path, l_max, capsys):
    data = simulate(tmp_path)
    rc = main(["odometry", "--l-max", l_max, "--dataset", str(data), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "l_max" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_each_manifest_records_only_what_its_command_read(tmp_path):
    data = simulate(tmp_path)
    config = json.loads((data / "manifest.json").read_text())["config"]
    assert "l_max" not in config and config["steps"] == 4
    out = tmp_path / "o"
    argvs = [["extract", "--scan", str(data / "scan_00000.rscan"), "--out", str(out / "kp.csv")],
             ["odometry", "--dataset", str(data), "--out", str(out)]]
    for argv in argvs:
        assert main([*argv, "--l-max", "150"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0] and manifest["config"] == {"l_max": 150}


def test_misaligned_truth_is_reported_not_scored(tmp_path, capsys):
    data = simulate(tmp_path)
    truth = data / "truth.csv"
    truth.write_text("\n".join(truth.read_text().splitlines()[:-1]) + "\n")
    out = tmp_path / "ro"
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out)])
    assert rc == 0
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    assert warnings == ["warning: truth not scored: truth length does not match scan count"]
    metrics = read_metrics(out / "metrics.txt")
    assert metrics["n_pairs"] == "3" and "translation_median_m" not in metrics
    assert (out / "trajectory.csv").exists() and (out / "manifest.json").exists()


@pytest.mark.parametrize("truth", ["bad_header", "header_only", "directory"])
def test_unreadable_truth_is_reported_not_scored(tmp_path, truth, capsys):
    data = simulate(tmp_path)
    path = data / "truth.csv"
    if truth == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_text("bad,header\n" if truth == "bad_header" else "timestamp,x,y,theta\n")
    out = tmp_path / "ro"
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out),
               "--plot"])
    assert rc == 0
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    assert len(warnings) == 1 and warnings[0].startswith("warning: truth not scored: ")
    assert str(path) in warnings[0]
    metrics = read_metrics(out / "metrics.txt")
    assert metrics["n_pairs"] == "3" and "translation_median_m" not in metrics
    for name in ("trajectory.csv", "trajectory.svg", "manifest.json"):
        assert (out / name).exists()
    assert (out / "trajectory.svg").read_text().count("<polyline") == 1


def test_absent_default_truth_is_skipped_silently(tmp_path, capsys):
    data = simulate(tmp_path)
    (data / "truth.csv").unlink()
    out = tmp_path / "ro"
    rc = main(["odometry", "--l-max", "200", "--dataset", str(data), "--out", str(out)])
    assert rc == 0
    assert "warning" not in capsys.readouterr().err
    assert "translation_median_m" not in read_metrics(out / "metrics.txt")


def test_malformed_pose_row_names_file_and_line(tmp_path):
    path = tmp_path / "poses.csv"
    path.write_text("timestamp,x,y,theta\n0.0,0.0,0.0,0.0\n\n0.25,1.0,0.0\n")
    with pytest.raises(ValueError, match=rf"^{path}:4: expected 4 fields, got 3$"):
        read_pose_csv(path)
    for row, reason in [("0.25,1.0,0.0,x", "could not convert"), ("nan,1.0,0.0,0.0", "finite"),
                        ("0.25,inf,0.0,0.0", "finite")]:
        path.write_text(f"timestamp,x,y,theta\n{row}\n")
        with pytest.raises(ValueError, match=rf"^{path}:2: .*{reason}"):
            read_pose_csv(path)


def test_pose_csv_reads_back_the_trajectory_it_wrote(tmp_path):
    traj = TrajectorySpec([Pose2(0.1, -2.0 / 3.0, 0.3), Pose2(1e-300, 1e300, -3.1)], [0.1, 1 / 3])
    path = tmp_path / "poses.csv"
    write_pose_csv(path, traj)
    back = read_pose_csv(path)
    assert isinstance(back, TrajectorySpec) and back.poses == traj.poses
    assert back.timestamps.tolist() == traj.timestamps.tolist()


def test_pose_csv_without_rows_or_increasing_timestamps_is_rejected(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("timestamp,x,y,theta\n0.0,0.0,0.0,0.0\n0.25,1.0,0.0,0.0\n")
    path = tmp_path / "poses.csv"
    for body, reason in [("", "one timestamp per pose"),
                         ("0.25,0.0,0.0,0.0\n0.25,1.0,0.0,0.0\n", "strictly increasing"),
                         ("0.25,0.0,0.0,0.0\n0.0,1.0,0.0,0.0\n", "strictly increasing")]:
        path.write_text("timestamp,x,y,theta\n" + body)
        with pytest.raises(ValueError, match=rf"^{path}: .*{reason}") as err:
            read_pose_csv(path)
        for traj, ref in [(path, truth), (truth, path)]:
            rc = main(["eval", "--trajectory", str(traj), "--truth", str(ref),
                       "--out", str(tmp_path / "eval.txt")])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {err.value}\n"


def test_module_runs_as_a_script_and_prints_its_version():
    proc = subprocess.run([sys.executable, "-m", "radarodo.cli", "--version"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"radarodo {radarodo.__version__}\n" == "radarodo 0.1.0\n"


NOISY_SIM = """
kind = random_walk
speed = 2.0
yaw_rate = 0.1
num_azimuths = 200
num_range_bins = 250
range_resolution = 0.4
n_landmarks = 120
world_extent = 80.0
min_range = 6.0
min_separation = 3.0
speckle_scale = 0.3
background_noise = 0.05
false_positive_rate = 7.0
dropout_prob = 0.2
"""


def minor_faults(argv, env):
    """Run ``argv`` to completion and return its minor page-fault count."""
    with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err = proc.stderr.read()
    assert proc.returncode == 0, err
    return usage.ru_minflt


@pytest.mark.skipif(not _on_glibc(), reason="the heap thresholds set are glibc's")
@pytest.mark.parametrize("method", ["ro", "icp"])
def test_odometry_reuses_its_heap_from_scan_to_scan(tmp_path, method):
    faults = {}
    for steps in (4, 12):
        cfg = write_cfg(tmp_path, NOISY_SIM + f"steps = {steps}\n", name=f"cfg{steps}.ini")
        data = tmp_path / f"data{steps}"
        assert main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(data)]) == 0
        faults[steps] = minor_faults(
            [sys.executable, "-m", "radarodo.cli", "odometry", "--l-max", "200",
             "--dataset", str(data), "--out", str(tmp_path / f"out{steps}"),
             "--method", method], child_env(blas_threads=1))
    # a scan's temporaries reuse the heap the scan before freed, so the
    # eight scans more cost less than one scan's worth of pages
    per_scan = (faults[12] - faults[4]) / 8
    assert per_scan < 200 * 250 * 8 / 4096, faults


POSE_HEADER = b"timestamp,x,y,theta\n"
pose_number = st.one_of(
    st.floats(), st.sampled_from(["", "-", "1e999", "0x1p3", " 1_0 ", "nan", "0.25"])
).map(str)
pose_csv_bytes = st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda b: POSE_HEADER + b),
    st.lists(
        st.lists(pose_number, min_size=3, max_size=5).map(",".join), max_size=5
    ).map(lambda rows: POSE_HEADER + "\n".join(rows).encode()),
    st.lists(
        st.tuples(st.floats(0, 1.0), st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
                  st.floats(-10, 10)),
        max_size=5,
    ).map(lambda rows: POSE_HEADER + "".join(f"{t!r},{x!r},{y!r},{a!r}\n"
                                             for t, x, y, a in sorted(rows)).encode()),
)


@settings(max_examples=300, deadline=None)
@given(content=pose_csv_bytes)
def test_any_pose_file_reads_or_is_a_value_error_and_eval_exits_0_or_2(content):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "poses.csv"
        path.write_bytes(content)
        try:
            trajectory = read_pose_csv(path)
        except ValueError:
            pass
        else:
            assert isinstance(trajectory, TrajectorySpec) and len(trajectory) > 0
        truth = tmp / "truth.csv"
        truth.write_text("timestamp,x,y,theta\n0.0,0.0,0.0,0.0\n0.25,1.0,0.0,0.0\n")
        for traj, ref in [(path, path), (path, truth), (truth, path)]:
            rc = main(["eval", "--trajectory", str(traj), "--truth", str(ref),
                       "--out", str(tmp / "eval.txt")])
            assert rc in (0, 2)


CONFIG_KEYS = ["l_max", "steps", "speed", "kind", "speckle_scale", "nn_radius", "warp"]
config_value = st.one_of(
    st.integers(-3, 5000).map(str), st.floats().map(repr),
    st.sampled_from(["", "1e400", "0x10", " 1_0 ", "nan", "-inf", "9" * 5000, "\x00", "#"]),
)
config_bytes = st.one_of(
    st.binary(max_size=120),
    st.lists(
        st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from([" = ", "=", " "]), config_value)
        .map("".join),
        max_size=4,
    ).map(lambda lines: "\n".join(lines).encode()),
    st.tuples(st.binary(max_size=20), st.binary(max_size=20)).map(
        lambda t: t[0] + b"steps = 5\n" + t[1]
    ),
)


def small_scan_file(path):
    power = np.random.default_rng(0).random((6, 10)) * 3.0
    save_scan(path, PolarScan(SensorMeta(6, 10, 0.5, 0.25), power))


@settings(max_examples=300, deadline=None)
@given(content=config_bytes)
def test_any_config_file_reads_or_is_a_value_error_and_simulate_exits_2_or_3(content):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "cfg.ini"
        path.write_bytes(content)
        try:
            values = read_config_file(path)
        except ValueError as err:
            assert str(path) in str(err)
        else:
            assert isinstance(values, dict)
        # simulate reads the file, then refuses the dataset before rendering
        data = tmp / "data"
        data.mkdir()
        small_scan_file(data / "scan_00000.rscan")
        before = snapshot(tmp)
        rc = main(["simulate", "--config", str(path), "--out", str(data)])
        assert rc in (2, 3)
        assert snapshot(tmp) == before


SCAN_MAGIC = b"#polarscan1\n"
any_float = st.one_of(st.floats(), st.sampled_from([0.0, 1.7e308, -1.0, 5e-324]))
power_float = st.floats(min_value=0.0, max_value=1.7e308)
header_field = st.one_of(
    st.integers(-2, 6).map(str), any_float.map(float.hex),
    st.sampled_from(["", "x", "0x1p99999", "9" * 5000, "\xff"]),
)


@st.composite
def scan_bytes(draw):
    """A scan file: random bytes, or the magic line, a header of small grid
    sizes and floats (fitting ones half the time, broken fields sometimes)
    and a payload of fitting or unfitting size."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=120))
    fits = draw(st.booleans())
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    value = st.floats(1e-3, 1e3) if fits else any_float
    fields = [str(m), str(n)] + [draw(value).hex() for _ in range(3)]
    if draw(st.integers(0, 3)) == 0:
        fields = draw(st.lists(header_field, max_size=6))
    header = " ".join(fields).encode() + b"\n"
    cells = m * n + draw(st.sampled_from([0, 0, 0, -1, 1]))
    power = draw(st.lists(power_float if fits else any_float, min_size=cells, max_size=cells))
    return SCAN_MAGIC + header + np.array(power, dtype="<f8").tobytes()


@settings(max_examples=300, deadline=None)
@given(content=scan_bytes())
def test_any_scan_file_loads_or_is_a_scan_format_error_and_extract_exits_0_or_3(content):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "scan.rscan"
        path.write_bytes(content)
        try:
            scan = load_scan(path)
        except ScanFormatError as err:
            assert str(path) in str(err)
        else:
            assert isinstance(scan, PolarScan)
        rc = main(["extract", "--scan", str(path), "--out", str(tmp / "kp.csv")])
        assert rc in (0, 3)
