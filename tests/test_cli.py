import json
import math

import numpy as np
import pytest

from radarodo import PipelineConfig, PolarScan, SensorMeta, load_scan, run_odometry, save_scan
from radarodo.cli import main, read_config_file, read_pose_csv

SMALL_SIM = """
# compact scene for fast pipeline tests
kind = straight
steps = 4
speed = 3.0
dt = 0.25
num_azimuths = 256
num_range_bins = 120
range_resolution = 0.5
n_landmarks = 35
world_extent = 28.0
min_range = 6.0
min_separation = 3.0
l_max = 200
alpha = 64
rho = 64
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
    return cfg, out


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


def test_config_rejects_unknown_key(tmp_path):
    path = write_cfg(tmp_path, "warp_drive = 9\n")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_config_rejects_bad_value(tmp_path):
    path = write_cfg(tmp_path, "steps = soon\n")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_missing_scan_file_is_io_error(tmp_path):
    rc = main(["extract", "--scan", str(tmp_path / "nope.rscan"), "--out", str(tmp_path / "kp.csv")])
    assert rc == 3


@pytest.mark.parametrize(
    "content",
    [
        b"#notascan\n1 2 x y z\n",
        b"#polarscan1\n8 16 0x1.0p-1 \xff\xfe 0x0.0p+0\n" + bytes(8 * 16 * 8),
        b"#polarscan1\n8 16 0x1.0p-1 0x1.0p-2 0x0.0p+0\n" + bytes(8 * 16 * 8 - 8),
    ],
    ids=["bad_magic", "non_ascii_header", "truncated_payload"],
)
def test_malformed_scan_file_is_io_error(tmp_path, content, capsys):
    data = tmp_path / "data"
    data.mkdir()
    scan = data / "scan_00000.rscan"
    scan.write_bytes(content)
    rc = main(["extract", "--scan", str(scan), "--out", str(tmp_path / "kp.csv")])
    assert rc == 3
    assert str(scan) in capsys.readouterr().err
    rc = main(["odometry", "--dataset", str(data), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_simulate_writes_dataset(tmp_path):
    _, out = simulate(tmp_path)
    scans = sorted(out.glob("scan_*.rscan"))
    assert len(scans) == 4
    assert (out / "truth.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 0
    assert manifest["config"]["steps"] == 4
    stamps, poses = read_pose_csv(out / "truth.csv")
    assert len(poses) == 4
    assert poses[-1].x == pytest.approx(3 * 3.0 * 0.25)


def test_extract_writes_keypoints_csv(tmp_path):
    cfg, out = simulate(tmp_path)
    kp_csv = tmp_path / "kp.csv"
    rc = main(
        ["extract", "--config", str(cfg), "--scan", str(out / "scan_00000.rscan"), "--out", str(kp_csv)]
    )
    assert rc == 0
    lines = kp_csv.read_text().splitlines()
    assert lines[0] == "azimuth_index,range_bin,x,y,strength"
    assert len(lines) > 10


def test_odometry_then_eval_round_trip(tmp_path):
    cfg, data = simulate(tmp_path)
    odo = tmp_path / "odo"
    rc = main(["odometry", "--config", str(cfg), "--dataset", str(data), "--out", str(odo)])
    assert rc == 0
    traj_csv = odo / "trajectory.csv"
    metrics_path = odo / "metrics.txt"
    assert traj_csv.exists() and metrics_path.exists()

    metrics = read_metrics(metrics_path)
    assert int(metrics["n_pairs"]) == 3
    assert int(metrics["failures"]) == 0
    assert float(metrics["translation_median_m"]) < 0.25

    stamps, poses = read_pose_csv(traj_csv)
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
    cfg, data = simulate(tmp_path)
    out = tmp_path / "icp"
    rc = main(
        ["odometry", "--config", str(cfg), "--dataset", str(data), "--out", str(out), "--method", "icp"]
    )
    assert rc == 0
    stamps, poses = read_pose_csv(out / "trajectory.csv")
    assert len(poses) == 4
    # 0.75 m steps sit within the 2 m pairing radius, so ICP should track
    assert math.hypot(poses[-1].x - 2.25, poses[-1].y) < 0.4


def test_odometry_plot_writes_svg(tmp_path):
    cfg, data = simulate(tmp_path)
    out = tmp_path / "odo"
    rc = main(
        ["odometry", "--config", str(cfg), "--dataset", str(data), "--out", str(out), "--plot"]
    )
    assert rc == 0
    svg = (out / "trajectory.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg
    assert "polyline" in svg


@pytest.mark.parametrize("method", ["ro", "icp"])
def test_eval_agrees_with_odometry_metrics(tmp_path, method):
    cfg, data = simulate(tmp_path, seed=3)
    out = tmp_path / method
    rc = main(["odometry", "--config", str(cfg), "--dataset", str(data), "--out", str(out),
               "--method", method])
    assert rc == 0
    rc = main(["eval", "--trajectory", str(out / "trajectory.csv"),
               "--truth", str(data / "truth.csv"), "--out", str(tmp_path / "eval.txt")])
    assert rc == 0
    own = read_metrics(out / "metrics.txt")
    ev = read_metrics(tmp_path / "eval.txt")
    assert ev["n_pairs"] == own["n_pairs"] == "3"
    for key in ("translation_median_m", "translation_std_m", "rotation_median_deg", "rotation_std_deg"):
        assert abs(float(ev[key]) - float(own[key])) <= 1e-9


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
    stamps, poses = read_pose_csv(out / "trajectory.csv")
    assert len(poses) == 4 and all(p.x == p.y == p.theta == 0.0 for p in poses)
    assert json.loads((out / "manifest.json").read_text())["command"] == "odometry"
    # no pair succeeded, so there is no confidence to average
    assert "mean_mutual_compatibility" not in metrics and "mean_eigengap" not in metrics


def test_confidences_average_over_matched_pairs_only(tmp_path):
    cfg, data = simulate(tmp_path)
    blank = load_scan(data / "scan_00002.rscan")
    save_scan(data / "scan_00002.rscan",
              PolarScan(blank.meta, np.zeros_like(blank.power), blank.timestamp))
    out = tmp_path / "ro"
    rc = main(["odometry", "--config", str(cfg), "--dataset", str(data), "--out", str(out)])
    assert rc == 0
    metrics = read_metrics(out / "metrics.txt")
    assert metrics["failures"] == "2"

    scans = [load_scan(p) for p in sorted(data.glob("scan_*.rscan"))]
    result = run_odometry(scans, PipelineConfig(l_max=200, alpha=64, rho=64))
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


def test_odometry_on_empty_dataset_is_io_error(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    rc = main(["odometry", "--dataset", str(empty), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_bench_requires_three_sweep_points(tmp_path):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--sweep", "50,100"])
    assert rc == 2


@pytest.mark.parametrize("sweep", ["10,12,14", "5,10,15"])
def test_bench_with_an_unmatchable_budget_is_a_usage_error(tmp_path, sweep, capsys):
    rc = main(["bench", "--out", str(tmp_path / "b"), "--sweep", sweep,
               "--grid-sweep", "32x64,48x96,64x128", "--repeats", "1"])
    assert rc == 2
    assert f"region budget {sweep.split(',')[0]} " in capsys.readouterr().err


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
