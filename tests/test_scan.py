import math

import numpy as np
import pytest

from radarodo import PolarScan, ScanFormatError, SensorMeta, load_scan, save_scan
from radarodo.scan import bins_to_points


def test_sensor_meta_validation():
    with pytest.raises(ValueError):
        SensorMeta(0, 10, 0.5, 0.25)
    with pytest.raises(ValueError):
        SensorMeta(10, 0, 0.5, 0.25)
    # bin counts are ints: a float count would render, save and load wrongly
    for bad in (8.0, np.float64(8), True):
        with pytest.raises(ValueError, match="need at least 2 azimuths and 2 range bins"):
            SensorMeta(bad, 10, 0.5, 0.25)
        with pytest.raises(ValueError, match="need at least 2 azimuths and 2 range bins"):
            SensorMeta(10, bad, 0.5, 0.25)
    assert SensorMeta(np.int64(8), np.int32(10), 0.5, 0.25).max_range == 5.0
    with pytest.raises(ValueError):
        SensorMeta(10, 10, -1.0, 0.25)
    with pytest.raises(ValueError):
        SensorMeta(10, 10, 0.5, 0.0)
    with pytest.raises(ValueError):
        SensorMeta(10, 10, math.inf, 0.25)
    # a lattice whose max range overflows is not a sensor
    with pytest.raises(ValueError, match="max range"):
        SensorMeta(8, 10, 1e308, 0.25)
    with pytest.raises(ValueError, match="max range"):
        SensorMeta(8, 10**400, 0.5, 0.25)


def test_max_range():
    meta = SensorMeta(4, 100, 0.5, 0.25)
    assert meta.max_range == 50.0


def test_azimuth_angle_exact_fractions():
    # azimuth a of 8 points along 2*pi*a/8, read back from the point
    meta = SensorMeta(8, 4, 1.0, 0.25)
    xy = bins_to_points(np.array([0, 2, 4, 6]), np.full(4, 1), meta)
    angle = np.arctan2(xy[:, 1], xy[:, 0]) % (2 * math.pi)
    assert angle[0] == 0.0
    assert angle[1:] == pytest.approx([math.pi / 2, math.pi, 3 * math.pi / 2], abs=1e-15)


def test_bin_center_range_is_half_offset():
    # along azimuth 0 the point is (range, 0) exactly
    meta = SensorMeta(4, 10, 0.5, 0.25)
    assert bins_to_points(np.array([0, 0]), np.array([0, 9]), meta).tolist() == [
        [0.25, 0.0],
        [4.75, 0.0],
    ]


def test_bin_to_point_cardinal_directions():
    meta = SensorMeta(4, 10, 1.0, 0.25)
    east, north, west, south = bins_to_points(np.arange(4), np.full(4, 3), meta)
    assert np.allclose(east, [3.5, 0.0], atol=1e-12)
    assert np.allclose(north, [0.0, 3.5], atol=1e-12)
    assert np.allclose(west, [-3.5, 0.0], atol=1e-12)
    assert np.allclose(south, [0.0, -3.5], atol=1e-12)


def test_polar_scan_validation():
    meta = SensorMeta(4, 6, 0.5, 0.25)
    with pytest.raises(ValueError):
        PolarScan(meta, np.zeros((3, 6)))
    with pytest.raises(ValueError):
        PolarScan(meta, np.full((4, 6), -1.0))
    bad = np.zeros((4, 6))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        PolarScan(meta, bad)
    with pytest.raises(ValueError):
        PolarScan(meta, np.zeros((4, 6)), timestamp=math.nan)


def test_polar_scan_power_is_frozen_copy():
    meta = SensorMeta(4, 6, 0.5, 0.25)
    src = np.ones((4, 6))
    scan = PolarScan(meta, src)
    src[0, 0] = 99.0
    assert scan.power[0, 0] == 1.0
    with pytest.raises(ValueError):
        scan.power[0, 0] = 5.0


def test_save_load_round_trip_bit_exact(tmp_path):
    meta = SensorMeta(8, 16, 0.0437, 0.2501)
    rng = np.random.default_rng(11)
    power = rng.gamma(2.0, 1.0, size=(8, 16))
    scan = PolarScan(meta, power, timestamp=123.456789)
    path = tmp_path / "a.rscan"
    save_scan(path, scan)
    back = load_scan(path)
    assert back.meta == scan.meta
    assert back.timestamp == scan.timestamp
    assert np.array_equal(back.power, scan.power)


def test_save_twice_is_byte_identical(tmp_path):
    meta = SensorMeta(8, 16, 0.5, 0.25)
    rng = np.random.default_rng(7)
    scan = PolarScan(meta, rng.random((8, 16)), timestamp=1.5)
    p1 = tmp_path / "a.rscan"
    p2 = tmp_path / "b.rscan"
    save_scan(p1, scan)
    save_scan(p2, scan)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rscan"
    path.write_bytes(b"#notascan\n1 2 x y z\n")
    with pytest.raises(ValueError):
        load_scan(path)


def test_load_rejects_truncated_payload(tmp_path):
    meta = SensorMeta(8, 16, 0.5, 0.25)
    scan = PolarScan(meta, np.ones((8, 16)))
    path = tmp_path / "t.rscan"
    save_scan(path, scan)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_scan(path)


HEADER = "#polarscan1\n8 16 0x1.0p-1 0x1.0p-2 0x0.0p+0\n"
PAYLOAD = np.ones((8, 16)).astype("<f8").tobytes()


@pytest.mark.parametrize(
    "content",
    [
        b"#polarscan1\n\xff 16 0x1.0p-1 0x1.0p-2 0x0.0p+0\n" + PAYLOAD,
        b"#polarscan1\n8 16 0x1.0p-1\n" + PAYLOAD,
        HEADER.replace("8 16", "8 sixteen").encode() + PAYLOAD,
        HEADER.replace("0x1.0p-1", "half").encode() + PAYLOAD,
        HEADER.replace("0x1.0p-1", "0x1.0p+99999").encode() + PAYLOAD,
        HEADER.replace("8 16", "1 16").encode() + PAYLOAD[: 16 * 8],
        HEADER.replace("0x1.0p-1", "-0x1.0p-1").encode() + PAYLOAD,
        HEADER.replace("0x1.0p-1", "inf").encode() + PAYLOAD,
        HEADER.replace("0x0.0p+0", "nan").encode() + PAYLOAD,
        HEADER.encode() + np.full((8, 16), -1.0).astype("<f8").tobytes(),
        HEADER.encode() + np.full((8, 16), np.nan).astype("<f8").tobytes(),
    ],
    ids=["non_ascii", "short_header", "bad_int", "bad_hex", "hex_overflow", "one_azimuth",
         "negative_resolution", "infinite_resolution", "nan_timestamp", "negative_power",
         "nan_power"],
)
def test_load_raises_one_typed_error_naming_the_file(tmp_path, content):
    path = tmp_path / "bad.rscan"
    path.write_bytes(content)
    with pytest.raises(ScanFormatError, match="bad.rscan"):
        load_scan(path)
