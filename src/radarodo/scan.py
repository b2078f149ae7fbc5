"""Polar scan container, bin geometry, and the on-disk scan format.

A scan is an (azimuths x range bins) grid of non-negative linear power.
Azimuth index a points along angle 2*pi*a/m (counter-clockwise from +x),
range bin r covers [r, r+1) * resolution and is located at its center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScanFormatError

_SCAN_MAGIC = b"#polarscan1\n"


def _is_count(n, least=1) -> bool:
    """Whether ``n`` is an int (numpy's included, a bool not) of at least ``least``."""
    return not isinstance(n, bool) and isinstance(n, (int, np.integer)) and n >= least


@dataclass(frozen=True)
class SensorMeta:
    """Geometry of one full rotation: bin counts (ints >= 2), range scale, rotation time."""

    num_azimuths: int
    num_range_bins: int
    range_resolution: float
    scan_period: float

    def __post_init__(self):
        if not all(_is_count(n, 2) for n in (self.num_azimuths, self.num_range_bins)):
            raise ValueError("need at least 2 azimuths and 2 range bins")
        # stored as floats (an int or an np.float32 too), so save_scan can
        # write them in hex; an int too large for a float is not finite
        try:
            valid = 0.0 < self.range_resolution < math.inf and 0.0 < self.scan_period < math.inf
            res, period = float(self.range_resolution), float(self.scan_period)
        except OverflowError:
            valid = False
        if not valid:
            raise ValueError("range_resolution and scan_period must be positive and finite")
        object.__setattr__(self, "range_resolution", res)
        object.__setattr__(self, "scan_period", period)
        # a bin count too large for a float overflows the product too
        try:
            finite = math.isfinite(self.max_range)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("the max range num_range_bins * range_resolution must be finite")

    @property
    def max_range(self) -> float:
        return self.num_range_bins * self.range_resolution


@dataclass(frozen=True, eq=False)
class PolarScan:
    """One radar rotation. ``power`` has shape (num_azimuths, num_range_bins)."""

    meta: SensorMeta
    power: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self):
        power = np.asarray(self.power, dtype=float)
        if power.shape != (self.meta.num_azimuths, self.meta.num_range_bins):
            raise ValueError(
                f"power shape {power.shape} does not match meta "
                f"({self.meta.num_azimuths}, {self.meta.num_range_bins})"
            )
        # two reductions, no full-grid temporaries; written so that NaN fails too
        if not (power.min() >= 0.0 and power.max() < math.inf):
            raise ValueError("power must be finite and non-negative")
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        power = power.copy()
        power.setflags(write=False)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "timestamp", float(self.timestamp))


def bins_to_points(a, r, meta: SensorMeta) -> np.ndarray:
    """Cartesian (x, y) of the centers of cells (a, r), sensor at the origin,
    without index validation: azimuth a at angle 2*pi*a/m, range bin r at
    (r + 0.5) * resolution. Returns (N, 2)."""
    ang = 2.0 * math.pi * np.asarray(a) / meta.num_azimuths
    rng = (np.asarray(r) + 0.5) * meta.range_resolution
    return np.stack([rng * np.cos(ang), rng * np.sin(ang)], axis=-1)


def save_scan(path, scan: PolarScan) -> None:
    """Write a scan to ``path``.

    Format: a magic line, one text header line (bin counts as integers,
    floats as C99 hex so the round trip is bit exact), then the power grid
    as raw little-endian float64 in azimuth-major order.
    """
    meta = scan.meta
    header = "{} {} {} {} {}\n".format(
        meta.num_azimuths,
        meta.num_range_bins,
        meta.range_resolution.hex(),
        meta.scan_period.hex(),
        scan.timestamp.hex(),
    )
    with open(path, "wb") as f:
        f.write(_SCAN_MAGIC)
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(scan.power, dtype="<f8").tobytes())


def load_scan(path) -> PolarScan:
    """Read a scan written by :func:`save_scan`.

    Raises :class:`ScanFormatError`, naming ``path``, when the file is not a
    well-formed scan.
    """
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != _SCAN_MAGIC:
            raise ScanFormatError(f"{path}: not a polar scan file")
        header = f.readline()
        raw = f.read()
    try:
        fields = header.decode("ascii").split()
        if len(fields) != 5:
            raise ValueError("malformed scan header")
        m, n = int(fields[0]), int(fields[1])
        meta = SensorMeta(
            num_azimuths=m,
            num_range_bins=n,
            range_resolution=float.fromhex(fields[2]),
            scan_period=float.fromhex(fields[3]),
        )
        timestamp = float.fromhex(fields[4])
        expected = m * n * 8
        if len(raw) != expected:
            raise ValueError(f"expected {expected} payload bytes, got {len(raw)}")
        power = np.frombuffer(raw, dtype="<f8").reshape(m, n)
        return PolarScan(meta=meta, power=power, timestamp=timestamp)
    except (ValueError, OverflowError) as err:  # UnicodeDecodeError is a ValueError
        raise ScanFormatError(f"{path}: {err}") from err
