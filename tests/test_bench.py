import pytest

from radarodo.bench import BenchPoint, slope_of, sweep_association, sweep_extraction


@pytest.mark.parametrize(
    "sweep, points, repeats, message",
    [
        (sweep_extraction, [(48, 96), (32, 0), (64, 128)], 1, "grid shape 32x0 "),
        (sweep_extraction, [(48, 96), (1, 64), (64, 128)], 1, "grid shape 1x64 "),
        (sweep_extraction, [(48, 96), (2.5, 64), (64, 128)], 1, "grid shape 2.5x64 "),
        (sweep_extraction, [(48, 96), (True, 64), (64, 128)], 1, "grid shape Truex64 "),
        (sweep_extraction, [(32, 64), (64, 32), (32, 64)], 1, "distinct cell counts"),
        (sweep_association, [20, 2.5, 80], 1, "region budget 2.5 "),
        (sweep_association, [20, 0, 80], 1, "region budget 0 "),
        (sweep_association, [20, True, 80], 1, "region budget True "),
        (sweep_association, [40, 40, 40], 1, "distinct region budgets"),
        (sweep_association, [20, 40, 80], 0, "repeats must be at least 1"),
        (sweep_extraction, [(32, 64), (48, 96), (64, 128)], 0, "repeats must be at least 1"),
    ],
    ids=["zero-side", "one-azimuth", "float-side", "bool-side", "equal-cell-counts",
         "float-budget", "zero-budget", "bool-budget", "equal-budgets",
         "association-repeats-0", "extraction-repeats-0"],
)
def test_sweep_rejects_a_bad_point_before_rendering(sweep, points, repeats, message, monkeypatch):
    def unrendered(*args, **kwargs):
        raise AssertionError("a scan was rendered before the sweep was checked")

    monkeypatch.setattr("radarodo.bench.render_scan", unrendered)
    with pytest.raises(ValueError, match=message):
        sweep(points, repeats=repeats)


def test_slope_needs_two_distinct_parameters():
    points = [BenchPoint(40.0, 1.0, {}), BenchPoint(40.0, 2.0, {}), BenchPoint(40.0, 3.0, {})]
    with pytest.raises(ValueError, match="distinct"):
        slope_of(points)
    assert slope_of([BenchPoint(10.0, 1.0, {}), BenchPoint(100.0, 10.0, {})]) == pytest.approx(1.0)
