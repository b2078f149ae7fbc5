import pytest

from radarodo.bench import BenchPoint, slope_of


def test_slope_needs_two_distinct_parameters():
    points = [BenchPoint(40.0, 1.0, {}), BenchPoint(40.0, 2.0, {}), BenchPoint(40.0, 3.0, {})]
    with pytest.raises(ValueError, match="distinct"):
        slope_of(points)
    assert slope_of([BenchPoint(10.0, 1.0, {}), BenchPoint(100.0, 10.0, {})]) == pytest.approx(1.0)
