from types import SimpleNamespace

import pytest

from radarodo import errors
from radarodo.errors import NoCandidatesError, RadarOdoError, stage


@pytest.fixture
def ticks(monkeypatch):
    """Make ``stage``'s clock read 0, 1, 2, ... seconds, one tick per call."""
    counter = iter(range(1000))
    monkeypatch.setattr(errors, "time", SimpleNamespace(perf_counter=lambda: float(next(counter))))


def test_stage_accumulates_times_under_one_name(ticks):
    stats = {}
    with stage("extract", stats):
        pass
    with stage("describe", stats):
        pass
    with stage("extract", stats):
        pass
    assert stats == {"timings": {"extract": 2.0, "describe": 1.0}}


def test_stage_hands_the_innermost_stats_to_a_pipeline_error(ticks):
    outer, inner = {}, {}
    with pytest.raises(NoCandidatesError) as exc:
        with stage("pair", outer):
            with stage("describe", inner):
                inner["u"] = 0
                raise NoCandidatesError("no candidates")
    assert exc.value.diagnostics is inner
    assert inner == {"u": 0, "timings": {"describe": 1.0}}
    # the outer stage still clocks its block, but leaves the error alone
    assert outer == {"timings": {"pair": 3.0}}


def test_stage_keeps_diagnostics_the_error_already_has():
    err = RadarOdoError("raised with its own diagnostics")
    err.diagnostics = {"u": 5}
    with pytest.raises(RadarOdoError) as exc:
        with stage("match", {}):
            raise err
    assert exc.value.diagnostics == {"u": 5}


def test_stage_lets_other_exceptions_pass_untouched(ticks):
    stats = {}
    err = ValueError("bad input")
    with pytest.raises(ValueError) as exc:
        with stage("extract", stats):
            raise err
    assert exc.value is err
    assert not hasattr(err, "diagnostics")
    assert stats == {"timings": {"extract": 1.0}}


def test_errors_carry_no_diagnostics_until_a_stage_gives_them():
    assert RadarOdoError.diagnostics is None
    assert errors.MatchFailureError("fewer than 2 matches").diagnostics is None
