"""Exception types shared across the pipeline, and the stage clock that
hands a failing stage's statistics to its error."""

import time
from contextlib import contextmanager


class ScanFormatError(ValueError):
    """A scan file that cannot be parsed. Not a :class:`RadarOdoError`: it
    is bad input, not a pipeline failure."""


class RadarOdoError(Exception):
    """Base class for pipeline failures a caller may want to recover from;
    ``diagnostics`` holds the partial stats of the :func:`stage` it left."""

    diagnostics = None


@contextmanager
def stage(name, stats):
    """Add the block's wall time to ``stats["timings"][name]``. A
    :class:`RadarOdoError` leaving it without diagnostics gets ``stats``, so
    the innermost stage's stats win; other exceptions pass untouched."""
    t0 = time.perf_counter()
    try:
        yield
    except RadarOdoError as err:
        if err.diagnostics is None:
            err.diagnostics = stats
        raise
    finally:
        timings = stats.setdefault("timings", {})
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0)


class NoCandidatesError(RadarOdoError):
    """Unary proposal produced no candidate pairs (an empty keypoint set)."""


class DegenerateProblemError(RadarOdoError):
    """Too few candidate pairs for pairwise consistency scoring (u < 2)."""


class NoCompatibilityError(RadarOdoError):
    """Compatibility matrix is identically zero; no structure to exploit."""


class UnderdeterminedError(RadarOdoError):
    """Not enough point pairs to estimate a rigid motion."""


class DegenerateGeometryError(RadarOdoError):
    """Source points are all coincident; rotation is unobservable."""


class MatchFailureError(RadarOdoError):
    """Scan pair produced fewer than two selected matches."""


class IcpDivergedError(RadarOdoError):
    """ICP found no neighbor pairings within the search radius."""
