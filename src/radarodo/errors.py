"""Exception types shared across the pipeline."""


class ScanFormatError(ValueError):
    """A scan file that cannot be parsed. Not a :class:`RadarOdoError`: it
    is bad input, not a pipeline failure."""


class RadarOdoError(Exception):
    """Base class for pipeline failures a caller may want to recover from."""


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

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class IcpDivergedError(RadarOdoError):
    """ICP found no neighbor pairings within the search radius."""
