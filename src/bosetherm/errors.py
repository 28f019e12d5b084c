"""Exception types shared across the package.

ConfigError marks bad user input (CLI exit code 2); NumericsError and its
subclasses mark failures of the computation itself (exit code 3).
"""

from __future__ import annotations


class BosethermError(Exception):
    """Base class for package errors."""


class ConfigError(BosethermError):
    """Invalid run configuration or CLI arguments."""


class NumericsError(BosethermError):
    """A numerical procedure failed or would produce garbage."""


class CapacityError(NumericsError):
    """A dimension or memory cap would be exceeded."""


class SectorMismatchError(NumericsError):
    """Operands live in incompatible particle-number sectors."""


class StepTooLargeError(NumericsError):
    """Requested base step violates the step-size bound."""


class UnreachableTimeError(NumericsError):
    """A step count lies beyond the propagator's span."""


class GridMismatchError(NumericsError):
    """Two series or spectra do not share the same grid."""


class AliasingError(NumericsError):
    """Energy grid exceeds the Nyquist limit of the time grid."""


class EmptyWindowError(NumericsError):
    """An energy window selects no levels."""


class ShortSeriesError(NumericsError):
    """Too few samples for the requested statistic or fit."""


class FitConvergenceError(NumericsError):
    """Nonlinear least squares failed to converge from every start."""


class IntegrityError(NumericsError):
    """An internal consistency check failed (non-Hermiticity, negative weight)."""
