"""Exception hierarchy shared across the package.

Two broad families matter to callers: input errors (bad documents, bad
flags, unsupported topologies) and numerical errors (singular evaluation
points, failed extrapolations).  The CLI maps them to exit codes 1 and 2
respectively.
"""

from __future__ import annotations


class QGraphError(Exception):
    """Base class for all package errors."""


class InputError(QGraphError):
    """User-supplied input is invalid (documents, flags, coordinates)."""


class GraphFormatError(InputError):
    """A graph description document failed to parse or validate."""


class UnsupportedTopologyError(InputError):
    """The graph cannot be handled by the requested computation."""


class NumericalError(QGraphError):
    """A computation failed for numerical reasons."""


class SingularWavenumberError(NumericalError):
    """Evaluation at k = 0, where the scattering formulas degenerate."""


class PoleProximityError(NumericalError):
    """Evaluation point is too close to a spectral pole (|g| below tolerance)."""


class ResonantBondError(NumericalError):
    """k is a Dirichlet eigenvalue of the bond (sin kL vanishes)."""


class InsufficientSpectrumError(NumericalError):
    """The eigenvalue list is too short for the requested regulator window."""


class ExtrapolationError(NumericalError):
    """The regulator extrapolation failed; carries the per-tau samples."""

    def __init__(self, message: str, samples: list[tuple[float, float]] | None = None):
        super().__init__(message)
        self.samples = list(samples) if samples is not None else []
