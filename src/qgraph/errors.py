"""Exception hierarchy shared across the package.

Two broad families matter to callers: input errors (bad documents, bad
flags, out-of-range library arguments, unsupported topologies) and numerical
errors (singular evaluation points, failed extrapolations).  The CLI maps
them to exit codes 1 and 2 respectively.
"""

from __future__ import annotations


class QGraphError(Exception):
    """Base class for all package errors."""


class InputError(QGraphError, ValueError):
    """User-supplied input is invalid: documents, flags, coordinates, or an
    argument a library function refuses.  It is also a ``ValueError``."""


class GraphFormatError(InputError):
    """A graph description document failed to parse, or a :class:`Graph`
    was given an invalid structure; the message names every violation."""


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


class ExtrapolationError(NumericalError):
    """The regulator extrapolation failed; carries the per-tau samples."""

    def __init__(self, message: str, samples: tuple[tuple[float, float], ...]):
        super().__init__(message)
        self.samples = list(samples)
