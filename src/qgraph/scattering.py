"""Vertex scattering amplitudes and the cavity amplitudes of a bond.

At a vertex of valency N with delta coupling gamma the reflection and
transmission amplitudes are

    R = (gamma - (N - 2) i k) / (N i k - gamma),    T = 2 i k / (N i k - gamma),

which satisfy |R|^2 + (N - 1)|T|^2 = 1 on real k.  The dirichlet case is the
gamma -> infinity limit, applied analytically: R = -1, T = 0.  The vertex
scattering matrix has R on the diagonal and T elsewhere; it is unitary on the
real axis and satisfies S(-k) = S(k)^dagger.

A bond of length ell whose two ends carry the same single-edge reflection r
is a cavity: its multiple reflections sum to the denominator
g = 1 - r^2 exp(2ik ell) of the two-vertex Green function.  Zeros of g are
spectral points, so evaluation close to one raises a pole-proximity error.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximityError, SingularWavenumberError
from .graph import VertexCoupling

#: |g| below this (relative to the size of its two terms) counts as a pole.
POLE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RTPair:
    """Reflection/transmission amplitudes of a single vertex."""

    r: complex
    t: complex


@dataclass(frozen=True)
class VertexSMatrix:
    entries: np.ndarray
    k: complex


@dataclass(frozen=True)
class CavityAmplitudes:
    """End reflection r and denominator g = 1 - r^2 exp(2ik ell) of a bond
    terminated by two identical vertices, at wavenumber k.  k = 0 raises
    :class:`SingularWavenumberError`; |g| below :data:`POLE_TOLERANCE` times
    1 + |r^2 exp(2ik ell)|, a test free of the length scale, raises
    :class:`PoleProximityError`.
    """

    r: complex
    g: complex
    ell: float
    k: complex

    def __post_init__(self):
        if self.k == 0:
            raise SingularWavenumberError("two-vertex Green function is singular at k = 0")
        bounce = self.r * self.r * cmath.exp(2j * self.k * self.ell)
        if abs(self.g) < POLE_TOLERANCE * (1.0 + abs(bounce)):
            raise PoleProximityError(
                f"|g| = {abs(self.g):.3e} at k = {self.k}: evaluation point is a spectral pole"
            )


def vertex_amplitudes(valency, gamma, k, dirichlet):
    """R and T of the module docstring, elementwise over broadcast inputs.

    Where ``dirichlet`` is true the analytic limit R = -1, T = 0 replaces the
    formula (``gamma`` is then ignored).  Scalar inputs give 0-d arrays whose
    values are the plain Python complex arithmetic of the formula.
    """
    den = valency * 1j * k - gamma
    r = (gamma - (valency - 2) * 1j * k) / den
    t = 2j * k / den
    return np.where(dirichlet, -1.0 + 0.0j, r), np.where(dirichlet, 0.0 + 0.0j, t)


def vertex_reflection_transmission(
    valency: int, coupling: VertexCoupling, k: complex
) -> RTPair:
    """Reflection/transmission amplitudes at one vertex.

    Parameters
    ----------
    valency : int
        Number of edges meeting the vertex, N >= 1.
    coupling : VertexCoupling
        Vertex condition; kirchhoff means gamma = 0, dirichlet gives the
        analytic limit R = -1, T = 0.
    k : complex
        Wavenumber, nonzero.  Unitarity statements hold on the real axis;
        the rational formulas extend to complex k as-is.
    """
    if valency < 1:
        raise ValueError(f"valency must be >= 1, got {valency}")
    if k == 0:
        raise SingularWavenumberError(
            "R/T formulas degenerate at k = 0 (the limit depends on the coupling)"
        )
    dirichlet = coupling.is_dirichlet
    gamma = 0.0 if dirichlet else coupling.effective_gamma()
    r, t = vertex_amplitudes(valency, gamma, complex(k), dirichlet)
    return RTPair(complex(r), complex(t))


def build_vertex_smatrix(valency: int, coupling: VertexCoupling, k: complex) -> VertexSMatrix:
    """N x N vertex scattering matrix: R on the diagonal, T off-diagonal."""
    rt = vertex_reflection_transmission(valency, coupling, k)
    entries = np.full((valency, valency), rt.t, dtype=complex)
    np.fill_diagonal(entries, rt.r)
    entries.setflags(write=False)
    return VertexSMatrix(entries, complex(k))


def cavity_amplitudes(coupling: VertexCoupling, ell: float, k: complex) -> CavityAmplitudes:
    """Cavity amplitudes of a bond whose two ends carry ``coupling``.

    r is the single-edge vertex reflection, so the two-vertex formulas give
    the resolvent of the finite bond exactly and the zeros of g are its
    spectrum.
    """
    r = vertex_reflection_transmission(1, coupling, k).r
    k = complex(k)
    g = 1.0 - r * r * cmath.exp(2j * k * ell)
    return CavityAmplitudes(r, g, float(ell), k)
