"""Vertex scattering amplitudes and composite two-vertex amplitudes.

At a vertex of valency N with delta coupling gamma the reflection and
transmission amplitudes are

    R = (gamma - (N - 2) i k) / (N i k - gamma),    T = 2 i k / (N i k - gamma),

which satisfy |R|^2 + (N - 1)|T|^2 = 1 on real k.  The dirichlet case is the
gamma -> infinity limit, applied analytically: R = -1, T = 0.  The vertex
scattering matrix has R on the diagonal and T elsewhere; it is unitary on the
real axis and satisfies S(-k) = S(k)^dagger.

The composite amplitudes parameterize the closed-form Green function of a
bond of length ell terminated by two identical scatterers built from one
(R, T) family.  They come as a pair (s_big, r_big) over a common denominator
f, with g = f/(2ik) the bracketed factor of f.  Zeros of f are spectral
points, so evaluation close to one raises a pole-proximity error.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximityError, SingularWavenumberError
from .graph import VertexCoupling

#: |f| below this (relative to |2ik| times the bracket scale) counts as a pole.
POLE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RTPair:
    """Reflection/transmission amplitudes of a single vertex.

    ``gamma`` records the coupling strength; ``None`` marks the dirichlet
    limit.
    """

    r: complex
    t: complex
    valency: int
    gamma: float | None
    k: complex


@dataclass(frozen=True)
class VertexSMatrix:
    dim: int
    entries: np.ndarray
    k: complex


@dataclass(frozen=True)
class CompositeAmplitudes:
    """Amplitudes (s_big, r_big) and denominator f of the two-vertex Green
    function, with g = f / (2ik) by construction."""

    s_big: complex
    r_big: complex
    f: complex
    g: complex
    ell: float
    k: complex


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
    k = complex(k)
    dirichlet = coupling.is_dirichlet
    gamma = None if dirichlet else coupling.effective_gamma()
    r, t = vertex_amplitudes(valency, 0.0 if dirichlet else gamma, k, dirichlet)
    return RTPair(complex(r), complex(t), valency, gamma, k)


def build_vertex_smatrix(valency: int, coupling: VertexCoupling, k: complex) -> VertexSMatrix:
    """N x N vertex scattering matrix: R on the diagonal, T off-diagonal."""
    rt = vertex_reflection_transmission(valency, coupling, k)
    entries = np.full((valency, valency), rt.t, dtype=complex)
    np.fill_diagonal(entries, rt.r)
    entries.setflags(write=False)
    return VertexSMatrix(valency, entries, complex(k))


def composite_amplitudes(rt: RTPair, ell: float, k: complex) -> CompositeAmplitudes:
    """Composite amplitudes of the symmetric two-vertex graph.

    Both ends carry the same (R, T) family, so the two reflection-side and
    the two transmission-side amplitudes coincide and a single pair
    (s_big, r_big) is returned.  Raises :class:`PoleProximityError` when the
    denominator f is within :data:`POLE_TOLERANCE` of zero, i.e. at a
    spectral resonance of the composite graph.
    """
    if ell <= 0:
        raise ValueError("ell must be positive")
    if k == 0:
        raise SingularWavenumberError("composite amplitudes are singular at k = 0")
    k = complex(k)
    r, t = complex(rt.r), complex(rt.t)
    e = cmath.exp(1j * k * ell)
    e2, e3 = e * e, e * e * e

    bracket = (
        1.0
        - r * e
        - (r + t) ** 2 * e2
        - (2 * t**3 + r * t**2 - 2 * r**2 * t - r**3) * e3
    )
    f = 2j * k * bracket
    g = bracket

    scale = max(
        1.0,
        abs(r * e),
        abs((r + t) ** 2 * e2),
        abs((2 * t**3 + r * t**2 - 2 * r**2 * t - r**3) * e3),
    )
    if abs(f) < POLE_TOLERANCE * abs(2j * k) * scale:
        raise PoleProximityError(
            f"|f| = {abs(f):.3e} at k = {k}: evaluation point is a spectral resonance"
        )

    s_big = t**2 * cmath.exp(2j * k * ell) * ((r + t) * (1.0 - r * e) + 2 * t**2 * e) / f
    r_big = (
        -(
            r
            - r**2 * e
            + (t**3 - 2 * r**2 * t - r**3) * e2
            + (r**4 + 2 * r**3 * t - 2 * r**2 * t**2 - 3 * r * t**3 + 2 * t**4) * e3
        )
        / f
    )
    return CompositeAmplitudes(s_big, r_big, f, g, float(ell), k)
