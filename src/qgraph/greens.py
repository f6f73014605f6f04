"""Exact Green functions: free line, open star, and the two-vertex cavity.

All Green functions solve G'' + k^2 G = delta(x - x') on their domain with a
unit derivative jump across the source; the free-line kernel is

    G0(x, x') = exp(ik |x - x'|) / (2ik).

The two-vertex graph is a bond with the same vertex at both ends, a cavity.

Every result is returned as a :class:`GreenDecomposition` splitting the total
into the free part G0 and the inhomogeneous remainder.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ResonantBondError, SingularWavenumberError
from .graph import VertexCoupling, _argument, _integer
from .scattering import _MAX_VALENCY, CavityAmplitudes, VertexSMatrix, vertex_reflection_transmission

#: |sin kL| below this counts as a resonant bond (k on the bond's own spectrum).
_RESONANCE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GreenDecomposition:
    """Green-function value split as total = free_part + gamma_part."""

    total: complex
    free_part: complex
    gamma_part: complex
    k: complex
    x_initial: float
    x_final: float


def _decompose(total: complex, free_part: complex, k, x_i, x_f) -> GreenDecomposition:
    # gamma_part is defined by subtraction, so the decomposition is exact.
    return GreenDecomposition(total, free_part, total - free_part, complex(k), x_i, x_f)


def free_green(k: complex, x_i: float, x_f: float) -> complex:
    """Free-line kernel exp(ik |x_f - x_i|) / (2ik)."""
    k, x_i, x_f = _argument(k, "k", real=False), _argument(x_i, "x_i"), _argument(x_f, "x_f")
    if k == 0:
        raise SingularWavenumberError("free Green function is singular at k = 0")
    return cmath.exp(1j * k * abs(x_f - x_i)) / (2j * k)


def star_green(n: int, l: int, x_i: float, x_f: float, s: VertexSMatrix) -> GreenDecomposition:
    """Green function at k = ``s.k`` of a star of semi-infinite leads joined at one vertex.

    Coordinates are measured outward from the vertex on leads ``n`` (source)
    and ``l`` (observation):

        G_nl = (1/2ik) { delta_nl exp(ik|x_f - x_i|) + S_nl exp(ik(x_f + x_i)) }
    """
    return _star_green(n, l, x_i, x_f, s.k, len(s.entries), lambda n, l: s.entries[l, n])


def _lead_star_green(n: int, l: int, x_i: float, x_f: float, valency: int, coupling: VertexCoupling,
                     k: complex) -> GreenDecomposition:
    """``star_green`` of ``valency`` leads at a vertex with ``coupling``, from
    its R and T alone, with no N x N matrix; the same refusals and bits."""
    rt = vertex_reflection_transmission(_integer(valency, "valency", 1, _MAX_VALENCY), coupling, k)
    # S_nl as the matrix would hold it, so that the arithmetic is numpy's
    r, t = np.complex128(rt.r), np.complex128(rt.t)
    return _star_green(n, l, x_i, x_f, k, valency, lambda n, l: r if n == l else t)


def _star_green(n, l, x_i, x_f, k, valency, entry) -> GreenDecomposition:
    """``star_green`` at k on ``valency`` leads, S_nl = ``entry(n, l)``."""
    n, l = _integer(n, "n", 0, valency - 1), _integer(l, "l", 0, valency - 1)
    x_i, x_f = _argument(x_i, "x_i", 0.0), _argument(x_f, "x_f", 0.0)
    if k == 0:
        raise SingularWavenumberError("star Green function is singular at k = 0")
    free = free_green(k, x_i, x_f) if n == l else 0.0 + 0.0j
    scattered = entry(n, l) * cmath.exp(1j * k * (x_f + x_i)) / (2j * k)
    return _decompose(free + scattered, free, k, x_i, x_f)


def two_vertex_green(x_i: float, x_f: float, ca: CavityAmplitudes) -> GreenDecomposition:
    """Green function of the two-vertex cavity on 0 <= x <= ell at k = ``ca.k``.

    With d = |x_f - x_i| and g = 1 - r^2 exp(2ik ell),

        G = [e^{ikd} + r e^{ik(x_f + x_i)} + r e^{ik(2 ell - x_f - x_i)}
             + r^2 e^{ik(2 ell - d)}] / (2ikg):

    the direct path, one bounce off either end, and one off each end, with
    every further round trip summed into g.  G is symmetric in x_i and x_f.
    """
    x_i, x_f = _argument(x_i, "x_i", 0.0, ca.ell), _argument(x_f, "x_f", 0.0, ca.ell)
    k, r, d, ell = ca.k, ca.r, abs(x_f - x_i), ca.ell

    total = (
        cmath.exp(1j * k * d)
        + r * cmath.exp(1j * k * (x_f + x_i))
        + r * cmath.exp(1j * k * (2 * ell - x_f - x_i))
        + r * r * cmath.exp(1j * k * (2 * ell - d))
    ) / (2j * k * ca.g)
    return _decompose(total, free_green(k, x_i, x_f), k, x_i, x_f)


def bond_wavefunction(phi_i: complex, phi_j: complex, k: float, length: float, x: float) -> complex:
    """Wavefunction on a bond from its two vertex values (zero potential):

        psi(x) = [phi_i sin(k (L - x)) + phi_j sin(k x)] / sin(k L),

    which interpolates phi_i at x = 0 and phi_j at x = L.
    """
    phi_i, phi_j, k = (_argument(v, name, real=False) for v, name in ((phi_i, "phi_i"), (phi_j, "phi_j"), (k, "k")))
    length = _argument(length, "length", positive=True)
    x = _argument(x, "x", 0.0, length)
    denom = cmath.sin(k * length)
    if abs(denom) < _RESONANCE_TOLERANCE:
        raise ResonantBondError(f"sin(kL) = {denom}: k is an eigenvalue of the bond")
    return (phi_i * cmath.sin(k * (length - x)) + phi_j * cmath.sin(k * x)) / denom


def trace_gamma(ca: CavityAmplitudes) -> complex:
    """Closed-form diagonal integral of the two-vertex Green function.

    Equals the quadrature of ``two_vertex_green(x, x, ca).total`` over
    x in [0, ell], at k = ``ca.k``:

        -[(1 + r^2 e^{2ik ell}) ik ell + (e^{2ik ell} - 1) r] / (2 k^2 g)

    The free-line contribution ell/(2ik) is still included; the vacuum-energy
    integrand subtracts it.
    """
    k, r, ell = ca.k, ca.r, ca.ell
    e2 = cmath.exp(2j * k * ell)
    return -((1.0 + r * r * e2) * 1j * k * ell + (e2 - 1.0) * r) / (2 * k * k * ca.g)
