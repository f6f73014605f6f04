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

from .errors import InputError, ResonantBondError, SingularWavenumberError
from .scattering import CavityAmplitudes, VertexSMatrix

#: |sin kL| below this counts as a resonant bond (k on the bond's own spectrum).
RESONANCE_TOLERANCE = 1e-12


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
    return GreenDecomposition(total, free_part, total - free_part, complex(k), float(x_i), float(x_f))


def free_green(k: complex, x_i: float, x_f: float) -> complex:
    """Free-line kernel exp(ik |x_f - x_i|) / (2ik)."""
    if k == 0:
        raise SingularWavenumberError("free Green function is singular at k = 0")
    k = complex(k)
    return cmath.exp(1j * k * abs(x_f - x_i)) / (2j * k)


def star_green(n: int, l: int, x_i: float, x_f: float, s: VertexSMatrix) -> GreenDecomposition:
    """Green function at k = ``s.k`` of a star of semi-infinite leads joined at one vertex.

    Coordinates are measured outward from the vertex on leads ``n`` (source)
    and ``l`` (observation):

        G_nl = (1/2ik) { delta_nl exp(ik|x_f - x_i|) + S_nl exp(ik(x_f + x_i)) }
    """
    leads = len(s.entries)
    if not (0 <= n < leads and 0 <= l < leads):
        raise InputError(f"lead indices ({n}, {l}) out of range for a {leads}-lead star")
    if x_i < 0 or x_f < 0:
        raise InputError("lead coordinates are measured outward from the vertex and must be >= 0")
    k = s.k
    if k == 0:
        raise SingularWavenumberError("star Green function is singular at k = 0")
    free = free_green(k, x_i, x_f) if n == l else 0.0 + 0.0j
    scattered = s.entries[l, n] * cmath.exp(1j * k * (x_f + x_i)) / (2j * k)
    return _decompose(free + scattered, free, k, x_i, x_f)


def two_vertex_green(x_i: float, x_f: float, ca: CavityAmplitudes) -> GreenDecomposition:
    """Green function of the two-vertex cavity on 0 <= x <= ell at k = ``ca.k``.

    With d = |x_f - x_i| and g = 1 - r^2 exp(2ik ell),

        G = [e^{ikd} + r e^{ik(x_f + x_i)} + r e^{ik(2 ell - x_f - x_i)}
             + r^2 e^{ik(2 ell - d)}] / (2ikg):

    the direct path, one bounce off either end, and one off each end, with
    every further round trip summed into g.  G is symmetric in x_i and x_f.
    """
    ell = ca.ell
    if not (0 <= x_i <= ell and 0 <= x_f <= ell):
        raise InputError(f"coordinates must lie in [0, {ell}]")
    k, r, d = ca.k, ca.r, abs(x_f - x_i)

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
    if not 0 <= x <= length:
        raise InputError(f"x must lie in [0, {length}]")
    k = complex(k)
    denom = cmath.sin(k * length)
    if abs(denom) < RESONANCE_TOLERANCE:
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
