"""Graph eigenvalues: analytic Dirichlet spectra, the bond-scattering secular
equation, root finding, and Weyl counting.

The secular function of a compact graph is det(I - S(k) D(k)) on the space of
directed bonds: D(k) = diag(e^{ik L_b}) propagates amplitudes along each
directed bond, and S(k) routes an amplitude arriving at a vertex into the
outgoing directed bonds through that vertex's reflection/transmission
amplitudes.  Its zeros on the positive real axis are the graph eigenvalues.

Root finding scans at step pi/(8 L_total) (eight samples per mean eigenvalue
spacing), brackets sign changes of a phase-stripped real form of the
determinant, refines them by bisection, and resolves non-sign-changing zeros
(degenerate eigenvalues) by minimizing the smallest singular value of
I - S D.  A Weyl-count audit detects missed roots and triggers a rescan at
half step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedTopologyError
from .graph import Graph, require_zero_potential, total_length, validate
from .scattering import vertex_amplitudes

#: Smallest-singular-value factor for multiplicity detection at a root.
DEGENERACY_FACTOR = 10.0


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted positive eigenvalues (repeated per multiplicity) with per-root
    secular residuals and the Weyl-count audit."""

    eigenvalues: tuple[float, ...]
    k_max: float
    residuals: tuple[float, ...]
    weyl_expected: float

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


def dirichlet_eigenvalues(length: float, n_max: int) -> list[float]:
    """Analytic spectrum of a single bond with Dirichlet ends: n pi / L."""
    if length <= 0:
        raise ValueError("length must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [n * math.pi / length for n in range(1, n_max + 1)]


def weyl_count(g: Graph, k: float) -> float:
    """Leading smooth eigenvalue count, total_length * k / pi."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return total_length(g) * k / math.pi


class _SecularMatrix:
    """Vectorized evaluator for M(k) = S(k) D(k) on the directed-bond space."""

    def __init__(self, g: Graph):
        diags = validate(g)
        if diags:
            raise UnsupportedTopologyError("invalid graph: " + "; ".join(diags))
        if not g.is_compact:
            raise UnsupportedTopologyError("spectrum requires compact graph (no leads)")
        if not g.bonds:
            raise UnsupportedTopologyError("graph has no bonds")
        require_zero_potential(g)

        directed = []
        for b in g.bonds:
            directed.append((b.from_vertex, b.to_vertex, b.length))
            directed.append((b.to_vertex, b.from_vertex, b.length))
        self.dim = len(directed)
        self.lengths = np.array([d[2] for d in directed])

        vertex_ids = g.vertex_ids()
        self._vertex_index = {vid: i for i, vid in enumerate(vertex_ids)}
        self._valency = np.array([g.valency(vid) for vid in vertex_ids])
        self._dirichlet = np.array([g.coupling(vid).is_dirichlet for vid in vertex_ids])
        self._gamma = np.array(
            [0.0 if g.coupling(vid).is_dirichlet else g.coupling(vid).effective_gamma()
             for vid in vertex_ids]
        )

        rows, cols, is_reflection, at_vertex = [], [], [], []
        for a, (i, j, _) in enumerate(directed):
            for b_idx, (p, q, _) in enumerate(directed):
                if p != j:
                    continue
                rows.append(b_idx)
                cols.append(a)
                is_reflection.append(q == i)
                at_vertex.append(self._vertex_index[j])
        self._rows = np.array(rows)
        self._cols = np.array(cols)
        self._is_reflection = np.array(is_reflection)
        self._at_vertex = np.array(at_vertex)

    def matrices(self, ks: np.ndarray) -> np.ndarray:
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        r, t = vertex_amplitudes(
            self._valency[None, :], self._gamma[None, :], ks[:, None], self._dirichlet[None, :]
        )
        amp = np.where(
            self._is_reflection[None, :],
            r[:, self._at_vertex],
            t[:, self._at_vertex],
        )
        phase = np.exp(1j * np.outer(ks, self.lengths))
        m = np.zeros((len(ks), self.dim, self.dim), dtype=complex)
        m[:, self._rows, self._cols] = amp * phase[:, self._cols]
        return m

    def dets(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """det(I - M(k)) and det(M(k)) for a batch of wavenumbers."""
        m = self.matrices(ks)
        eye = np.eye(self.dim)
        return np.linalg.det(eye[None, :, :] - m), np.linalg.det(m)

    def singular_values(self, k: float) -> np.ndarray:
        m = self.matrices(np.array([k]))[0]
        return np.linalg.svd(np.eye(self.dim) - m, compute_uv=False)


def secular_function(g: Graph, k: float) -> complex:
    """det(I - S(k) D(k)); zeros on the positive real axis are eigenvalues."""
    if k <= 0:
        raise ValueError("k must be positive")
    sm = _SecularMatrix(g)
    return complex(sm.dets(np.array([float(k)]))[0][0])


def find_eigenvalues(g: Graph, k_max: float, tol: float = 1e-10) -> SpectrumResult:
    """All secular zeros in (0, k_max], in increasing order with multiplicity.

    ``tol`` bounds the accepted secular residual |det(I - SD)| at each root;
    the refinement itself runs to near machine precision.  If the post-hoc
    Weyl audit finds the count off by more than V + B the scan is repeated at
    half step (up to three times) before giving up.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    sm = _SecularMatrix(g)
    ltot = total_length(g)
    audit_bound = len(g.vertices) + len(g.bonds)

    step = math.pi / (8.0 * ltot)
    for _ in range(4):
        eigenvalues, residuals = _scan_and_refine(sm, k_max, step, tol)
        weyl = weyl_count(g, k_max)
        if abs(len(eigenvalues) - weyl) <= audit_bound:
            return SpectrumResult(tuple(eigenvalues), float(k_max), tuple(residuals), weyl)
        step *= 0.5
    raise NumericalError(
        f"Weyl audit failed: found {len(eigenvalues)} eigenvalues vs expected "
        f"~{weyl:.1f} (bound {audit_bound}) even after rescans"
    )


def _scan_and_refine(
    sm: _SecularMatrix, k_max: float, step: float, tol: float
) -> tuple[list[float], list[float]]:
    # scan two steps past k_max so roots at or near the ceiling are still
    # bracketed (a grid point can land exactly on a zero)
    grid = np.arange(step, k_max + 2.5 * step, step)

    dets, det_m = sm.dets(grid)
    theta = np.unwrap(np.angle(det_m))
    xi = np.real(dets * np.exp(-0.5j * theta))

    sign = np.sign(xi)
    change = np.where(sign[:-1] * sign[1:] < 0)[0]

    roots: list[float] = []
    # simple roots: vectorized bisection on the locally phase-stripped form
    if len(change):
        lo, hi = grid[change].copy(), grid[change + 1].copy()
        theta_ref = theta[change]
        f_lo = _xi_batch(sm, lo, theta_ref)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            f_mid = _xi_batch(sm, mid, theta_ref)
            go_left = np.sign(f_lo) * np.sign(f_mid) <= 0
            hi = np.where(go_left, mid, hi)
            lo = np.where(go_left, lo, mid)
            f_lo = np.where(go_left, f_lo, f_mid)
            if np.max(hi - lo) < 1e-14 * max(1.0, k_max):
                break
        roots.extend(0.5 * (lo + hi))

    # non-sign-changing zeros: local minima of |xi|, refined on sigma_min
    abs_xi = np.abs(xi)
    change_set = set(change)
    sv_tol = DEGENERACY_FACTOR * tol
    for i in range(1, len(grid) - 1):
        if not (abs_xi[i] < abs_xi[i - 1] and abs_xi[i] < abs_xi[i + 1]):
            continue
        if {i - 1, i} & change_set:
            continue
        k_star = _golden_minimize(lambda k: sm.singular_values(k)[-1], grid[i - 1], grid[i + 1])
        sv = sm.singular_values(k_star)
        multiplicity = int(np.sum(sv < sv_tol))
        roots.extend([k_star] * multiplicity)

    ceiling = k_max * (1.0 + 1e-12) + 1e-12
    roots = sorted(r for r in roots if 0 < r <= ceiling)
    # Python abs (hypot), not np.abs, whose SIMD kernel rounds differently
    residuals = [abs(d) for d in sm.dets(np.array(roots))[0].tolist()]
    bad = [i for i, res in enumerate(residuals) if res > tol]
    if bad:
        raise NumericalError(
            f"secular residual {residuals[bad[0]]:.3e} above tolerance {tol:.1e} "
            f"at k = {roots[bad[0]]:.12g}"
        )
    return roots, residuals


def _xi_batch(sm: _SecularMatrix, ks: np.ndarray, theta_ref: np.ndarray) -> np.ndarray:
    dets, det_m = sm.dets(ks)
    # continuous phase on a narrow bracket: deviation from the reference stays < pi
    theta = theta_ref + np.angle(det_m * np.exp(-1j * theta_ref))
    return np.real(dets * np.exp(-0.5j * theta))


def _golden_minimize(f, a: float, b: float, iterations: int = 90) -> float:
    """Golden-section minimum of a unimodal scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-14:
            break
    return 0.5 * (a + b)
