"""Graph eigenvalues: analytic Dirichlet spectra, the bond-scattering secular
equation, root finding, and Weyl counting.

The secular function of a compact graph is det(I - S(k) D(k)) on the space of
directed bonds: D(k) = diag(e^{ik L_b}) propagates amplitudes along each
directed bond, and S(k) routes an amplitude arriving at a vertex into the
outgoing directed bonds through that vertex's reflection/transmission
amplitudes.  Its zeros on the positive real axis are the graph eigenvalues.

Roots are found by bisection on the exact count of eigenvalues below k
(Friedlander's identity; Berkolaiko & Kuchment, *Introduction to Quantum
Graphs*, AMS 2013), N(k) = sum_b floor(k l_b / pi) + n_+(A(k) / k), where n_+
counts the positive eigenvalues of the vertex-matching form A on the
non-Dirichlet vertices.  Vertex v adds -gamma_v / k on the diagonal of A/k
and bond b = (u, w) adds tan(h) s s^T - cot(h) a a^T, with h = k l_b / 2 and
s, a = (e_u +- e_w)/sqrt(2) (e = 0 at a Dirichlet end); its coefficient of
modulus >= 1 moves into a border coordinate with diagonal -1/coefficient,
which keeps the form bounded at the bond Dirichlet values k l_b = n pi and
adds one to n_+ per positive border diagonal.  Around a simple root N(k)
is N(lo) or N(hi), and the sign of det of the fixed-size form gives its parity
at about a quarter of the cost of eigenvalues; a full count just beside each root
checks what the parity cannot see.  Such an interval is split at the Illinois
false-position point of det K (Dowell & Jarratt, BIT 11, 168 (1971)), from
log|det K| at its ends, and at the midpoint when an end has no det value (a
full count gave it), when det K has one sign at both ends (a border switch,
where K jumps, lies between) or when two steps passed without the bracket
halving (Brent's safeguard: at most three steps per halving).  Intervals with
more roots are bisected on the full count.  The count difference across a
final interval is the multiplicity of its root, which the bond-scattering
form then confirms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import NumericalError, UnsupportedTopologyError
from .graph import Graph, require_zero_potential, total_length, validate
from .scattering import vertex_amplitudes


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted positive eigenvalues (repeated per multiplicity) with per-root
    secular residuals, the Weyl-count audit and ``diagnostics``: numbers of
    full-count and det-sign points and of bisection levels, worst residual."""

    eigenvalues: tuple[float, ...]
    k_max: float
    residuals: tuple[float, ...]
    weyl_expected: float
    diagnostics: dict[str, float] = field(default_factory=dict, hash=False)

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

    def singular_values(self, ks: np.ndarray) -> np.ndarray:
        """Singular values of I - M(k) per wavenumber, in ascending order."""
        return np.linalg.svd(np.eye(self.dim) - self.matrices(ks), compute_uv=False)[:, ::-1]


class _MatchingCount:
    """Vectorized exact eigenvalue count N(k) from the bordered matching form
    of the module docstring."""

    def __init__(self, g: Graph):
        free = [vid for vid in g.vertex_ids() if not g.coupling(vid).is_dirichlet]
        index = {vid: i for i, vid in enumerate(free)}
        self.lengths = np.array([b.length for b in g.bonds])
        self._gamma = np.array([g.coupling(vid).effective_gamma() for vid in free])
        # rows e_u / sqrt(2) and e_w / sqrt(2) per bond; they combine to s and a
        ends = np.zeros((2, len(g.bonds), len(free)))
        for i, b in enumerate(g.bonds):
            for side, vid in enumerate((b.from_vertex, b.to_vertex)):
                if vid in index:
                    ends[side, i, index[vid]] = math.sqrt(0.5)
        self._s, self._a = ends[0] + ends[1], ends[0] - ends[1]

    def _form(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The bordered form K at each k, and N(k) - n_+(K)."""
        ks = np.asarray(ks, dtype=float)
        kl = np.outer(ks, self.lengths)
        t = np.tan(0.5 * kl)
        # floor(k l / pi) from the nearest integer m and the side of m pi that
        # the computed tan(k l / 2) indicates (tan > 0 just below odd m), so
        # that it jumps where the border entries below change sign
        m = np.rint(kl / math.pi)
        floor = m - ((m % 2 == 1) == (t > 0))

        steep = np.abs(t) >= 1.0
        # the kept coefficient and the border diagonal are both this value
        d = np.where(steep, -1.0 / t, t)
        # scaling vertex rows and columns by |gamma / k|^-1/2 where that is
        # below one is a congruence: the inertia stays, and near-zero
        # eigenvalues stay resolved beside strong couplings
        gk = np.outer(1.0 / ks, self._gamma)
        w = np.maximum(1.0, np.abs(gk))[:, None, :] ** -0.5
        kept = np.where(steep[..., None], self._a, self._s) * w
        border = np.where(steep[..., None], self._s, self._a) * w

        v, size = gk.shape[1], gk.shape[1] + d.shape[1]
        form = np.zeros((len(ks), size, size))
        form[:, :v, :v] = np.swapaxes(kept * d[..., None], 1, 2) @ kept
        form[:, v:, :v] = border
        form[:, :v, v:] = np.swapaxes(border, 1, 2)
        diag = np.arange(size)
        form[:, diag, diag] += np.hstack([np.clip(-gk, -1.0, 1.0), d])
        return form, floor.sum(axis=1).astype(int) - np.sum(d > 0.0, axis=1)

    def count(self, ks: np.ndarray) -> np.ndarray:
        """Number of eigenvalues below each k, counting the zero mode and
        bound states (k > 0, off the exact roots)."""
        form, offset = self._form(ks)
        return offset + np.sum(np.linalg.eigvalsh(form) > 0.0, axis=1)

    def parity(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """count(ks) mod 2 from sign det K = (-1)^n_-(K), n_+ + n_- = size off the
        roots, with sign det K and log|det K|."""
        form, offset = self._form(ks)
        sign, logdet = np.linalg.slogdet(form)
        return (offset + form.shape[-1] - (sign < 0)) % 2, sign, logdet


def secular_function(g: Graph, k: float) -> complex:
    """det(I - S(k) D(k)); zeros on the positive real axis are eigenvalues."""
    if k <= 0:
        raise ValueError("k must be positive")
    sm = _SecularMatrix(g)
    return complex(np.linalg.det(np.eye(sm.dim) - sm.matrices(np.array([float(k)]))[0]))


def find_eigenvalues(g: Graph, k_max: float, tol: float = 1e-10) -> SpectrumResult:
    """All eigenvalues in (0, k_max], in increasing order with multiplicity.

    A simple root's interval is split on the sign of det of the count's form,
    at the safeguarded false-position point of the module docstring, any other
    is bisected on the full count; both stop at width 1e-14 max(1, k_max) and
    return the midpoint.  ``tol`` bounds the accepted residual
    of each root: the m-th smallest singular value of I - S D for a root of
    multiplicity m.  Raises :class:`NumericalError` if a residual exceeds
    ``tol``, if the multiplicities do not add up to the count across
    (0, k_max] or to the full count just beside each root, or if the count
    leaves the Weyl bound |N - L k_max / pi| <= V + B.
    """
    if not 0 < k_max < math.inf:
        raise ValueError("k_max must be positive and finite")
    if not tol > 0:
        raise ValueError("tol must be positive")
    sm = _SecularMatrix(g)
    counter = _MatchingCount(g)

    # below k_lo sit only the zero mode and bound states, which are excluded
    k_lo = 1e-6 * math.pi / total_length(g)
    k_top = k_max * (1.0 + 1e-12) + 1e-12
    width = 1e-14 * max(1.0, k_max)
    # columns are intervals (lo, hi]; the rows hold k, N(k), sign det K and
    # log|det K| at both ends (sign 0 where a full count gave the point)
    n_lo, n_top = counter.count(np.array([k_lo, k_top]))
    ends = np.array([[k_lo, k_top], [n_lo, n_top], [0.0, 0.0], [0.0, 0.0]])[..., None]
    # per column: the width when it last halved, steps since then, end kept by the last split
    halved, stale, kept = np.array([k_top - k_lo]), np.zeros(1), np.full(1, -1)
    roots, mults, full_points, sign_points = [], [], 2, 0
    while ends.size:
        n_in = ends[1, 1] - ends[1, 0]
        done = (n_in > 0) & (ends[0, 1] - ends[0, 0] <= width)
        roots.append(0.5 * (ends[0, 0, done] + ends[0, 1, done]))
        mults.append(n_in[done])
        live = (n_in > 0) & ~done
        ends, halved, stale, kept = ends[..., live], halved[live], stale[live], kept[live]
        (lo, hi), (c_lo, c_hi), signs, logs = ends
        # N(mid) is N(lo) or N(hi) around a simple root: its parity decides, and
        # mid is the false-position point of det K unless an end has no det,
        # det K keeps its sign (a border switch lies between) or two steps
        # passed without the bracket halving
        simple = c_hi - c_lo == 1
        regula = simple & (signs[0] * signs[1] < 0) & (stale < 2)
        x = np.clip(lo + (hi - lo) * expit(logs[0] - logs[1]), lo + 0.25 * width, hi - 0.25 * width)
        mid = np.zeros((4, lo.size))
        mid[0] = np.where(regula, x, 0.5 * (lo + hi))
        mid[1, ~simple] = counter.count(mid[0, ~simple])
        parity, mid[2, simple], mid[3, simple] = counter.parity(mid[0, simple])
        mid[1, simple] = c_lo[simple] + (parity != c_lo[simple] % 2)
        full_points, sign_points = full_points + int(np.sum(~simple)), sign_points + int(np.sum(simple))
        # Illinois: an end kept by two splits in a row counts at half its |det|
        ends[3] -= math.log(2.0) * (kept == np.arange(2)[:, None])
        ends = np.concatenate([np.stack([ends[:, 0], mid], 1), np.stack([mid, ends[:, 1]], 1)], 2)
        span, halved, stale = ends[0, 1] - ends[0, 0], np.tile(halved, 2), np.tile(stale, 2)
        halves = np.tile(~regula, 2) | (span <= 0.5 * halved)
        halved, stale = np.where(halves, span, halved), np.where(halves, 0, stale + 1)
        kept = np.repeat([0, 1], lo.size)

    levels, roots, mults = len(roots) - 1, np.concatenate(roots), np.concatenate(mults).astype(int)
    order = np.argsort(roots)
    roots, mults = roots[order], mults[order]
    # the parity cannot see a count that dips inside a simple root's interval,
    # so the full count must step by each multiplicity just beside each root
    gaps = np.diff(np.concatenate([[k_lo], roots, [k_top]]))
    offset = np.minimum(1e-9 * max(1.0, k_max), 0.5 * np.minimum(gaps[:-1], gaps[1:]))
    beside = np.concatenate([roots - offset, roots + offset])
    expected = n_lo + np.concatenate([np.cumsum(mults) - mults, np.cumsum(mults)])
    misses = np.count_nonzero(counter.count(beside) != expected)
    if mults.sum() != n_top - n_lo or misses:
        raise NumericalError(
            f"eigenvalue count is not monotone: multiplicities add up to {mults.sum()}, "
            f"N(k_max) - N(k_lo) = {n_top - n_lo}, and {misses} counts beside the roots disagree"
        )
    weyl = weyl_count(g, k_max)
    audit_bound = len(g.vertices) + len(g.bonds)
    if abs(mults.sum() - weyl) > audit_bound:
        raise NumericalError(
            f"Weyl audit failed: found {mults.sum()} eigenvalues vs expected "
            f"~{weyl:.1f} (bound {audit_bound})"
        )

    residuals = sm.singular_values(roots)[np.arange(len(roots)), mults - 1]
    bad = np.flatnonzero(residuals > tol)
    if bad.size:
        raise NumericalError(
            f"secular residual {residuals[bad[0]]:.3e} above tolerance {tol:.1e} "
            f"at k = {roots[bad[0]]:.12g}"
        )
    eigenvalues = np.repeat(roots, mults)
    diagnostics = dict(count_points=full_points + beside.size, sign_points=sign_points, bisection_levels=levels,
                       worst_residual=float(residuals.max(initial=0.0)))
    return SpectrumResult(tuple(eigenvalues.tolist()), float(k_max),
                          tuple(np.repeat(residuals, mults).tolist()), weyl, diagnostics)
