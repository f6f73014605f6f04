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
which keeps the bordered form K bounded at the bond Dirichlet values
k l_b = n pi and adds one to n_+ per positive border diagonal.  Only bonds
near those values need their border coordinate: one whose diagonal d_b has
|d_b| >= ``_PIVOT`` = 0.01 is eliminated by its Schur complement, which puts
the bond's plain tan or cot term, of modulus up to 100, back on the vertex
block.  By Haynsworth's inertia additivity (Linear Algebra Appl. 1, 73
(1968)), N(k) = sum_b floor(k l_b / pi) - #{kept d_b > 0} - #pad + n_+ of the
reduced form, and det K is the product of the eliminated d_b times its
det; each batch is padded with +1 diagonals to one order, about V_free plus
a few.  The form changes branch only at its special points, where k l_b is
a multiple of pi/2: a border diagonal vanishes at k l_b = n pi, and a border
coordinate switches, which makes K jump, where |tan(k l_b / 2)| = 1.  An
interval whose only special point is p is split at p - eps and p + eps, eps
a quarter of the stopping width, so a root on p (as on equilateral graphs
and equal stars) closes in two steps and no bracket keeps p.  The degenerate
roots sit on such points, those of a length that two or more bonds have
exactly (von Below, Linear Algebra Appl. 71, 309 (1985)), and every root of
an equal star does; so the search starts from one batch of full counts, with
det K, at the midpoints between consecutive shared points, and an interval
between two of them holds one shared point from the first step.  A graph
with no repeated length starts from the one interval (k_lo, k_top].  Around a
simple root N(k) is N(lo) or N(hi), and the sign of det of the reduced form
gives its parity at about a third of the cost of eigenvalues; a full count
just beside each root checks what the parity cannot see, and a point where
det is exactly 0 (on a root) moves by eps.  Such an interval takes the split
beside p only where p is a border switch, and not while both its ends are
full counts (the midpoint halves it first); otherwise it is split at the
Illinois false-position point of det K (Dowell & Jarratt, BIT 11, 168
(1971)), from log|det K| at its ends, and at the midpoint when an end has
no det value (a full count gave it), when det K has one sign at both ends
or when two steps passed without the bracket halving (Brent's safeguard: at
most three steps per halving).  Other intervals with more roots are
bisected on the full count.  The count difference across a final interval,
summed over final intervals that share an end, is the multiplicity of its
root, which the bond-scattering form then confirms.

The residual of a root k of multiplicity m is, to within rounding, an upper
bound on the m-th smallest singular value of N = I - S(k) D(k), independent
of the count.  At real k, S D is unitary, so N is normal with its eigenvalues
in Re >= 0, and every singular value of A = N + c I is at least the fixed
shift c > 0, which only has to stay above the rounding of N and of the
solve.  Two steps of shifted inverse iteration (Ipsen, SIAM Rev. 39, 254
(1997)), X <- Q of the QR factorization of A^-1 X from a fixed seeded n x m
start (X / ||X|| for m = 1), give an orthonormal X, and by Courant-Fischer
||N X||_2 >= sigma_m(N), formed from the entries of S D that ``matrices``
scatters.  The next singular value s leaves about ((sigma_m + c) /
(s + c))^2 of the start's weight off the m smallest singular directions, so
the bound meets sigma_m(N) to within rounding when s >> sigma_m + c; when s
is tiny too, it can exceed sigma_m by a fraction of s (by up to 1.4e-13 on
stars whose roots are split by 1e-13).  Each solve with A goes through a
Schur system of about the vertex count's order, not the dense 2B x 2B one.
The vertex amplitudes have r = t - 1 (t = 0 at a Dirichlet vertex), so
S = T - R, with T = E_tail diag(t) E_head^T of rank at most V_free and R the
bond reversal a <-> a ^ 1, and A = B - T D with B = (1 + c) I + R D: one
2 x 2 block per bond, with eigenvalues 1 + c +- e^{ik l_b} on the bond modes
(1, +-1) / sqrt(2).  With z = diag(t) E_head^T D y on the free vertices,
A y = x is B y = x + E_tail z.  Every bond mode is eliminated through its
eigenvalue except the small one of a bond near k l_b in pi Z (modulus below
``_RESIDUAL_PIVOT`` = 0.1), which keeps a border unknown; that leaves a
system of order V_free plus those bonds, at most V_free + B, and y follows
by back-substitution.  The systems of one multiplicity are padded to one order.

The count and the residual share one vertex block per graph (the free
vertices, each bond's two ends among them, a Dirichlet end one past them, and
one B x V_free bond-end incidence), one builder of their bordered systems and
one 8 MiB chunk budget, ``_CHUNK_BYTES``, which caps their memory and leaves
every form and bound as it is; the residual adds a real 2B x V_free array,
and ``find_eigenvalues`` refuses V_free + B above ``_MAX_ORDER``.  The bound
reads only the directed-bond arrays of S D, so a defect in the shared block
can only raise a residual.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, SingularWavenumberError, UnsupportedTopologyError
from .graph import Graph, _argument, _integer, total_length
from .scattering import _MAX_VALENCY, vertex_amplitudes


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted positive eigenvalues (repeated per multiplicity) with per-root
    secular residuals, upper bounds to within rounding on the m-th smallest
    singular value of I - S D (module docstring), the Weyl-count audit
    (``weyl_expected`` and the bound V + B on the count's distance from it)
    and ``diagnostics``: numbers of full-count and det-sign points and of
    bisection levels, the mean order of the count's form over those points,
    the mean order of the residual's Schur systems over the distinct roots,
    worst residual."""

    eigenvalues: tuple[float, ...]
    k_max: float
    residuals: tuple[float, ...]
    weyl_expected: float
    weyl_bound: int
    diagnostics: dict[str, float] = field(default_factory=dict, hash=False)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


def dirichlet_eigenvalues(length: float, n_max: int) -> list[float]:
    """Analytic spectrum n pi / L, n = 1..n_max (n_max <= ``_MAX_ROOTS``), of a bond with Dirichlet ends."""
    length, n_max = _argument(length, "length", positive=True), _integer(n_max, "n_max", 1, _MAX_ROOTS)
    return [n * math.pi / length for n in range(1, n_max + 1)]


def weyl_count(g: Graph, k: float) -> float:
    """Leading smooth eigenvalue count, total_length * k / pi."""
    return total_length(g) * _argument(k, "k", 0.0) / math.pi


#: Shift c > 0 of the residual's inverse iteration (module docstring): above
#: the rounding of N = I - S D and of its LU solve, and small, since the
#: bound can exceed sigma_m by a fraction of c when the next singular value is
#: near c.
_SHIFT = 1e-13

#: A bond's small mode, whose eigenvalue 1 + c +- e^{ik l_b} in the
#: residual's block B has modulus below this, keeps a border unknown in the
#: Schur system; every other mode is eliminated (module docstring), which puts
#: entries of up to 1 / ``_RESIDUAL_PIVOT`` in the vertex block.  On the tests'
#: graphs the residuals meet the all-border system's to 1.8e-16 down to 0.03,
#: a factor of three below this, and differ by 3.9e-15 at 0.02.
_RESIDUAL_PIVOT = 0.1

#: Largest residual (module docstring) of a root ``find_eigenvalues`` accepts.
_RESIDUAL_TOL = 1e-10

#: Byte budget of the systems one chunk of a count, parity or residual batch
#: holds (at least one system per chunk): the cap on each step's memory,
#: whatever the graph size.
_CHUNK_BYTES = 8 * 2**20

#: Cap on the Weyl estimate L k_max / pi + V + B that ``find_eigenvalues``
#: accepts.  It bounds the search's memory, about 560 bytes per root on the
#: unit interval (0.6 GB at the cap) and more with larger vertex blocks, and
#: that of ``_special_points``, about 2 L k_max / pi points of 64 bytes.
_MAX_ROOTS = 10**6

#: Largest V_free + B that ``find_eigenvalues`` accepts, the largest order of a
#: count form or a residual system, and largest 2B that ``secular_function``
#: accepts: a complex matrix of that order holds 256 MiB, as the vertex
#: S-matrix does at ``_MAX_VALENCY``.
_MAX_ORDER = _MAX_VALENCY

#: Border coordinates whose diagonal has at least this modulus are eliminated
#: into the vertex block (module docstring), with entries of up to 1 / ``_PIVOT``;
#: above 1 none are, which gives the bordered form.  The count, parity and sign
#: det equal the bordered form's at any threshold (Haynsworth); on the tests'
#: graphs log|det K| meets it to 1.0e-11 relative down to 1e-3, a factor of ten
#: below this, and to 1e-9 down to 1e-7.
_PIVOT = 0.01


def _require_bonds(g: Graph) -> None:
    """Refuse a graph with leads or without bonds, which has no secular matrix."""
    if not g.is_compact:
        raise UnsupportedTopologyError("spectrum requires compact graph (no leads)")
    if not g.bonds:
        raise UnsupportedTopologyError("graph has no bonds")


class _MatchingCount:
    """Vectorized exact eigenvalue count N(k) from the Schur-reduced matching
    form of the module docstring, on the vertex block it shares with the
    residual.  The block has on the diagonal the bond coefficients' half sums
    times the bond-end incidence, a dense product over the batch, and between
    the two free ends of each bond their half differences, scattered directly:
    a graph has no parallel bonds, so each such entry belongs to one bond.
    ``points`` and ``form_orders`` tally the points evaluated and the orders
    of their forms."""

    def __init__(self, g: Graph):
        _require_bonds(g)
        index = {vid: i for i, (vid, _) in enumerate(g.vertices)}
        self._dirichlet = np.array([c.is_dirichlet for _, c in g.vertices])
        self._gamma = np.array([c.gamma for _, c in g.vertices])
        self.lengths = np.array([b.length for b in g.bonds])
        self._vertex_ends = np.array([[index[b.from_vertex], index[b.to_vertex]] for b in g.bonds])
        self._free = np.flatnonzero(~self._dirichlet)
        # each bond's ends in the vertex block, a Dirichlet end one past it
        v = self._free.size
        self._ends = np.where(self._dirichlet, v, np.cumsum(~self._dirichlet) - 1)[self._vertex_ends]
        self._inner = np.all(self._ends < v, axis=1)
        self._pairs = self._ends[self._inner].T
        self._incidence = np.sum(self._ends[:, :, None] == np.arange(v), axis=1, dtype=float)
        self.points = self.form_orders = 0

    def _bordered(self, size, diag, upper, lower, at, ends, across, down, border):
        """Bordered systems of order ``size``, one per row of the vertex diagonal
        ``diag``, ``upper`` and ``lower`` at the inner pairs (u, w) and (w, u),
        then per border unknown, in order of ``at``, its system: a row
        ``across`` and a column ``down`` at the ``ends`` of its bond, and
        ``border`` on the diagonal; diagonal 1 pads the rest.  A Dirichlet end
        (index V_free, the first border row) writes its 0 before the border
        diagonal.  Also the border row numbers."""
        n, v = diag.shape
        system = np.zeros((n, size, size), dtype=diag.dtype)
        flat = system.reshape(n, size * size)
        flat[:, : v * (size + 1): size + 1] = diag
        flat[:, v * (size + 1):: size + 1] = 1.0
        pu, pw = self._pairs
        system[:, pu, pw], system[:, pw, pu] = upper, lower
        row = v + np.arange(at.size) - np.searchsorted(at, at)
        start, flat = at * size * size, system.reshape(-1)
        flat[start + row * size + ends] = across
        flat[start + ends * size + row] = down
        flat[start + row * (size + 1)] = border
        return system, row

    def _form(self, ks: np.ndarray):
        """N(k) - n_+(form) at each k, the order of the reduced forms, the
        border diagonals with 1 in place of those kept, and the reduced forms
        as stacks of consecutive chunks of ``ks`` within ``_CHUNK_BYTES``.
        The branch data and the order are the batch's, so a form does not
        depend on its chunk."""
        ks = np.asarray(ks, dtype=float)
        kl = np.outer(ks, self.lengths)
        t = np.tan(0.5 * kl)
        # floor(k l / pi) from the nearest integer m and the side of m pi that
        # the computed tan(k l / 2) indicates (tan > 0 just below odd m), so
        # that it jumps where the border entries below change sign
        m = np.rint(kl / math.pi).astype(np.int64)
        floor = m - ((m % 2 == 1) == (t > 0))

        # the border vector is s where tan(k l / 2) is steep and a otherwise;
        # the kept coefficient and the border diagonal are both d, and an
        # eliminated border coordinate adds -1/d on its own pattern
        steep = np.abs(t) >= 1.0
        d = np.where(steep, -1.0 / t, t)
        out = np.abs(d) >= _PIVOT
        eliminated = np.where(out, d, 1.0)
        schur = np.where(out, -1.0, 0.0) / eliminated
        c_s, c_a = np.where(steep, schur, d), np.where(steep, d, schur)
        # scaling vertex rows and columns by |gamma / k|^-1/2 where that is
        # below one is a congruence: the inertia stays, and near-zero
        # eigenvalues stay resolved beside strong couplings
        gk = np.outer(1.0 / ks, self._gamma[self._free])
        w = np.maximum(1.0, np.abs(gk)) ** -0.5
        n, v = gk.shape

        # the kept border coordinates, in bond order at each k, then pads with
        # diagonal +1 and no border entries up to the batch's largest count;
        # with s, a = (e_u +- e_w) / sqrt(2), s s^T and a a^T are both 1/2 at
        # (u, u) and (w, w); at (u, w) and (w, u) s s^T is 1/2 and a a^T -1/2
        at, bond = np.nonzero(~out)
        kept = np.bincount(at, minlength=n)
        size = v + int(kept.max(initial=0))
        pu, pw = self._pairs
        pair = 0.5 * (c_s - c_a)[:, self._inner] * w[:, pu] * w[:, pw]
        diag = 0.5 * (c_s + c_a) @ self._incidence * w * w + np.maximum(np.minimum(-gk, 1.0), -1.0)
        # a border row and column, s or a times the scaling, is w / sqrt(2) at
        # the first end of its bond and -+ w / sqrt(2) at the second, 0 at a
        # Dirichlet end
        ends = self._ends[bond].T
        value = np.hstack([math.sqrt(0.5) * w, np.zeros((n, 1))])[at, ends]
        value[1] = np.where(steep[at, bond], value[1], -value[1])
        border = d[at, bond]
        self.points, self.form_orders = self.points + n, self.form_orders + n * size

        def stacks():
            rows = max(1, _CHUNK_BYTES // (8 * max(size, 1) ** 2))
            # one empty stack for an empty batch
            for lo in range(0, max(n, 1), rows):
                hi = min(lo + rows, n)
                a, b = np.searchsorted(at, [lo, hi])
                yield self._bordered(size, diag[lo:hi], pair[lo:hi], pair[lo:hi], at[a:b] - lo, ends[:, a:b],
                                     value[:, a:b], value[:, a:b], border[a:b])[0]

        return (floor - (~out & (d > 0.0))).sum(axis=1) - (size - v - kept), size, eliminated, stacks()

    def count(self, ks: np.ndarray) -> np.ndarray:
        """Number of eigenvalues below each k, counting the zero mode and
        bound states (k > 0, off the exact roots)."""
        offset, _, _, forms = self._form(ks)
        return offset + np.concatenate([np.sum(np.linalg.eigvalsh(form) > 0.0, axis=1) for form in forms])

    def parity(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """count(ks) mod 2 from sign det = (-1)^n_- of the reduced form, n_+ +
        n_- = its order off the roots, with sign det K and log|det K| of the
        bordered form K: those of the reduced form times the eliminated
        border diagonals."""
        offset, size, eliminated, forms = self._form(ks)
        sign, logdet = np.hstack([np.linalg.slogdet(form) for form in forms])
        return ((offset + size - (sign < 0)) % 2, sign * np.prod(np.sign(eliminated), axis=1),
                logdet + np.sum(np.log(np.abs(eliminated)), axis=1))


class _SecularMatrix(_MatchingCount):
    """Vectorized evaluator for M(k) = S(k) D(k) on the directed-bond space,
    and the count on the same graph's vertex block (module docstring)."""

    def __init__(self, g: Graph):
        super().__init__(g)
        # directed bond 2b runs along bond b and 2b + 1 runs back; directed bond
        # a scatters at its head into the directed bonds with that tail: into
        # a ^ 1 by reflection (no loops or parallel bonds), into the others by
        # transmission.  The pairs (row, column) come in one block per vertex
        # v: its directed bonds leaving v, in order, are the rows, their
        # reverses arriving at v the columns, so the reflections are on the
        # diagonal; the blocks of one valency are consecutive, and their rows
        # together are ``_leave``
        tail, head, n_vertices = self._vertex_ends.ravel(), self._vertex_ends[:, ::-1].ravel(), self._gamma.size
        self.dim = tail.size
        self._valency = np.bincount(tail, minlength=n_vertices)
        fans = self._valency[tail]
        self._leave = np.argsort(fans * n_vertices + tail, kind="stable")
        self._blocks, rows, cols = [], [], []
        for fan, lo in zip(*np.unique(fans[self._leave], return_index=True)):
            leave = self._leave[lo:lo + np.count_nonzero(fans == fan)].reshape(-1, fan)
            self._blocks.append((fan, leave.size, (leave ^ 1).ravel()))
            rows.append(np.repeat(leave, fan, axis=1).ravel())
            cols.append(np.tile(leave ^ 1, fan).ravel())
        self._rows, self._cols = np.concatenate(rows), np.concatenate(cols)
        self._is_reflection = self._rows == self._cols ^ 1
        self._at_vertex = head[self._cols]

        # mode 2b + i of bond b is (1, (-1)^i) / sqrt(2) on its directed bonds
        # (2b, 2b + 1); in that basis E_tail has 1 / sqrt(2) at the free end u
        # of b and (-1)^i / sqrt(2) at the free end w, and E_head is
        # diag((-1)^i) E_tail
        self._mode_sign = np.tile([1.0, -1.0], self.lengths.size)
        tail_map = np.zeros((self.dim, self._free.size + 1))
        tail_map[np.arange(self.dim)[:, None], np.repeat(self._ends, 2, axis=0)] = \
            math.sqrt(0.5) * np.stack([np.ones(self.dim), self._mode_sign], axis=1)
        self._tail_map = np.ascontiguousarray(tail_map[:, :-1])
        self.residual_orders = 0

    def _amplitudes(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """R and T at each vertex, one row per k."""
        return vertex_amplitudes(self._valency[None, :], self._gamma[None, :], ks[:, None], self._dirichlet[None, :])

    def _entries(self, r: np.ndarray, t: np.ndarray, e: np.ndarray) -> np.ndarray:
        """The entries of M(k) at (``_rows``, ``_cols``), one row per k, from
        ``_amplitudes`` and e^{ik l_b} on each bond."""
        # np.take gives C order at every batch size, so that a block product
        # of the residual takes the same BLAS path for any chunk; ``*`` would
        # swap the operands, and the rounding, of a temporary of 256 KiB or more
        amp = np.where(self._is_reflection, np.take(r, self._at_vertex, axis=1), np.take(t, self._at_vertex, axis=1))
        return np.multiply(amp, np.take(e, self._cols >> 1, axis=1))

    def matrices(self, ks: np.ndarray) -> np.ndarray:
        ks = np.atleast_1d(np.asarray(ks))
        entries = self._entries(*self._amplitudes(ks), np.exp(1j * np.outer(ks, self.lengths)))
        m = np.zeros((len(entries), self.dim, self.dim), dtype=complex)
        m[:, self._rows, self._cols] = entries
        return m

    def residuals(self, ks: np.ndarray, mults: np.ndarray) -> np.ndarray:
        """The residual of the module docstring at each real k, m its entry of
        ``mults``, from the first m columns of one fixed seeded block of bond
        mode amplitudes.  Each solve with A = (1 + c) I - M goes through the
        Schur system of the module docstring, padded to the largest order
        among the roots of its multiplicity; those roots go in chunks of at
        most ``_CHUNK_BYTES`` of complex arrays, so a root's bound depends
        only on its k and m.  ``residual_orders`` tallies the orders of the
        systems."""
        n, m_max = self.dim, int(mults.max(initial=1))
        # the stdlib generator is loaded already; importing numpy.random
        # would add about 14 ms to every command that finds eigenvalues
        rng = random.Random(0)
        start = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n * m_max)])
        start = start.reshape(n, m_max)
        # the border unknowns at each k, in chunks within the budget
        kept, rows = np.zeros(len(ks), dtype=int), max(1, _CHUNK_BYTES // (64 * n))
        for lo in range(0, len(ks), rows):
            kept[lo:lo + rows] = np.sum(self._near(np.outer(ks[lo:lo + rows], self.lengths)), axis=1)
        out = np.empty(len(ks))
        for m in np.unique(mults):
            at = np.flatnonzero(mults == m)
            size = self._free.size + int(kept[at].max())
            self.residual_orders += at.size * size
            # a system and the solve's copy of it, the entries of M and the
            # n x m blocks of a step
            rows = max(1, _CHUNK_BYTES // (16 * (2 * size * size + self._rows.size + 6 * n * m)))
            for chunk in (at[lo:lo + rows] for lo in range(0, len(at), rows)):
                out[chunk] = self._bounds(ks[chunk], start[:, :m], size)
        return out

    @staticmethod
    def _near(kl: np.ndarray) -> np.ndarray:
        """Whether each bond keeps a border unknown at k l_b = ``kl``: where
        the smaller eigenvalue 1 + c +- e^{ik l_b} of its block of
        (1 + c) I + R D, the sign that of -cos k l_b, has modulus below
        ``_RESIDUAL_PIVOT``; its square is (1 + c)^2 + 1 - 2 (1 + c) |cos k l_b|."""
        return (1.0 + _SHIFT) ** 2 + 1.0 - 2.0 * (1.0 + _SHIFT) * np.abs(np.cos(kl)) < _RESIDUAL_PIVOT ** 2

    def _bounds(self, ks: np.ndarray, start: np.ndarray, size: int) -> np.ndarray:
        """||(I - M) X||_2 at each k, X from the 2B x m block ``start`` of
        bond mode amplitudes, with Schur systems of order ``size``; the
        chunk's arrays are freed on return."""
        nk, n, v, h = len(ks), self.dim, self._free.size, math.sqrt(0.5)
        kl = np.outer(ks, self.lengths)
        (r, t_all), e = self._amplitudes(ks), np.exp(1j * kl)
        # the eigenvalues of B on the bond modes, mode 2b + i being
        # (1, (-1)^i) / sqrt(2) on the directed bonds (2b, 2b + 1), and their
        # inverses, 0 for the small mode of each bond near k l_b in pi Z,
        # which keeps a border unknown
        at, j = np.nonzero(self._near(kl))
        j = 2 * j + (e.real[at, j] >= 0.0)
        lam = (1.0 + _SHIFT + e[:, :, None] * np.array([1.0, -1.0])).reshape(nk, n)
        inv = 1.0 / lam
        inv[at, j] = 0.0
        # with lift = diag((-1)^i) D B^-1 on the modes, the vertex block
        # I - diag(t) E_head^T D B^-1 E_tail has at each free end of a bond
        # -t / 2 times the sum of the bond's two entries of lift on the
        # diagonal and their difference towards the other end
        lift = (np.repeat(e, 2, axis=1) * inv * self._mode_sign).reshape(nk, n // 2, 2)
        t = np.hstack([t_all[:, self._free], np.zeros((nk, 1))])
        diag = np.matmul(np.ascontiguousarray(self._incidence.T), np.sum(lift, axis=2)[:, :, None].view(float))
        diag = diag.view(complex)[:, :, 0]
        pu, pw = self._pairs
        pair = 0.5 * (lift[:, :, 0] - lift[:, :, 1])[:, self._inner]
        # the border unknowns, in bond order at each k: mode j of bond (u, w)
        # has row -(e_u +- e_w) / sqrt(2) and its eigenvalue on the diagonal,
        # and adds -t e / sqrt(2) times its amplitudes on the directed bonds
        # arriving at u and w to their rows, 0 at a Dirichlet end
        ends, sg, ee = self._ends[j >> 1].T, self._mode_sign[j], -h * e[at, j >> 1]
        system, row = self._bordered(size, 1.0 - 0.5 * t[:, :v] * diag, -t[:, pu] * pair, -t[:, pw] * pair, at, ends,
                                     np.stack([-h * (ends[0] < v), -h * sg * (ends[1] < v)]),
                                     np.stack([sg * t[at, ends[0]] * ee, t[at, ends[1]] * ee]), lam[at, j])

        # one start block per system: numpy 1.x reads an n x m right-hand
        # side of a stack as a stack of vectors.  A complex array seen as
        # real pairs meets the real ``_tail_map`` in one real product
        inv, lift, t = inv.reshape(nk, n, 1), lift.reshape(nk, n, 1), t[:, :v, None]
        x = np.broadcast_to(start, (nk,) + start.shape)
        rhs = np.zeros((nk, size, x.shape[2]), dtype=complex)
        for _ in range(2):
            # the vertex rows t E_head^T D B^-1 x = t E_tail^T lift x, with
            # the border modes of B^-1 left out, and the border modes of x
            np.matmul(self._tail_map.T, (lift * x).view(float), out=rhs[:, :v].view(float))
            rhs[:, :v] *= t
            rhs[at, row] = x[at, j]
            sol = np.linalg.solve(system, rhs)
            # back-substitution: y = B^-1 (x + E_tail z) off the border
            # modes, and the border modes themselves
            y = (self._tail_map @ sol[:, :v].view(float)).view(complex)
            y += x
            y *= inv
            y[at, j] = sol[at, row]
            # the Q of Y's QR factorization at each step, since the final Q is
            # only as accurate as Y is well conditioned; for one column, Y / ||Y||
            if y.shape[2] == 1:
                x = y / np.linalg.norm(y[:, :, 0], axis=1)[:, None, None]
            else:
                x = np.linalg.qr(y)[0]
            # only X outlives a step, and the systems go before the bound: the
            # peak is the solve's, with its copies of the systems
            del sol, y
        del system, rhs
        # X on the directed bonds, (x_2b +- x_2b+1) / sqrt(2), and B = X - M X
        # from the entries of M, one product per block of vertices of one
        # valency, its rows in the order of ``_leave``, which leaves its norm
        modes, x = x.reshape(nk, n // 2, 2, -1), np.empty((nk, n // 2, 2, x.shape[2]), dtype=complex)
        np.add(modes[:, :, 0], modes[:, :, 1], out=x[:, :, 0])
        np.subtract(modes[:, :, 0], modes[:, :, 1], out=x[:, :, 1])
        x = x.reshape(nk, n, -1)
        x *= h
        entries, b, lo, first = self._entries(r, t_all, e), np.take(x, self._leave, axis=1), 0, 0
        for fan, count, arrive in self._blocks:
            block = entries[:, lo:lo + count * fan].reshape(nk, -1, fan, fan)
            into = np.take(x, arrive, axis=1).reshape(nk, -1, fan, x.shape[2])
            b[:, first:first + count] -= (block @ into).reshape(nk, count, -1)
            lo, first = lo + count * fan, first + count
        # ||B||_2 is the root of the largest eigenvalue of B^H B, which has
        # full relative accuracy
        if b.shape[2] == 1:
            return np.linalg.norm(b[:, :, 0], axis=1)
        return np.sqrt(np.linalg.eigvalsh(b.conj().transpose(0, 2, 1) @ b)[:, -1])


def secular_function(g: Graph, k: complex) -> complex:
    """det(I - S(k) D(k)) at any finite nonzero real or complex k (k = 0 raises :class:`SingularWavenumberError`);
    zeros on the positive real axis are eigenvalues, and at -k it is the conjugate of its value at real k.
    A graph with 2B above ``_MAX_ORDER`` is refused with :class:`InputError` before any array is built."""
    k = _argument(k, "k", real=False)
    if 2 * len(g.bonds) > _MAX_ORDER:
        raise InputError(f"2B = {2 * len(g.bonds)} exceeds {_MAX_ORDER}: the secular matrix would hold over 256 MiB")
    sm = _SecularMatrix(g)
    if k == 0:
        raise SingularWavenumberError("the vertex amplitudes are singular at k = 0")
    return complex(np.linalg.det(np.eye(sm.dim) - sm.matrices(np.array([k]))[0]))


def _special_points(lengths: np.ndarray, k_top: float, width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct k in (0, k_top] where some k l_b is a multiple of pi / 2,
    the only places where the bordered form changes branch, closing with inf;
    points closer than ``width`` count as one.  Also whether each is a border
    switch (an odd multiple for some bond), where K jumps, and whether it is
    shared: a point of a length that two or more bonds have exactly."""
    lengths, bonds = np.unique(lengths, return_counts=True)
    js = [np.arange(1, int(k_top * ell / (0.5 * math.pi)) + 1) for ell in lengths]
    points = np.concatenate([j * (0.5 * math.pi) / ell for j, ell in zip(js, lengths)] + [[math.inf]])
    odd = np.concatenate([j % 2 == 1 for j in js] + [[False]])
    shares = np.concatenate([np.full(j.size, c) for j, c in zip(js, bonds)] + [[0]])
    order = np.argsort(points)
    points, odd, shares = points[order], odd[order], shares[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(points) > width]))
    return points[starts], np.logical_or.reduceat(odd, starts), np.maximum.reduceat(shares, starts) >= 2


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), from exp(-|x|) so that it cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x < 0, e, 1.0) / (1.0 + e)


def find_eigenvalues(g: Graph, k_max: float) -> SpectrumResult:
    """All eigenvalues in (0, k_max], in increasing order with multiplicity.

    An interval whose only special point (k l_b a multiple of pi/2) is p is
    split just beside p; otherwise a simple root's interval is split on the
    sign of det of the count's Schur-reduced form, at the safeguarded
    false-position point of the module docstring, and any other is bisected
    on the full count; a det-sign point with det exactly 0 moves by a quarter
    of the stopping width towards the middle.
    The search starts from the intervals between the midpoints of
    consecutive special points of lengths that two or more bonds share, each
    end with its full count and det K, or from (k_lo, k_top] if there are
    fewer than two such points.
    All stop at width 1e-14 k_max, so the same graph in other length units
    takes the same steps; final intervals that share an end are one root, at
    the midpoint of their union.  Every root's residual is reported: for
    multiplicity m, ||(I - S D) X||_2 for the orthonormal n x m block X of
    two steps of shifted inverse iteration, an upper bound on the m-th
    smallest singular value of I - S D (module docstring).
    Raises :class:`InputError`, before anything is allocated, if V_free + B,
    the non-Dirichlet vertices and the bonds, exceeds ``_MAX_ORDER`` = 4096,
    if k_max (1 + 1e-12), the top of the search, times the larger of 2 and
    the largest valency is not finite (the vertex amplitudes would overflow),
    or if L k_max / pi + V + B exceeds ``_MAX_ROOTS``, and
    :class:`NumericalError` unless every residual is at most
    ``_RESIDUAL_TOL`` = 1e-10, if the multiplicities do not add up to the
    count across (0, k_max] or to the full count just beside each root, or
    if the count leaves the Weyl bound |N - L k_max / pi| <= V + B.
    """
    k_max = _argument(k_max, "k_max", positive=True)
    order = sum(not c.is_dirichlet for _, c in g.vertices) + len(g.bonds)
    if order > _MAX_ORDER:
        raise InputError(f"V_free + B = {order} exceeds {_MAX_ORDER}: a count form or residual system of that order "
                         f"would hold more than 256 MiB")
    _require_bonds(g)
    # the search reaches k_top, and the vertex amplitudes take N i k and 2 i k
    k_top = k_max * (1.0 + 1e-12)
    if not math.isfinite(k_top * max(2, *map(g.valency, g.vertex_ids()))):
        raise InputError(f"k_max = {k_max!r} overflows the vertex amplitudes of this graph")
    weyl, audit_bound = weyl_count(g, k_max), len(g.vertices) + len(g.bonds)
    if weyl + audit_bound > _MAX_ROOTS:
        raise InputError(f"k_max = {k_max!r} asks for about {weyl:.3g} eigenvalues, above the cap of {_MAX_ROOTS:.0e}")
    sm = _SecularMatrix(g)

    # below k_lo sit only the zero mode and bound states, which are excluded
    k_lo = 1e-6 * math.pi / total_length(g)
    width = 1e-14 * k_max
    eps = 0.25 * width
    special, switch, shared = _special_points(sm.lengths, k_top, width)
    # the degenerate roots sit on the shared special points: the search starts
    # from the intervals between the midpoints of consecutive ones, each with
    # a full count and det K, so a root on its point closes in two steps
    seeds = 0.5 * special[shared][:-1] + 0.5 * special[shared][1:]
    # columns are intervals (lo, hi]; the rows hold k, N(k), sign det K and
    # log|det K| at both ends (sign 0 where a full count gave the point)
    points = np.concatenate([[k_lo], seeds, [k_top]])
    counts = sm.count(points)
    n_lo, n_top = counts[0], counts[-1]
    start = np.stack([points, counts, np.zeros(points.size), np.zeros(points.size)])
    if seeds.size:
        start[2:, 1:-1] = sm.parity(seeds)[1:]
    ends = np.stack([start[:, :-1], start[:, 1:]], 1)
    # per column: the width when it last halved, steps since then, end kept by the last split
    halved, stale, kept = ends[0, 1] - ends[0, 0], np.zeros(seeds.size + 1), np.full(seeds.size + 1, -1)
    finals, full_points, sign_points = [], points.size, seeds.size
    while ends.size:
        n_in = ends[1, 1] - ends[1, 0]
        done = (n_in > 0) & (ends[0, 1] - ends[0, 0] <= width)
        finals.append(ends[:2, :, done])
        live = (n_in > 0) & ~done
        ends, halved, stale, kept = ends[..., live], halved[live], stale[live], kept[live]
        (lo, hi), (c_lo, c_hi), signs, logs = ends
        # split beside the only special point p, first on the side that leaves
        # the larger piece without p; a simple root's interval only if p is a
        # border switch and an end is a det-sign point
        first = np.searchsorted(special, lo, side="right")
        p = special[first]
        simple = c_hi - c_lo == 1
        at_p = (np.searchsorted(special, hi) - first == 1) & (~simple | switch[first] & np.any(signs != 0, axis=0))
        left = (lo < p - eps) & ((p - lo >= hi - p) | (hi <= p + eps))
        # N(mid) is N(lo) or N(hi) around a simple root: its parity decides, and
        # mid is the false-position point of det K unless an end has no det,
        # det K keeps its sign (a border switch lies between) or two steps
        # passed without the bracket halving
        regula = simple & ~at_p & (signs[0] * signs[1] < 0) & (stale < 2)
        x = np.clip(lo + (hi - lo) * _logistic(logs[0] - logs[1]), lo + eps, hi - eps)
        mid = np.zeros((4, lo.size))
        mid[0] = np.where(regula, x, 0.5 * lo + 0.5 * hi)
        mid[0, at_p] = np.where(left, p - eps, p + eps)[at_p]
        if not simple.all():
            mid[1, ~simple] = sm.count(mid[0, ~simple])
        if simple.any():
            parity, mid[2, simple], mid[3, simple] = sm.parity(mid[0, simple])
            mid[1, simple] = c_lo[simple] + (parity != c_lo[simple] % 2)
        # det K = 0 puts a point on a root, where its sign tells no parity:
        # the point moves by eps towards the middle, off the root
        hit = simple & (mid[2] == 0)
        if hit.any():
            mid[0, hit] += np.where(mid[0, hit] < (0.5 * lo + 0.5 * hi)[hit], eps, -eps)
            parity, mid[2, hit], mid[3, hit] = sm.parity(mid[0, hit])
            mid[1, hit] = c_lo[hit] + (parity != c_lo[hit] % 2)
        full_points += int(np.sum(~simple))
        sign_points += int(np.sum(simple) + np.sum(hit))
        # Illinois: an end kept by two splits in a row counts at half its |det|
        ends[3] -= math.log(2.0) * (kept == np.arange(2)[:, None])
        ends = np.concatenate([np.stack([ends[:, 0], mid], 1), np.stack([mid, ends[:, 1]], 1)], 2)
        span, halved, stale = ends[0, 1] - ends[0, 0], np.tile(halved, 2), np.tile(stale, 2)
        halves = np.tile(~regula, 2) | (span <= 0.5 * halved)
        halved, stale = np.where(halves, span, halved), np.where(halves, 0, stale + 1)
        kept = np.repeat([0, 1], lo.size)

    # a root split across final intervals that share an end is one root: its
    # multiplicities add up, and it sits at the midpoint of their union
    levels = len(finals) - 1
    (lo, hi), (c_lo, c_hi) = np.concatenate(finals, axis=2)
    order = np.argsort(lo)
    lo, hi, mults = lo[order], hi[order], (c_hi - c_lo)[order].astype(int)
    starts = np.flatnonzero(lo != np.concatenate([[-math.inf], hi[:-1]]))
    roots, mults = 0.5 * lo[starts] + 0.5 * np.maximum.reduceat(hi, starts), np.add.reduceat(mults, starts)
    # the parity cannot see a count that dips inside a simple root's interval,
    # so the full count must step by each multiplicity just beside each root
    gaps = np.diff(np.concatenate([[k_lo], roots, [k_top]]))
    offset = np.minimum(1e-9 * k_max, 0.5 * np.minimum(gaps[:-1], gaps[1:]))
    beside = np.concatenate([roots - offset, roots + offset])
    expected = n_lo + np.concatenate([np.cumsum(mults) - mults, np.cumsum(mults)])
    misses = np.count_nonzero(sm.count(beside) != expected)
    if mults.sum() != n_top - n_lo or misses:
        raise NumericalError(
            f"eigenvalue count is not monotone: multiplicities add up to {mults.sum()}, "
            f"N(k_max) - N(k_lo) = {n_top - n_lo}, and {misses} counts beside the roots disagree"
        )
    if abs(mults.sum() - weyl) > audit_bound:
        raise NumericalError(
            f"Weyl audit failed: found {mults.sum()} eigenvalues vs expected "
            f"~{weyl:.1f} (bound {audit_bound})"
        )

    residuals = sm.residuals(roots, mults)
    bad = np.flatnonzero(~(residuals <= _RESIDUAL_TOL))
    if bad.size:
        raise NumericalError(
            f"secular residual {residuals[bad[0]]:.3e} above tolerance {_RESIDUAL_TOL:.1e} "
            f"at k = {roots[bad[0]]:.12g}"
        )
    eigenvalues = np.repeat(roots, mults)
    diagnostics = dict(count_points=full_points + beside.size, sign_points=sign_points, bisection_levels=levels,
                       form_order=sm.form_orders / sm.points,
                       residual_order=sm.residual_orders / roots.size if roots.size else 0.0,
                       worst_residual=float(residuals.max(initial=0.0)))
    return SpectrumResult(tuple(eigenvalues.tolist()), k_max,
                          tuple(np.repeat(residuals, mults).tolist()), weyl, audit_bound, diagnostics)
