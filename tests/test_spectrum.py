import inspect
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import qgraph as qg
import qgraph.casimir as casimir
import qgraph.spectrum as spectrum
from qgraph import UnsupportedTopologyError


@pytest.mark.parametrize(
    "length,n_max,expected",
    [
        (math.pi, 3, [1.0, 2.0, 3.0]),
        (1.0, 1, [math.pi]),
        (2.0, 2, [math.pi / 2, math.pi]),
    ],
)
def test_dirichlet_eigenvalues(length, n_max, expected):
    assert qg.dirichlet_eigenvalues(length, n_max) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("ltot,k,expected", [(1.0, math.pi, 1.0), (3.0, math.pi, 3.0), (2.0, 0.0, 0.0)])
def test_weyl_count(ltot, k, expected):
    vertices = ((0, qg.DIRICHLET), (1, qg.DIRICHLET))
    g = qg.Graph(vertices, (qg.Bond(0, 1, ltot),))
    assert qg.weyl_count(g, k) == pytest.approx(expected, abs=1e-15)


class TestSecularFunction:
    def test_interval_zeros_at_multiples_of_pi(self, interval_graph):
        for n in (1, 2, 3):
            assert abs(qg.secular_function(interval_graph, n * math.pi)) < 1e-12

    def test_generic_point_is_nonzero(self, interval_graph):
        assert abs(qg.secular_function(interval_graph, math.pi + 0.3)) > 1e-10

    def test_open_graph_rejected(self):
        g = qg.Graph(((0, qg.KIRCHHOFF),), (), (qg.Lead(0),))
        with pytest.raises(UnsupportedTopologyError):
            qg.secular_function(g, 1.0)

    def test_negative_k_gives_the_conjugate_exactly(self):
        # S(-k) D(-k) is the conjugate of S(k) D(k) at real k, entry by entry
        def coupling(rng):
            return (qg.DIRICHLET, qg.KIRCHHOFF, qg.delta(rng.uniform(-2.0, 3.0)))[rng.integers(3)]

        rng = np.random.default_rng(25)
        for _ in range(20):
            n_vertices = int(rng.integers(2, 8))
            n_bonds = int(rng.integers(n_vertices - 1, n_vertices * (n_vertices - 1) // 2 + 1))
            g = _random_graph(rng, n_vertices, n_bonds, coupling, lambda r: r.uniform(0.3, 2.0))
            k = rng.uniform(0.1, 30.0)
            assert qg.secular_function(g, -k) == qg.secular_function(g, k).conjugate()

    @pytest.mark.parametrize("coupling", [qg.DIRICHLET, qg.KIRCHHOFF, qg.delta(0.5), qg.delta(3.0), qg.delta(-1.0)],
                             ids=["dirichlet", "kirchhoff", "delta0.5", "delta3", "delta-1"])
    def test_two_vertex_graph_is_the_cavity_denominator(self, coupling):
        # one bond between equal ends: det(I - S D) = 1 - r^2 e^{2ik ell}, at
        # complex k too
        for ell in (0.3, 1.0, 2.5):
            g = qg.Graph(((0, coupling), (1, coupling)), (qg.Bond(0, 1, ell),))
            for k in (0.7 + 0.2j, 2 - 0.5j, 3j, -1.3, 0.01j, 40 + 1j):
                cavity = qg.cavity_amplitudes(coupling, ell, k).g
                assert abs(qg.secular_function(g, k) - cavity) <= 1e-12 * abs(cavity)


@pytest.mark.parametrize("k_max", [0.0, -1.0, math.nan, math.inf])
def test_find_eigenvalues_rejects_nonpositive_and_nonfinite(interval_graph, k_max):
    with pytest.raises(ValueError, match="k_max"):
        qg.find_eigenvalues(interval_graph, k_max)


def test_find_eigenvalues_takes_no_tolerance(interval_graph):
    # the residual bound is fixed in the module; k_max stays the second
    # positional parameter
    assert list(inspect.signature(qg.find_eigenvalues).parameters) == ["g", "k_max"]
    with pytest.raises(TypeError):
        qg.find_eigenvalues(interval_graph, 10.0, tol=1e-12)


@pytest.mark.parametrize("k_max", [1e300, 1e12])
def test_unbounded_k_max_is_refused_before_any_work(interval_graph, k_max):
    # the special points alone would be about 2 k_max / pi numbers
    import time

    start = time.perf_counter()
    with pytest.raises(qg.InputError, match="cap"):
        qg.find_eigenvalues(interval_graph, k_max)
    assert time.perf_counter() - start < 1.0


_SEARCH_AT_THE_TOP_OF_THE_DOUBLES = """
import sys, warnings
warnings.simplefilter("error")
import qgraph as qg
k_max, leaf, arms = float(sys.argv[1]), getattr(qg, sys.argv[2]), [float(a) for a in sys.argv[3:]]
vertices = ((0, leaf if len(arms) == 1 else qg.KIRCHHOFF),) + tuple((i, leaf) for i in range(1, len(arms) + 1))
g = qg.Graph(vertices, tuple(qg.Bond(0, i, ell) for i, ell in enumerate(arms, 1)))
try:
    res = qg.find_eigenvalues(g, k_max)
except qg.InputError as exc:
    print("refused", exc)
else:
    print("found", res.count, max(res.residuals))
"""


@pytest.mark.parametrize("k_max, leaf, arms, expected", [
    (1e307, "DIRICHLET", [1e-305], "found 31"),
    # 2 i k overflows, and N i k at the centre of the star
    (9e307, "DIRICHLET", [1e-305], "refused"),
    (1.7976931348623157e308, "DIRICHLET", [1e-305], "refused"),
    (1e308, "KIRCHHOFF", [1e-305, 0.7e-305, 1.3e-305], "refused"),
], ids=["interval-1e307", "interval-9e307", "interval-max", "star-1e308"])
def test_k_max_near_the_largest_double_returns_or_is_refused(k_max, leaf, arms, expected):
    # the bisection's midpoint once overflowed here and the search never ended:
    # a fresh interpreter with a timeout, every warning an error
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(qg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _SEARCH_AT_THE_TOP_OF_THE_DOUBLES, repr(k_max), leaf,
                          *map(repr, arms)], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(expected)
    if expected.startswith("found"):
        assert float(run.stdout.split()[2]) <= 1e-10
    else:
        assert "overflows the vertex amplitudes" in run.stdout


class TestFindEigenvalues:
    def test_interval(self, interval_graph):
        res = qg.find_eigenvalues(interval_graph, 10.0)
        assert res.eigenvalues == pytest.approx(
            [math.pi, 2 * math.pi, 3 * math.pi], abs=1e-10
        )

    def test_interval_matches_analytic_to_20pi(self, interval_graph):
        res = qg.find_eigenvalues(interval_graph, 20 * math.pi + 0.1)
        exact = qg.dirichlet_eigenvalues(1.0, 20)
        assert len(res.eigenvalues) == 20
        assert max(abs(a - b) for a, b in zip(res.eigenvalues, exact)) < 1e-10

    def test_three_star_with_degeneracies(self, star3_graph):
        res = qg.find_eigenvalues(star3_graph, 5.0)
        expected = [math.pi / 2, math.pi, math.pi, 3 * math.pi / 2]
        assert res.eigenvalues == pytest.approx(expected, abs=1e-10)

    def test_empty_below_first_eigenvalue(self, interval_graph):
        res = qg.find_eigenvalues(interval_graph, 0.5)
        assert res.eigenvalues == ()

    def test_residuals_within_tolerance(self, star3_graph):
        res = qg.find_eigenvalues(star3_graph, 12.0)
        assert len(res.residuals) == res.count
        assert all(r <= 1e-10 for r in res.residuals)

    def test_transparent_kirchhoff_vertex(self):
        # a two-valent kirchhoff vertex in the middle of a bond is invisible,
        # so the split interval keeps the n pi spectrum
        g = qg.Graph(
            ((0, qg.DIRICHLET), (1, qg.KIRCHHOFF), (2, qg.DIRICHLET)),
            (qg.Bond(0, 1, 0.5), qg.Bond(1, 2, 0.5)),
        )
        res = qg.find_eigenvalues(g, 16.0)
        exact = [n * math.pi for n in range(1, 6)]
        assert res.eigenvalues == pytest.approx(exact, abs=1e-10)

    def test_delta_vertex_against_matching_oracle(self):
        # dirichlet interval [0,1] with a delta vertex at the midpoint:
        # antisymmetric modes at k = 2 n pi, symmetric modes solve
        # tan(k/2) = -2k/gamma (derivative jump matching, solved by bisection)
        gamma = 1.7
        g = qg.Graph(
            ((0, qg.DIRICHLET), (1, qg.delta(gamma)), (2, qg.DIRICHLET)),
            (qg.Bond(0, 1, 0.5), qg.Bond(1, 2, 0.5)),
        )
        res = qg.find_eigenvalues(g, 14.0)
        oracle = [2 * n * math.pi for n in (1, 2)]
        for m in range(3):
            lo = (2 * m + 1) * math.pi + 1e-9
            hi = (2 * m + 2) * math.pi - 1e-9
            oracle.append(brentq(lambda k: math.tan(k / 2) + 2 * k / gamma, lo, hi, xtol=1e-14))
        oracle = sorted(r for r in oracle if r <= 14.0)
        assert res.eigenvalues == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_scaling_maps_eigenvalues(self, star3_graph, c):
        base = qg.find_eigenvalues(star3_graph, 8.0)
        scaled = qg.find_eigenvalues(star3_graph.scaled(c), 8.0 / c)
        assert len(base.eigenvalues) == len(scaled.eigenvalues)
        for k_base, k_scaled in zip(base.eigenvalues, scaled.eigenvalues):
            assert k_scaled == pytest.approx(k_base / c, abs=1e-10)

    def test_weyl_audit_within_bound(self, interval_graph, star3_graph):
        for g in (interval_graph, star3_graph):
            bound = len(g.vertices) + len(g.bonds)
            res = qg.find_eigenvalues(g, 30.0)
            assert res.weyl_bound == bound
            eigs = np.asarray(res.eigenvalues)
            for k in np.linspace(0.5, 30.0, 40):
                count = int(np.sum(eigs <= k))
                assert abs(count - qg.weyl_count(g, k)) <= bound

    def test_open_graph_rejected(self):
        g = qg.Graph(
            ((0, qg.KIRCHHOFF), (1, qg.DIRICHLET)), (qg.Bond(0, 1, 1.0),), (qg.Lead(0),)
        )
        with pytest.raises(UnsupportedTopologyError):
            qg.find_eigenvalues(g, 5.0)

    def test_result_is_sorted_and_counted(self, star3_graph):
        res = qg.find_eigenvalues(star3_graph, 10.0)
        assert list(res.eigenvalues) == sorted(res.eigenvalues)
        assert res.count == len(res.eigenvalues) == len(res.residuals)
        assert res.weyl_expected == pytest.approx(qg.weyl_count(star3_graph, 10.0))


def test_spectrum_independent_of_worker_chunking(star3_graph, monkeypatch):
    # qgraph runs serially; any valid QGRAPH_THREADS value must give the same roots
    results = []
    for workers in ("1", "5"):
        monkeypatch.setenv("QGRAPH_THREADS", workers)
        results.append(qg.find_eigenvalues(star3_graph, 70.0).eigenvalues)
    assert results[0] == results[1]


def _amplitude_matrices(g, ks):
    """Real matching system for psi_b(x) = a_b cos kx + c_b sin kx (x from the
    bond's first vertex) and the values phi_v of the non-Dirichlet vertices.

    Rows: continuity at both ends of every bond, and the derivative condition
    divided by k at every non-Dirichlet vertex.  Its entries have no poles,
    and it is singular for k > 0 exactly at the eigenvalues.
    """
    ks = np.asarray(ks, dtype=float)
    nb = len(g.bonds)
    free = [v for v in g.vertex_ids() if not g.coupling(v).is_dirichlet]
    phi = {v: 2 * nb + i for i, v in enumerate(free)}
    m = np.zeros((len(ks), 2 * nb + len(free), 2 * nb + len(free)))
    for i, b in enumerate(g.bonds):
        a, c = 2 * i, 2 * i + 1
        cos, sin = np.cos(ks * b.length), np.sin(ks * b.length)
        m[:, a, a] = 1.0
        m[:, c, a], m[:, c, c] = cos, sin
        if b.from_vertex in phi:
            m[:, a, phi[b.from_vertex]] = -1.0
            m[:, phi[b.from_vertex], c] += 1.0
        if b.to_vertex in phi:
            m[:, c, phi[b.to_vertex]] = -1.0
            m[:, phi[b.to_vertex], a] += sin
            m[:, phi[b.to_vertex], c] -= cos
    for v in free:
        m[:, phi[v], phi[v]] -= g.coupling(v).gamma / ks
    return m


def _cycle(lengths, couplings):
    n = len(lengths)
    return qg.Graph(
        tuple(enumerate(couplings)),
        tuple(qg.Bond(i, (i + 1) % n, ell) for i, ell in enumerate(lengths)),
    )


@pytest.mark.parametrize(
    "graph,step,expected",
    [
        # the closest roots below k = 100 are 1.2e-3 apart
        (
            _cycle((1.11, 1.23, 1.04, 1.44), [qg.delta(x) for x in (1.31, 0.61, 0.18, 0.13)]),
            3e-4,
            {30.0: 47, 60.0: 93, 100.0: 153},
        ),
        # |gamma / k| up to 1e12 at the bottom of the count
        (_cycle((0.25, 0.5, 1.0), [qg.KIRCHHOFF, qg.delta(-1e6), qg.delta(9.0)]), 1e-4, {10.0: 5}),
        (_cycle((0.25, 0.5, 1.0), [qg.KIRCHHOFF, qg.delta(1e6), qg.delta(9.0)]), 1e-4, {10.0: 5}),
    ],
    ids=["close-pairs-4-cycle", "attractive-1e6", "repulsive-1e6"],
)
def test_roots_match_sign_changes_of_the_amplitude_determinant(graph, step, expected):
    # a sign-change count of the pole-free amplitude determinant at a step
    # below the closest root spacing brackets each root once
    ks = np.arange(1e-3, max(expected), step)
    parts = np.array_split(ks, len(ks) // 25000 + 1)
    dets = np.concatenate([np.linalg.det(_amplitude_matrices(graph, part)) for part in parts])
    brackets = ks[1:][np.signbit(dets[1:]) != np.signbit(dets[:-1])]
    for k_max, count in expected.items():
        eigs = np.array(qg.find_eigenvalues(graph, k_max).eigenvalues)
        oracle = brackets[brackets <= k_max]
        assert len(eigs) == len(oracle) == count
        assert np.all((oracle - step <= eigs) & (eigs <= oracle))


def _neumann_interval(ell):
    return qg.Graph(((0, qg.KIRCHHOFF), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, ell),))


def _equal_star(n_arms, ell=1.0):
    vertices = ((0, qg.KIRCHHOFF),) + tuple((i, qg.DIRICHLET) for i in range(1, n_arms + 1))
    return qg.Graph(vertices, tuple(qg.Bond(0, i, ell) for i in range(1, n_arms + 1)))


@pytest.mark.parametrize(
    "graph,k_max,expected",
    [
        # arms of length 1: n pi with multiplicity 3, (n + 1/2) pi simple
        (_equal_star(4), 10.0, [0.5, 1, 1, 1, 1.5, 2, 2, 2, 2.5, 3, 3, 3]),
        # roots 2 n pi sit on the bond Dirichlet values; the zero mode is excluded
        (_neumann_interval(0.5), 30.0, [2, 4, 6, 8]),
        # Kirchhoff vertices of valency 2 are transparent: a circle of length
        # 2 has the double roots n pi, on the Dirichlet values of all bonds
        (_cycle((1.0, 0.5, 0.5), [qg.KIRCHHOFF] * 3), 10.0, [1, 1, 2, 2, 3, 3]),
    ],
    ids=["equal-4-star", "neumann-interval", "kirchhoff-triangle"],
)
def test_degenerate_roots_and_roots_on_bond_dirichlet_values(graph, k_max, expected):
    res = qg.find_eigenvalues(graph, k_max)
    assert res.eigenvalues == pytest.approx([n * math.pi for n in expected], abs=1e-10)


@pytest.mark.parametrize("gamma", [0.001, -1.0])
def test_delta_interval_roots_near_zero_and_without_bound_state(gamma):
    # delta(gamma) at both ends of [0, 1]: symmetric modes solve
    # k sin(k/2) = gamma cos(k/2), antisymmetric ones k cos(k/2) = -gamma sin(k/2).
    # gamma = 0.001 has a root at k ~ 0.0447; gamma = -1 has a bound state
    # (imaginary k), which is not a positive eigenvalue
    g = qg.Graph(((0, qg.delta(gamma)), (1, qg.delta(gamma))), (qg.Bond(0, 1, 1.0),))
    branches = (
        lambda k: k * np.sin(k / 2) - gamma * np.cos(k / 2),
        lambda k: k * np.cos(k / 2) + gamma * np.sin(k / 2),
    )
    ks = np.arange(1e-4, 10.0, 1e-3)
    oracle = []
    for f in branches:
        values = f(ks)
        for i in np.flatnonzero(np.signbit(values[1:]) != np.signbit(values[:-1])):
            oracle.append(brentq(f, ks[i], ks[i + 1], xtol=1e-15))
    res = qg.find_eigenvalues(g, 10.0)
    assert res.eigenvalues == pytest.approx(sorted(oracle), abs=1e-10)
    assert res.eigenvalues[0] > 1e-3


def test_24_bond_delta_graph_passes_at_default_tol():
    # connected random graph, 13 vertices, delta couplings in [0.5, 3]
    rng = np.random.default_rng(24)
    n_vertices, edges = 13, set()
    for i in range(1, n_vertices):
        edges.add((int(rng.integers(i)), i))
    while len(edges) < 24:
        a, b = sorted(rng.choice(n_vertices, 2, replace=False).tolist())
        edges.add((a, b))
    g = qg.Graph(
        tuple((v, qg.delta(rng.uniform(0.5, 3.0))) for v in range(n_vertices)),
        tuple(qg.Bond(a, b, rng.uniform(0.5, 1.5)) for a, b in sorted(edges)),
    )
    res = qg.find_eigenvalues(g, 30.0)
    assert max(res.residuals) <= 1e-10
    sv = np.linalg.svd(_amplitude_matrices(g, res.eigenvalues), compute_uv=False)
    assert np.max(sv[:, -1] / sv[:, 0]) < 1e-8


@pytest.mark.parametrize(
    "extra,message",
    [
        # a count that dips around the root 3 pi / 2 drops below its left neighbour
        (lambda k: -1 * ((k > 4.6) & (k < 4.8)), "not monotone"),
        # a monotone count that jumps by ten at k = 5 leaves the V + B bound
        (lambda k: 10 * (k > 5.0), "Weyl audit failed"),
    ],
    ids=["non-monotone", "weyl"],
)
def test_inconsistent_count_raises(star3_graph, monkeypatch, extra, message):
    from qgraph.spectrum import _MatchingCount

    exact = _MatchingCount.count
    monkeypatch.setattr(_MatchingCount, "count", lambda self, ks: exact(self, ks) + extra(np.asarray(ks)))
    with pytest.raises(qg.NumericalError, match=message):
        qg.find_eigenvalues(star3_graph, 12.0)


def test_parity_defect_near_a_simple_root_raises(star3_graph, monkeypatch):
    # a det-sign parity that is wrong within 1e-3 of the simple root 3 pi / 2
    # moves the bisection to the edge of that window; the full count beside
    # the root it reports does not step there
    from qgraph.spectrum import _MatchingCount

    exact = _MatchingCount.parity

    def flipped(self, ks):
        parity, sign, logdet = exact(self, ks)
        return parity ^ (np.abs(np.asarray(ks) - 1.5 * math.pi) < 1e-3), sign, logdet

    monkeypatch.setattr(_MatchingCount, "parity", flipped)
    with pytest.raises(qg.NumericalError, match="not monotone"):
        qg.find_eigenvalues(star3_graph, 12.0)


def _random_graph(rng, n_vertices, n_bonds, coupling, length):
    """Connected simple graph: a random spanning tree plus random extra bonds,
    with ``coupling(rng)`` at each vertex and ``length(rng)`` on each bond."""
    edges = {(int(rng.integers(i)), i) for i in range(1, n_vertices)}
    while len(edges) < n_bonds:
        a, b = sorted(rng.choice(n_vertices, 2, replace=False).tolist())
        edges.add((a, b))
    return qg.Graph(
        tuple((v, coupling(rng)) for v in range(n_vertices)),
        tuple(qg.Bond(a, b, length(rng)) for a, b in sorted(edges)),
    )


def _random_delta_graph_24():
    return _random_graph(
        np.random.default_rng(2024), 13, 24,
        lambda rng: qg.delta(rng.uniform(0.5, 3.0)), lambda rng: rng.uniform(0.5, 1.5),
    )


def _star(arms):
    vertices = ((0, qg.KIRCHHOFF),) + tuple((i, qg.DIRICHLET) for i in range(1, len(arms) + 1))
    return qg.Graph(vertices, tuple(qg.Bond(0, i, ell) for i, ell in enumerate(arms, 1)))


@pytest.mark.parametrize(
    "graph, k_max, next_range",
    [
        (_equal_star(3), 20.0, (1e-3, np.inf)),
        (_random_delta_graph_24(), 30.0, (1e-3, np.inf)),
        # one arm 1e-10 longer splits each multiple root n pi into roots about
        # 1e-10 apart, so the next singular value is only about 1e-10
        (_star((1.0, 1.0, 1.0 + 1e-10)), 20.0, (0.0, 1e-8)),
        (_star((1.0, 1.0, 1.0, 1.0 + 1e-10)), 20.0, (0.0, 1e-8)),
    ],
    ids=["3-star", "delta-B24", "3-star-split", "4-star-split"],
)
def test_residual_bounds_the_mth_smallest_singular_value(graph, k_max, next_range):
    # the residual of a root of multiplicity m is ||(I - S D) X||_2 for an
    # orthonormal n x m block X, so it is at least the m-th smallest singular
    # value of I - S D (Courant-Fischer); it must also lie within rounding of
    # it, whether the next singular value is far from zero or, on the split
    # stars, close to it: there a shift as large as 1e-10 would put the
    # bound up to 1.6e-10 above sigma_m and fail the residual bound 1e-10.
    # The 3-star's roots n pi are double
    from qgraph.spectrum import _SecularMatrix

    sm = _SecularMatrix(graph)
    res = qg.find_eigenvalues(graph, k_max)
    assert max(res.residuals) <= 1e-12
    roots, mults = np.unique(res.eigenvalues, return_counts=True)
    sv = np.linalg.svd(np.eye(sm.dim) - sm.matrices(roots), compute_uv=False)[:, ::-1]
    sigma = sv[np.arange(len(roots)), mults - 1]
    residuals = np.array(res.residuals)[np.cumsum(mults) - 1]
    assert np.all(sigma - 1e-15 <= residuals) and np.all(residuals <= sigma + 1e-15)
    assert next_range[0] < np.min(sv[np.arange(len(roots)), mults]) < next_range[1]


def test_residual_above_tol_raises(star3_graph, monkeypatch):
    # the 3-star's residuals are about 1e-16, above a bound of 1e-17
    monkeypatch.setattr(spectrum, "_RESIDUAL_TOL", 1e-17)
    with pytest.raises(qg.NumericalError, match="secular residual"):
        qg.find_eigenvalues(star3_graph, 20.0)


def test_nan_residual_raises(star3_graph, monkeypatch):
    # a NaN residual is not within the bound
    monkeypatch.setattr(spectrum._SecularMatrix, "residuals", lambda self, ks, mults: np.full(len(ks), np.nan))
    with pytest.raises(qg.NumericalError, match="secular residual nan"):
        qg.find_eigenvalues(star3_graph, 20.0)


def test_residual_of_a_moved_root_exceeds_tol(star3_graph):
    # the bound is a real test of the scattering form: 1e-6 off each root of
    # the 3-star, with the root's multiplicity, it is far above 1e-10
    from qgraph.spectrum import _SecularMatrix

    roots, mults = np.unique(qg.find_eigenvalues(star3_graph, 20.0).eigenvalues, return_counts=True)
    sm = _SecularMatrix(star3_graph)
    assert np.all(sm.residuals(roots, mults) <= 1e-10)
    for shift in (-1e-6, 1e-6):
        assert np.all(sm.residuals(roots + shift, mults) > 1e-10)


def test_det_sign_parity_agrees_with_the_full_count():
    from qgraph.spectrum import _MatchingCount

    g = _random_delta_graph_24()
    roots = np.array(qg.find_eigenvalues(g, 30.0).eigenvalues)
    ks = np.random.default_rng(5).uniform(0.01, 30.0, 2000)
    ks = ks[np.min(np.abs(ks[:, None] - roots[None, :]), axis=1) >= 1e-6][:500]
    assert len(ks) == 500
    counter = _MatchingCount(g)
    assert np.array_equal(counter.parity(ks)[0], counter.count(ks) % 2)


def test_diagnostics_repeat_and_count_the_det_sign_points():
    g = _random_delta_graph_24()
    first, second = (qg.find_eigenvalues(g, 30.0) for _ in range(2))
    assert first.diagnostics == second.diagnostics
    assert set(first.diagnostics) == {"count_points", "sign_points", "bisection_levels", "form_order",
                                      "residual_order", "worst_residual"}
    assert first.diagnostics["sign_points"] > first.diagnostics["count_points"]
    # 13 free vertices and 24 bonds: the bordered form has order 37, and the
    # reduced form keeps the border coordinates of a few bonds; so does the
    # residual's Schur system, against 2B = 48 for I - S D.  Both means repeat
    # exactly: 15.6 and 18
    assert 13 <= first.diagnostics["form_order"] <= 13 + 4
    assert 13 <= first.diagnostics["residual_order"] <= 13 + 6 < 2 * 24
    assert first.diagnostics["worst_residual"] == max(first.residuals)


def test_a_det_sign_point_on_a_root_moves_beside_it(monkeypatch):
    # slogdet gives sign 0 at a point exactly on a root, which says nothing of
    # the parity; read as an end without a det value, it used to leave the
    # root's bracket to midpoint bisection
    from qgraph.spectrum import _MatchingCount

    g = _random_delta_graph_24()
    k_max, width = 30.0, 1e-14 * 30.0
    exact = qg.find_eigenvalues(g, k_max)
    roots = np.array(exact.eigenvalues)
    gaps = np.minimum(np.diff(roots, prepend=0.0), np.diff(roots, append=math.inf))
    root = roots[np.flatnonzero(gaps > 0.05)[10]]
    parity, hits = _MatchingCount.parity, []

    def on_root(self, ks):
        par, sign, logdet = parity(self, ks)
        near = np.flatnonzero(np.abs(np.asarray(ks) - root) < 1e-8)
        if near.size and not hits:
            hits.append(near[0])
            sign[near[0]], logdet[near[0]] = 0.0, -math.inf
        return par, sign, logdet

    monkeypatch.setattr(_MatchingCount, "parity", on_root)
    res = qg.find_eigenvalues(g, k_max)
    assert hits
    assert len(res.eigenvalues) == len(roots)
    assert np.max(np.abs(np.subtract(res.eigenvalues, roots))) <= width
    assert res.diagnostics["bisection_levels"] <= exact.diagnostics["bisection_levels"] + 2


def test_false_position_takes_few_det_sign_points_per_root():
    # bisection takes about 39 det-sign points per simple root here
    res = qg.find_eigenvalues(_random_delta_graph_24(), 30.0)
    assert res.diagnostics["sign_points"] <= 12 * len(set(res.eigenvalues))


def test_useless_det_magnitudes_leave_the_roots_and_bound_the_levels(monkeypatch):
    # |det K| scrambled by up to e^40 with its sign kept: the false-position
    # points are arbitrary, the bracket still follows the parity, and the
    # halving safeguard keeps the levels within three times bisection's
    from qgraph.spectrum import _MatchingCount

    g = _random_delta_graph_24()
    k_max, width = 30.0, 1e-14 * 30.0
    exact = qg.find_eigenvalues(g, k_max)
    parity = _MatchingCount.parity

    def scrambled(self, ks):
        par, sign, logdet = parity(self, ks)
        return par, sign, logdet + 40.0 * np.sin(1e3 * np.asarray(ks))

    monkeypatch.setattr(_MatchingCount, "parity", scrambled)
    res = qg.find_eigenvalues(g, k_max)
    assert len(res.eigenvalues) == len(exact.eigenvalues)
    assert np.max(np.abs(np.subtract(res.eigenvalues, exact.eigenvalues))) <= width
    k_lo, k_top = 1e-6 * math.pi / qg.total_length(g), k_max * (1.0 + 1e-12)
    assert res.diagnostics["bisection_levels"] <= 3 * math.ceil(math.log2((k_top - k_lo) / width))


def _dirichlet_kirchhoff_interval(ell):
    return qg.Graph(((0, qg.DIRICHLET), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, ell),))


@pytest.mark.parametrize("ell,k_max", [(1.0, 100.0), (0.37, 200.0)])
def test_dirichlet_kirchhoff_roots_sit_where_the_form_jumps(ell, k_max):
    # the roots (j + 1/2) pi / ell have |tan(k ell / 2)| = 1, where a border
    # coordinate switches and K jumps; false position cannot see across the
    # jump, so each root's interval is split just beside it instead
    expected = (np.arange(int(k_max * ell / math.pi + 0.5)) + 0.5) * math.pi / ell
    res = qg.find_eigenvalues(_dirichlet_kirchhoff_interval(ell), k_max)
    assert res.eigenvalues == pytest.approx(expected.tolist(), abs=1e-12, rel=0)


@pytest.mark.parametrize("end", [qg.DIRICHLET, qg.KIRCHHOFF], ids=["dirichlet", "kirchhoff"])
def test_search_is_scale_free(end):
    # the same interval in other length units, with k_max = 100 / ell, takes
    # the same steps to the same roots; an absolute stopping width of 1e-14
    # failed the residual at ell = 1e6, and np.arange raised at ell = 1e100
    def search(ell):
        return qg.find_eigenvalues(qg.Graph(((0, end), (1, qg.DIRICHLET)), (qg.Bond(0, 1, ell),)), 100.0 / ell)

    base = search(1.0)
    for ell in (1e-300, 1e-5, 1e4, 1e6, 1e100, 1e300):
        res = search(ell)
        assert res.count == base.count
        assert res.diagnostics["bisection_levels"] == base.diagnostics["bisection_levels"]
        assert res.diagnostics["worst_residual"] <= 1e-12
        assert np.multiply(res.eigenvalues, ell) == pytest.approx(base.eigenvalues, rel=1e-13, abs=0)


def test_roots_on_border_switches_take_few_det_sign_points():
    # bisection to the stopping width takes 42 det-sign points per root here
    res = qg.find_eigenvalues(_dirichlet_kirchhoff_interval(1.0), 100.0)
    assert res.diagnostics["sign_points"] <= 3 * len(res.eigenvalues)


def _assert_multiplicities_are_amplitude_nullities(g, k_max):
    eigs = qg.find_eigenvalues(g, k_max).eigenvalues
    roots, mults = np.unique(eigs, return_counts=True)
    sv = np.linalg.svd(_amplitude_matrices(g, roots), compute_uv=False)
    nullity = np.sum(sv < 1e-8 * sv[:, :1], axis=1)
    assert np.array_equal(nullity, mults), g


def test_random_compact_graphs_have_the_amplitude_nullity_as_multiplicity():
    # Dirichlet, Kirchhoff and delta vertices; lengths are multiples of 1/2,
    # or of 1/4 in the second set, in about a third of the graphs, which gives
    # degenerate roots and roots on bond Dirichlet values and border switches.
    # The oracle is the nullity of the pole-free amplitude system, independent
    # of the eigenvalue count.
    def coupling(rng):
        kind = int(rng.integers(3))
        return qg.delta(rng.uniform(-2.0, 3.0)) if kind == 2 else (qg.DIRICHLET, qg.KIRCHHOFF)[kind]

    for seed, unit in ((40, 0.5), (41, 0.25)):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n_vertices = int(rng.integers(2, 7))
            n_bonds = int(rng.integers(n_vertices - 1, n_vertices * (n_vertices - 1) // 2 + 1))
            commensurate = rng.random() < 0.35
            length = (
                (lambda r: unit * int(r.integers(1, round(1.5 / unit) + 1)))
                if commensurate
                else (lambda r: r.uniform(0.3, 2.0))
            )
            _assert_multiplicities_are_amplitude_nullities(
                _random_graph(rng, n_vertices, n_bonds, coupling, length), 12.0
            )


def _sierpinski(level):
    """Sierpinski gasket graph of 3^level smallest triangles on integer corners."""

    def mid(p, q):
        return ((p[0] + q[0]) // 2, (p[1] + q[1]) // 2)

    side = 2**level
    triangles = [((0, 0), (side, 0), (0, side))]
    for _ in range(level):
        triangles = [
            tri
            for a, b, c in triangles
            for tri in ((a, mid(a, b), mid(a, c)), (mid(a, b), b, mid(b, c)), (mid(a, c), mid(b, c), c))
        ]
    edges = {tuple(sorted(e)) for a, b, c in triangles for e in ((a, b), (b, c), (a, c))}
    points = sorted({p for e in edges for p in e})
    return [(points.index(p), points.index(q)) for p, q in sorted(edges)], len(points)


def _von_below_roots(edges, n_vertices, ell, k_max):
    """Eigenvalues in (0, k_max] of an equilateral all-Kirchhoff graph (von Below,
    Linear Algebra Appl. 71, 309 (1985)): off k ell in pi Z, k is a root exactly
    when cos k ell is an eigenvalue of D^-1 A, with its multiplicity; at k ell =
    n pi the multiplicity is B - V + 2, or B - V for odd n on a graph that is not
    bipartite."""
    adjacency = np.zeros((n_vertices, n_vertices))
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = 1.0
    scale = adjacency.sum(axis=1) ** -0.5
    mu = np.linalg.eigvalsh(scale[:, None] * adjacency * scale[None, :])
    bipartite = np.any(np.abs(mu + 1.0) < 1e-9)
    roots = []
    for theta in np.arccos(mu[np.abs(np.abs(mu) - 1.0) >= 1e-9]):
        for n in range(int(k_max * ell / (2 * math.pi)) + 1):
            roots += [2 * n * math.pi + theta, 2 * (n + 1) * math.pi - theta]
    excess = len(edges) - n_vertices
    for n in range(1, int(k_max * ell / math.pi) + 1):
        roots += [n * math.pi] * (excess + 2 if n % 2 == 0 or bipartite else excess)
    roots = np.sort(roots) / ell
    return roots[roots <= k_max]


@pytest.mark.parametrize(
    "edges, n_vertices",
    [
        _sierpinski(1),
        _sierpinski(2),
        ([(0, 1), (1, 2), (2, 3), (0, 3)], 4),
        ([(a, b) for a in range(4) for b in range(a + 1, 4)], 4),
    ],
    ids=["sierpinski-1", "sierpinski-2", "4-cycle", "K4"],
)
def test_equilateral_kirchhoff_graphs_match_von_below(edges, n_vertices):
    # the oracle shares nothing with the solver's eigenvalue count
    ell, k_max = 0.7, 20.0
    g = qg.Graph(
        tuple((v, qg.KIRCHHOFF) for v in range(n_vertices)),
        tuple(qg.Bond(a, b, ell) for a, b in edges),
    )
    expected = _von_below_roots(edges, n_vertices, ell, k_max)
    eigs = np.array(qg.find_eigenvalues(g, k_max).eigenvalues)
    assert len(eigs) == len(expected)
    assert np.max(np.abs(eigs - expected)) <= 1e-12


@pytest.mark.parametrize(
    "edges, n_vertices, k_max",
    [
        (*_sierpinski(1), 30.0),
        ([(a, b) for a in range(5) for b in range(a + 1, 5)], 5, 24.0),
        ([(a, b) for a in range(4) for b in range(a + 1, 4)], 4, 36.0),
    ],
    ids=["sierpinski-1", "K5", "K4"],
)
def test_a_degenerate_root_comes_back_as_one_root(edges, n_vertices, k_max):
    # final intervals that share an end hold one root; taken apart, pi came
    # back as 1 + 2, 5 pi as 1 + 4 and 6.608 pi as 2 + 1, about 1e-13 apart
    g = qg.Graph(tuple((v, qg.KIRCHHOFF) for v in range(n_vertices)), tuple(qg.Bond(a, b, 1.0) for a, b in edges))
    _assert_multiplicities_are_amplitude_nullities(g, k_max)


def _unseeded(g, k_max):
    """``find_eigenvalues`` with no shared special point, so with no seed:
    the search starts from (k_lo, k_top]."""
    special_points = spectrum._special_points

    def unshared(*args):
        special, switch, shared = special_points(*args)
        return special, switch, np.zeros_like(shared)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_special_points", unshared)
        return qg.find_eigenvalues(g, k_max)


@pytest.mark.parametrize("n_arms", [3, 4])
def test_equal_star_roots_on_special_points_take_few_points(n_arms):
    # at star-modesum's cutoff the roots n pi / ell (multiplicity N - 1) sit on
    # the bond Dirichlet values and (n + 1/2) pi / ell on the border switches;
    # bisection to the stopping width takes 47 levels and about 40 points per
    # root, and the search from (k_lo, k_top] without the seed 13 levels
    ell = 0.6
    k_max = casimir._CUTOFF_MARGIN / (casimir._TAU_WINDOW[-1] * 2 * ell)
    star = _equal_star(n_arms, ell)
    res = qg.find_eigenvalues(star, k_max)
    top = k_max * ell / math.pi
    n, half = np.arange(1, int(top) + 1), np.arange(int(top + 0.5)) + 0.5
    expected = np.sort(np.concatenate([np.repeat(n, n_arms - 1), half])) * math.pi / ell
    assert res.eigenvalues == pytest.approx(expected.tolist(), rel=1e-12, abs=0)
    points = res.diagnostics["count_points"] + res.diagnostics["sign_points"]
    assert points <= 8 * len(set(res.eigenvalues))
    assert res.diagnostics["bisection_levels"] <= 3
    unseeded = _unseeded(star, k_max)
    assert unseeded.diagnostics["bisection_levels"] > 3
    assert np.array_equal(np.unique(res.eigenvalues, return_counts=True)[1],
                          np.unique(unseeded.eigenvalues, return_counts=True)[1])
    assert np.max(np.abs(np.subtract(res.eigenvalues, unseeded.eigenvalues))) <= 1e-14 * k_max
    target = -(2 * n_arms - 3) * math.pi / (48 * ell)
    assert abs(qg.casimir_mode_sum(star).energy - target) <= 1e-9 * abs(target)


def test_graph_without_repeated_lengths_takes_no_seed():
    g = _random_delta_graph_24()
    assert len(set(b.length for b in g.bonds)) == len(g.bonds)
    res, unseeded = qg.find_eigenvalues(g, 30.0), _unseeded(g, 30.0)
    assert np.array(res.eigenvalues).tobytes() == np.array(unseeded.eigenvalues).tobytes()
    assert np.array(res.residuals).tobytes() == np.array(unseeded.residuals).tobytes()
    assert res.diagnostics == unseeded.diagnostics


def test_seeded_random_graphs_keep_the_unseeded_roots():
    # lengths from a small set, so that most graphs share some and the seed
    # starts their search; Dirichlet, Kirchhoff and delta vertices of both signs
    def coupling(rng):
        kind = int(rng.integers(3))
        if kind == 2:
            return qg.delta(float(rng.choice([-2.0, -0.5, 0.3, 1.0, 5.0])))
        return (qg.DIRICHLET, qg.KIRCHHOFF)[kind]

    rng, k_max, seeded = np.random.default_rng(26), 12.0, 0
    for _ in range(120):
        n_vertices = int(rng.integers(2, 8))
        n_bonds = int(rng.integers(n_vertices - 1, n_vertices * (n_vertices - 1) // 2 + 1))
        g = _random_graph(rng, n_vertices, n_bonds, coupling, lambda r: float(r.choice([0.5, 0.7, 1.0, 1.3])))
        res, unseeded = qg.find_eigenvalues(g, k_max), _unseeded(g, k_max)
        seeded += res.diagnostics != unseeded.diagnostics
        assert res.count == unseeded.count, g
        assert np.array_equal(np.unique(res.eigenvalues, return_counts=True)[1],
                              np.unique(unseeded.eigenvalues, return_counts=True)[1]), g
        assert np.max(np.abs(np.subtract(res.eigenvalues, unseeded.eigenvalues)), initial=0.0) <= 1e-14 * k_max, g
    assert seeded >= 60


@pytest.mark.parametrize("graph, k_max", [
    (_equal_star(3), 60.0),
    (_random_delta_graph_24(), 30.0),
    (qg.Graph(tuple((v, qg.KIRCHHOFF) for v in range(_sierpinski(2)[1])),
              tuple(qg.Bond(a, b, 1.0) for a, b in _sierpinski(2)[0])), 20.0),
], ids=["star3", "delta-24", "gasket-2"])
def test_count_chunks_leave_every_bit(graph, k_max, monkeypatch):
    # a budget of 2 KiB holds one form of the gasket (order 15 or more) and
    # 16 of the star's (order 4 or less), so the batches are split; each form
    # keeps the batch's order.  The same budget puts each root's residual
    # systems in a chunk of their own
    res = qg.find_eigenvalues(graph, k_max)
    monkeypatch.setattr(spectrum, "_CHUNK_BYTES", 2048)
    chunked = qg.find_eigenvalues(graph, k_max)
    assert np.array(res.eigenvalues).tobytes() == np.array(chunked.eigenvalues).tobytes()
    assert np.array(res.residuals).tobytes() == np.array(chunked.residuals).tobytes()
    assert res.diagnostics == chunked.diagnostics


def _delta_triangle(gamma):
    return qg.Graph(tuple((v, qg.delta(gamma)) for v in range(3)),
                    (qg.Bond(0, 1, 1.0), qg.Bond(1, 2, 0.7), qg.Bond(0, 2, 1.3)))


def _random_strong_delta_graph():
    # |gamma| log-uniform from 1e-3 to 1e3, both signs
    return _random_graph(
        np.random.default_rng(11), 8, 14,
        lambda rng: qg.delta(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)),
        lambda rng: rng.uniform(0.3, 2.0),
    )


@pytest.mark.parametrize(
    "graph, k_max",
    [
        (_random_delta_graph_24(), 30.0),
        (_random_strong_delta_graph(), 30.0),
        (_equal_star(3, 0.6), 60.0),
        (_equal_star(4, 0.6), 60.0),
        (_dirichlet_kirchhoff_interval(1.0), 100.0),
        (_delta_triangle(1e6), 30.0),
        (_delta_triangle(-1e6), 30.0),
    ],
    ids=["delta-24", "delta-strong", "star3", "star4", "dirichlet-kirchhoff", "delta-triangle+1e6",
         "delta-triangle-1e6"],
)
def test_reduced_form_matches_the_bordered_form(graph, k_max, monkeypatch):
    # a pivot above 1 eliminates no border coordinate, which gives the
    # bordered form; the points are 2,000 random k, p -+ eps beside every
    # special point p, where the reduced form keeps the small border diagonals,
    # and the worst-conditioned eliminations: k l_b = n pi -+ 2 atan(f _PIVOT)
    # with f in (1, 3], where bond b's border diagonal d_b = f _PIVOT in
    # modulus sits just outside the threshold and adds -1/d_b to the form
    from qgraph import spectrum

    counter = spectrum._MatchingCount(graph)
    eps = 0.25e-14 * k_max
    special = spectrum._special_points(counter.lengths, k_max, 4 * eps)[0][:-1]
    rng, edge = np.random.default_rng(8), []
    for ell in counter.lengths:
        n = np.arange(int(k_max * ell / math.pi) + 1)
        kl = n * math.pi + np.array([[-2.0], [2.0]]) * np.arctan((3.0 - 2.0 * rng.random((2, n.size))) * spectrum._PIVOT)
        edge.append(kl[(kl > 0.0) & (kl <= k_max * ell)] / ell)
    ks = np.concatenate([np.random.default_rng(7).uniform(1e-3, k_max, 2000), special - eps, special + eps, *edge])
    roots = np.array(qg.find_eigenvalues(graph, k_max).eigenvalues)
    reduced = counter.count(ks), *counter.parity(ks)
    monkeypatch.setattr(spectrum, "_PIVOT", 2.0)
    bordered = counter.count(ks), *counter.parity(ks)
    for new, old in zip(reduced[:3], bordered[:3]):
        assert np.array_equal(new, old)
    # within 1e-9 of a root log|det K| is rounding in either form
    off = np.min(np.abs(ks[:, None] - roots[None, :]), axis=1, initial=math.inf) > 1e-9
    assert np.sum(off) >= 2000
    assert reduced[3][off] == pytest.approx(bordered[3][off], rel=1e-9)


def _sparse_vertex_block(counter, ks):
    """The vertex block of the count's form, built by a scipy.sparse map from
    the bond coefficients of s s^T and a a^T to the flattened block, and the
    same block of the terms' moduli: the reference of ``_MatchingCount._form``."""
    from scipy import sparse

    from qgraph import spectrum

    v, n_bonds = counter._free.size, len(counter.lengths)
    first, second = counter._ends[:, [0, 0, 1, 1]], counter._ends[:, [0, 1, 0, 1]]
    bond, pair = np.nonzero((first < v) & (second < v))
    values = np.concatenate([np.full(len(bond), 0.5), np.array([0.5, -0.5, -0.5, 0.5])[pair]])
    at = (np.tile(first[bond, pair] * v + second[bond, pair], 2), np.concatenate([bond, n_bonds + bond]))
    patterns = sparse.csr_array((values, at), shape=(v * v, 2 * n_bonds))
    t = np.tan(0.5 * np.outer(ks, counter.lengths))
    steep = np.abs(t) >= 1.0
    d = np.where(steep, -1.0 / t, t)
    out = np.abs(d) >= spectrum._PIVOT
    schur = np.where(out, -1.0, 0.0) / np.where(out, d, 1.0)
    coef = np.hstack([np.where(steep, schur, d), np.where(steep, d, schur)])
    gk = np.outer(1.0 / ks, counter._gamma[counter._free])
    w = np.maximum(1.0, np.abs(gk)) ** -0.5
    block = (patterns @ coef.T).T.reshape(len(ks), v, v) * w[:, :, None] * w[:, None, :]
    block[:, np.arange(v), np.arange(v)] += np.clip(-gk, -1.0, 1.0)
    scale = (abs(patterns) @ np.abs(coef).T).T.reshape(len(ks), v, v) * w[:, :, None] * w[:, None, :]
    scale[:, np.arange(v), np.arange(v)] += np.abs(np.clip(-gk, -1.0, 1.0))
    return block, scale


@pytest.mark.parametrize(
    "graph, k_max",
    [
        (_random_delta_graph_24(), 30.0),
        (_random_strong_delta_graph(), 30.0),
        (_equal_star(3, 0.6), 60.0),
        (_equal_star(4, 0.6), 60.0),
        (_dirichlet_kirchhoff_interval(1.0), 100.0),
        (_delta_triangle(1e6), 30.0),
        (_delta_triangle(-1e6), 30.0),
    ],
    ids=["delta-24", "delta-strong", "star3", "star4", "dirichlet-kirchhoff", "delta-triangle+1e6",
         "delta-triangle-1e6"],
)
def test_vertex_block_matches_the_sparse_pattern_map(graph, k_max):
    from qgraph import spectrum

    counter = spectrum._MatchingCount(graph)
    eps = 0.25e-14 * k_max
    special = spectrum._special_points(counter.lengths, k_max, 4 * eps)[0][:-1]
    ks = np.concatenate([np.random.default_rng(7).uniform(1e-3, k_max, 2000), special - eps, special + eps])
    v = counter._free.size
    block = np.concatenate(list(counter._form(ks)[3]))[:, :v, :v]
    reference, scale = _sparse_vertex_block(counter, ks)
    # the two add a cell's terms in different orders, so they agree relative
    # to the sum of the terms' moduli, not to a sum the terms cancel in (on
    # the equal stars the centre's diagonal nearly vanishes at |tan| = 1)
    assert np.all(np.abs(block - reference) <= 1e-15 * scale)
    assert np.array_equal(block, np.swapaxes(block, 1, 2))


def test_false_position_logistic_matches_expit():
    from scipy.special import expit

    from qgraph.spectrum import _logistic

    x = np.concatenate([np.linspace(-1e3, 1e3, 2_000_001), np.random.default_rng(3).uniform(-1e3, 1e3, 10**6),
                        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324]])
    # within two ulps: numpy's exp and the C library's, which expit uses,
    # differ by one ulp at about 3% of the points; below x = -708 the values
    # are subnormal, and expit flushes them to 0 below -709.78, where its
    # exp(-x) overflows
    np.testing.assert_allclose(_logistic(x), expit(x), rtol=2.0**-51, atol=np.finfo(float).tiny)
    assert np.array_equal(_logistic(np.array([-np.inf, np.inf])), [0.0, 1.0])


def test_residual_memory_is_capped_by_the_chunk_budget(monkeypatch):
    # level-3 gasket: 42 vertices, 81 unit Kirchhoff bonds, complex 162 x 162
    # matrices of 420 kB; a budget of three matrices splits its roots into
    # many chunks, and a root's bound does not depend on its chunk.  Beside
    # the stack, the n x m blocks of roots of multiplicity up to 41 and their
    # QR take up to about the same again; all 76 roots at once take 32 MB
    import tracemalloc

    from qgraph import spectrum

    edges, n_vertices = _sierpinski(3)
    assert (n_vertices, len(edges)) == (42, 81)
    g = qg.Graph(tuple((v, qg.KIRCHHOFF) for v in range(n_vertices)), tuple(qg.Bond(a, b, 1.0) for a, b in edges))
    res = qg.find_eigenvalues(g, 20.0)
    roots, mults = np.unique(res.eigenvalues, return_counts=True)
    sm = spectrum._SecularMatrix(g)
    budget = 3 * 16 * sm.dim**2
    assert len(roots) == 76
    monkeypatch.setattr(spectrum, "_CHUNK_BYTES", budget)
    tracemalloc.start()
    try:
        residuals = sm.residuals(roots, mults)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.repeat(residuals, mults).tobytes() == np.array(res.residuals).tobytes()
    assert peak <= 3 * budget


def _gasket(level):
    edges, n_vertices = _sierpinski(level)
    return qg.Graph(tuple((v, qg.KIRCHHOFF) for v in range(n_vertices)), tuple(qg.Bond(a, b, 1.0) for a, b in edges))


def _commensurate_graph(seed):
    """Random compact graph of 2-6 vertices, Dirichlet, Kirchhoff, attractive
    delta (gamma in [-2, 0)) and strong delta (|gamma| from 10 to 1e3, both
    signs) vertices, lengths from {0.5, 1, 1.5}: many roots put several bonds
    near k l in pi Z at once."""
    def coupling(rng):
        kind = int(rng.integers(4))
        if kind == 2:
            return qg.delta(float(rng.uniform(-2.0, -0.1)))
        if kind == 3:
            return qg.delta(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(1.0, 3.0)))
        return (qg.DIRICHLET, qg.KIRCHHOFF)[kind]

    rng = np.random.default_rng(seed)
    n_vertices = int(rng.integers(2, 7))
    n_bonds = int(rng.integers(n_vertices - 1, n_vertices * (n_vertices - 1) // 2 + 1))
    return _random_graph(rng, n_vertices, n_bonds, coupling, lambda r: float(r.choice([0.5, 1.0, 1.5])))


def _bound_gap(graph, k_max):
    """The residuals of ``find_eigenvalues`` at its distinct roots, the m-th
    smallest singular values of the dense I - S D there, and the roots."""
    from qgraph.spectrum import _SecularMatrix

    res = qg.find_eigenvalues(graph, k_max)
    roots, mults = np.unique(res.eigenvalues, return_counts=True)
    sm = _SecularMatrix(graph)
    sv = np.linalg.svd(np.eye(sm.dim) - sm.matrices(roots), compute_uv=False)[:, ::-1]
    return np.array(res.residuals)[np.cumsum(mults) - 1], sv[np.arange(len(roots)), mults - 1], roots, mults


_TIGHT_GRAPHS = [pytest.param(_commensurate_graph(seed), 12.0, id=f"mixed-{seed}") for seed in range(8)]
_TIGHT_GRAPHS.append(pytest.param(_gasket(2), 20.0, id="gasket-2"))


@pytest.mark.parametrize("graph, k_max", _TIGHT_GRAPHS)
def test_schur_residual_meets_the_dense_singular_value(graph, k_max):
    # the residual solves through the vertex-sized Schur system, where the
    # bonds near k l in pi Z keep a border unknown (on the gasket's roots
    # k = n pi, every bond): the bound must still lie within rounding of the
    # m-th smallest singular value of the dense 2B x 2B I - S D
    residuals, sigma, roots, _ = _bound_gap(graph, k_max)
    assert len(roots) >= 3
    assert np.all(np.abs(residuals - sigma) <= 1e-15)


@pytest.mark.parametrize("graph, k_max", _TIGHT_GRAPHS)
def test_border_for_every_bond_leaves_the_residuals(graph, k_max, monkeypatch):
    # a pivot above sqrt(2), the largest modulus a bond's smaller mode can
    # have, gives every bond its border unknown: the system of order
    # V_free + B, and the same residuals to rounding
    from qgraph.spectrum import _SecularMatrix

    residuals, sigma, roots, mults = _bound_gap(graph, k_max)
    monkeypatch.setattr(spectrum, "_RESIDUAL_PIVOT", 2.0)
    sm = _SecularMatrix(graph)
    bordered = sm.residuals(roots, mults)
    free = sum(not c.is_dirichlet for _, c in graph.vertices)
    assert sm.residual_orders == len(roots) * (free + len(graph.bonds))
    assert np.all(np.abs(bordered - residuals) <= 1e-15)


def test_without_borders_the_gasket_residual_misses(monkeypatch):
    # the other extreme: a pivot of 0 eliminates every bond mode, also the
    # ones of modulus c = 1e-13 on the gasket's roots n pi, and the bound
    # leaves sigma_m, or the elimination breaks down
    from qgraph.spectrum import _SecularMatrix

    graph = _gasket(2)
    _, sigma, roots, mults = _bound_gap(graph, 20.0)
    monkeypatch.setattr(spectrum, "_RESIDUAL_PIVOT", 0.0)
    with np.errstate(all="ignore"):
        try:
            eliminated = _SecularMatrix(graph).residuals(roots, mults)
        except np.linalg.LinAlgError:
            return
    assert not np.all(np.abs(eliminated - sigma) <= 1e-10)


def test_graph_above_the_order_cap_is_refused_before_allocation(monkeypatch):
    # a Kirchhoff path of 2,048 bonds has V_free + B = 4,097; the refusal comes
    # before the secular matrix or the count is built
    import tracemalloc

    n_bonds = 2048
    path = qg.Graph(tuple((v, qg.KIRCHHOFF) for v in range(n_bonds + 1)),
                    tuple(qg.Bond(v, v + 1, 1.0) for v in range(n_bonds)))
    built = []
    for name in ("_SecularMatrix", "_MatchingCount"):
        monkeypatch.setattr(spectrum, name, lambda g, name=name: built.append(name))
    tracemalloc.start()
    try:
        with pytest.raises(qg.InputError, match="4097 exceeds 4096"):
            qg.find_eigenvalues(path, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [] and peak <= 64 * 1024


def test_gaskets_up_to_level_six_are_accepted(monkeypatch):
    # level 6 has 1,095 vertices and 2,187 bonds: V_free + B = 3,282, under
    # the cap (level 7 has 9,843); the search reaches the secular matrix, here
    # a stub
    class Reached(Exception):
        pass

    def reached(g):
        raise Reached

    monkeypatch.setattr(spectrum, "_SecularMatrix", reached)
    with pytest.raises(Reached):
        qg.find_eigenvalues(_gasket(6), 1.0)


def test_find_eigenvalues_builds_the_vertex_block_once(monkeypatch):
    # the count and the residual's Schur systems read one vertex block: the
    # search builds one object per graph, and it holds the block once
    init, built = spectrum._MatchingCount.__init__, []

    def counted(self, g):
        built.append(type(self))
        init(self, g)

    monkeypatch.setattr(spectrum._MatchingCount, "__init__", counted)
    qg.find_eigenvalues(_random_delta_graph_24(), 30.0)
    assert built == [spectrum._SecularMatrix]


def _kirchhoff_delta_graph(seed):
    """Random compact graph of 3-6 vertices, each Kirchhoff or delta with
    gamma in [-2, 3], lengths from 0.3 to 2: every bond has two free ends."""
    def coupling(rng):
        return qg.KIRCHHOFF if rng.random() < 0.3 else qg.delta(float(rng.uniform(-2.0, 3.0)))

    rng = np.random.default_rng(seed)
    n_vertices = int(rng.integers(3, 7))
    n_bonds = int(rng.integers(n_vertices - 1, n_vertices * (n_vertices - 1) // 2 + 1))
    return _random_graph(rng, n_vertices, n_bonds, coupling, lambda r: float(r.uniform(0.3, 2.0)))


@pytest.mark.parametrize("seed", range(20))
def test_a_defect_in_the_shared_block_raises_the_residual(seed, monkeypatch):
    # the residual's Schur systems come from the builder that the count's
    # forms come from, but the bound reads only the directed-bond arrays: with
    # the inner-pair entries of the complex systems alone scaled by 1.001, the
    # count still finds the roots and every graph fails on its residuals
    graph = _kirchhoff_delta_graph(seed)
    exact = qg.find_eigenvalues(graph, 10.0)
    assert exact.count >= 3
    bordered = spectrum._MatchingCount._bordered

    def scaled(self, size, diag, upper, lower, *border):
        if np.iscomplexobj(diag):
            upper, lower = 1.001 * upper, 1.001 * lower
        return bordered(self, size, diag, upper, lower, *border)

    monkeypatch.setattr(spectrum._MatchingCount, "_bordered", scaled)
    with pytest.raises(qg.NumericalError, match="secular residual"):
        qg.find_eigenvalues(graph, 10.0)


def _winding_count(g, k_a, k_b):
    """The number of roots in (k_a, k_b] from the eigenphase winding of
    U = S D (Kottos & Smilansky, Ann. Phys. 274, 76 (1999)), which shares
    nothing with the count's vertex form: at real k each eigenphase theta_j
    of U moves forward and passes 0 exactly at a root, and the continuous
    phase of det U is Phi(k) = 2 k L + B pi + sum_v phi_v, phi_v = N_v pi at
    a Dirichlet vertex, (N_v + 1) pi at a Kirchhoff or delta(0) one and
    N_v pi + 2 arctan(N_v k / gamma_v) at a delta vertex with gamma != 0.
    So the roots are [Phi(k_b) - Phi(k_a) - sum theta_j(k_b) + sum theta_j(k_a)] / 2 pi,
    theta_j in [0, 2 pi); also the distance of that bracket from an integer."""
    phases = []
    for k in (k_a, k_b):
        phi = 2.0 * k * qg.total_length(g) + len(g.bonds) * math.pi
        for vid, c in g.vertices:
            n = g.valency(vid)
            phi += n * math.pi + (0.0 if c.is_dirichlet else math.pi if c.gamma == 0.0
                                  else 2.0 * math.atan(n * k / c.gamma))
        phases.append(phi)
    u = spectrum._SecularMatrix(g).matrices(np.array([k_a, k_b]))
    theta = np.mod(np.angle(np.linalg.eigvals(u)), 2.0 * math.pi).sum(axis=1)
    bracket = (phases[1] - phases[0] - theta[1] + theta[0]) / (2.0 * math.pi)
    return round(bracket), abs(bracket - round(bracket))


def _found_in(g, k_a, k_b):
    return sum(k > k_a for k in qg.find_eigenvalues(g, k_b).eigenvalues)


def _mixed_graph(seed):
    """Random compact graph of 2-6 vertices, each Dirichlet, Kirchhoff or
    delta with gamma in [-3, 3], lengths from 0.3 to 2."""
    def coupling(rng):
        kind = int(rng.integers(3))
        return qg.delta(float(rng.uniform(-3.0, 3.0))) if kind == 2 else (qg.DIRICHLET, qg.KIRCHHOFF)[kind]

    rng = np.random.default_rng(seed)
    n_vertices = int(rng.integers(2, 7))
    n_bonds = int(rng.integers(n_vertices - 1, n_vertices * (n_vertices - 1) // 2 + 1))
    return _random_graph(rng, n_vertices, n_bonds, coupling, lambda r: float(r.uniform(0.3, 2.0)))


def test_winding_count_equals_the_found_count_on_random_graphs():
    # 120 graphs with attractive and repulsive deltas, 3 to 160 roots each
    worst, misses = 0.0, []
    for seed in range(120):
        g = _mixed_graph(seed)
        (winding, distance), found = _winding_count(g, 0.37, 25.0), _found_in(g, 0.37, 25.0)
        worst = max(worst, distance)
        if winding != found:
            misses.append((seed, winding, found))
    assert misses == [] and worst <= 1e-9


@pytest.mark.parametrize("graph, k_a, k_b, expected", [
    (_equal_star(3), 0.37, 25.0, 22),
    (_equal_star(4), 0.37, 25.0, 29),
    (_gasket(1), 0.31, 19.9, 54),
    (_gasket(2), 0.31, 19.9, 164),
    (_gasket(3), 0.31, 19.9, 492),
], ids=["3-star", "4-star", "gasket-1", "gasket-2", "gasket-3"])
def test_winding_count_equals_the_found_count_on_degenerate_roots(graph, k_a, k_b, expected):
    # every root of an equal star, and most of a gasket's, is multiple
    winding, distance = _winding_count(graph, k_a, k_b)
    assert winding == _found_in(graph, k_a, k_b) == expected and distance <= 1e-9


def test_winding_count_sees_a_root_that_the_count_drops(monkeypatch):
    # a count whose offset drops by one above a root loses that root: the
    # count span, the counts beside the roots, the Weyl audit and the
    # residuals all still pass, and only the winding count tells
    g = _mixed_graph(1)
    exact = qg.find_eigenvalues(g, 25.0)
    dropped_root = exact.eigenvalues[exact.count // 2]
    winding = _winding_count(g, 0.37, 25.0)[0]
    assert winding == sum(k > 0.37 for k in exact.eigenvalues) == 41
    form = spectrum._MatchingCount._form

    def dropped(self, ks):
        offset, *rest = form(self, ks)
        return (offset - (np.asarray(ks) > dropped_root), *rest)

    monkeypatch.setattr(spectrum._MatchingCount, "_form", dropped)
    assert _found_in(g, 0.37, 25.0) == winding - 1


@pytest.mark.parametrize("budget", [8 * 2**20, 2**20], ids=["8MiB", "1MiB"])
def test_count_memory_is_bounded_by_the_chunk_budget(budget, monkeypatch):
    # gasket level 3 at k_max = 20: 494 roots, count forms of order up to
    # V_free + B = 123; the whole search, residuals included, peaked at 16.4
    # and 2.3 MiB at these budgets, with the same bits
    import tracemalloc

    g = _gasket(3)
    exact = qg.find_eigenvalues(g, 20.0)
    monkeypatch.setattr(spectrum, "_CHUNK_BYTES", budget)
    tracemalloc.start()
    try:
        res = qg.find_eigenvalues(g, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array(res.eigenvalues + res.residuals).tobytes() == \
        np.array(exact.eigenvalues + exact.residuals).tobytes()
    assert peak <= 2.5 * budget + 2**20


@pytest.mark.parametrize("refused, graph, k, message", [
    # a ring of 2,049 bonds: a 4,098 x 4,098 secular matrix
    (qg.secular_function, lambda: _cycle([1.0] * 2049, [qg.KIRCHHOFF] * 2049), 1.0, "4098 exceeds 4096"),
    # gasket level 5 (V_free + B = 1,095) has about 2.3e8 roots below 1e6
    (qg.find_eigenvalues, lambda: _gasket(5), 1e6, "above the cap"),
    # N i k overflows at the centre of 1,000 arms, which hold about 3,200 roots
    (qg.find_eigenvalues, lambda: _equal_star(1000, 1e-305), 1e306, "overflows the vertex amplitudes"),
], ids=["secular-function-order", "root-cap", "amplitude-overflow"])
def test_refusals_come_before_the_secular_matrix(refused, graph, k, message):
    # the secular matrix of each graph would take megabytes: its incidence,
    # its scattering pairs; the refusal reads the graph alone
    import tracemalloc

    g = graph()
    tracemalloc.start()
    try:
        with pytest.raises(qg.InputError, match=message):
            refused(g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024
