import math

import numpy as np
import pytest
from scipy.optimize import brentq

import qgraph as qg
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

    def test_nonpositive_k_rejected(self, interval_graph):
        with pytest.raises(ValueError):
            qg.secular_function(interval_graph, -1.0)


@pytest.mark.parametrize(
    "k_max, tol", [(0.0, 1e-10), (math.nan, 1e-10), (math.inf, 1e-10), (10.0, 0.0), (10.0, math.nan)]
)
def test_find_eigenvalues_rejects_nonpositive_and_nonfinite(interval_graph, k_max, tol):
    with pytest.raises(ValueError, match="k_max" if tol == 1e-10 else "tol"):
        qg.find_eigenvalues(interval_graph, k_max, tol)


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
        tol = 1e-10
        res = qg.find_eigenvalues(star3_graph, 12.0, tol)
        assert all(r <= tol for r in res.residuals)

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


def test_residual_is_the_mth_smallest_singular_value(star3_graph):
    # the 3-star's roots n pi are double: the residual of a root of
    # multiplicity m is the m-th smallest singular value of I - S D, and the
    # next one is far from zero
    from qgraph.spectrum import _SecularMatrix

    sm = _SecularMatrix(star3_graph)
    res = qg.find_eigenvalues(star3_graph, 20.0)
    for k, residual in zip(res.eigenvalues, res.residuals):
        m = res.eigenvalues.count(k)
        i_minus_sd = np.eye(sm.dim) - sm.matrices(np.array([k]))[0]
        sv = np.linalg.svd(i_minus_sd, compute_uv=False)[::-1]
        assert residual == sv[m - 1]
        assert sv[m] > 1e-3


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
        m[:, phi[v], phi[v]] -= g.coupling(v).effective_gamma() / ks
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


def _equal_star(n_arms):
    vertices = ((0, qg.KIRCHHOFF),) + tuple((i, qg.DIRICHLET) for i in range(1, n_arms + 1))
    return qg.Graph(vertices, tuple(qg.Bond(0, i, 1.0) for i in range(1, n_arms + 1)))


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
    assert set(first.diagnostics) == {"count_points", "sign_points", "bisection_levels", "worst_residual"}
    assert first.diagnostics["sign_points"] > first.diagnostics["count_points"]
    assert first.diagnostics["worst_residual"] == max(first.residuals)


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
    k_lo, k_top = 1e-6 * math.pi / qg.total_length(g), k_max * (1.0 + 1e-12) + 1e-12
    assert res.diagnostics["bisection_levels"] <= 3 * math.ceil(math.log2((k_top - k_lo) / width))


@pytest.mark.parametrize("ell,k_max", [(1.0, 100.0), (0.37, 200.0)])
def test_dirichlet_kirchhoff_roots_sit_where_the_form_jumps(ell, k_max):
    # the roots (j + 1/2) pi / ell have |tan(k ell / 2)| = 1, where a border
    # coordinate switches and K jumps, so det K gives no false-position step
    g = qg.Graph(((0, qg.DIRICHLET), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, ell),))
    expected = (np.arange(int(k_max * ell / math.pi + 0.5)) + 0.5) * math.pi / ell
    assert qg.find_eigenvalues(g, k_max).eigenvalues == pytest.approx(expected.tolist(), abs=1e-12, rel=0)


def test_random_compact_graphs_have_the_amplitude_nullity_as_multiplicity():
    # Dirichlet, Kirchhoff and delta vertices; lengths are multiples of 1/2 in
    # about a third of the graphs, which gives degenerate roots and roots on
    # bond Dirichlet values.  The oracle is the nullity of the pole-free
    # amplitude system, independent of the eigenvalue count.
    def coupling(rng):
        kind = int(rng.integers(3))
        return qg.delta(rng.uniform(-2.0, 3.0)) if kind == 2 else (qg.DIRICHLET, qg.KIRCHHOFF)[kind]

    rng = np.random.default_rng(40)
    for _ in range(40):
        n_vertices = int(rng.integers(2, 7))
        n_bonds = int(rng.integers(n_vertices - 1, n_vertices * (n_vertices - 1) // 2 + 1))
        commensurate = rng.random() < 0.35
        length = (lambda r: 0.5 * int(r.integers(1, 4))) if commensurate else (lambda r: r.uniform(0.3, 2.0))
        g = _random_graph(rng, n_vertices, n_bonds, coupling, length)
        eigs = qg.find_eigenvalues(g, 12.0).eigenvalues
        roots, mults = np.unique(eigs, return_counts=True)
        sv = np.linalg.svd(_amplitude_matrices(g, roots), compute_uv=False)
        nullity = np.sum(sv < 1e-8 * sv[:, :1], axis=1)
        assert np.array_equal(nullity, mults), g
