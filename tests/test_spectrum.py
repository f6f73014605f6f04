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


def test_batched_residuals_match_single_root_evaluation(star3_graph):
    res = qg.find_eigenvalues(star3_graph, 20.0)
    single = [abs(qg.secular_function(star3_graph, k)) for k in res.eigenvalues]
    assert list(res.residuals) == single


def test_phase_stripped_scan_brackets_simple_roots(interval_graph):
    # the scan's real secular form must change sign across every simple root
    from qgraph.spectrum import _SecularMatrix

    sm = _SecularMatrix(interval_graph)
    step = math.pi / 8.0
    grid = np.arange(step, 10.0, step)
    dets, det_m = sm.dets(grid)
    theta = np.unwrap(np.angle(det_m))
    xi = np.real(dets * np.exp(-0.5j * theta))
    assert np.max(np.abs(np.imag(dets * np.exp(-0.5j * theta)))) < 1e-10 * np.max(np.abs(dets))
    roots = qg.find_eigenvalues(interval_graph, 10.0).eigenvalues
    sign_changes = grid[np.where(np.sign(xi[:-1]) * np.sign(xi[1:]) < 0)[0]]
    for root in roots:
        assert np.min(np.abs(sign_changes - root)) < step
