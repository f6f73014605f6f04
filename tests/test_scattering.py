import numpy as np
import pytest

import qgraph as qg
from qgraph import SingularWavenumberError

COUPLINGS = [qg.delta(-2.0), qg.KIRCHHOFF, qg.delta(0.5), qg.delta(3.0), qg.DIRICHLET]


def test_kirchhoff_three_valent():
    rt = qg.vertex_reflection_transmission(3, qg.KIRCHHOFF, 1.0)
    assert rt.r == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert rt.t == pytest.approx(2.0 / 3.0, abs=1e-15)
    # flux conservation cross-check
    assert abs(rt.r) ** 2 + 2 * abs(rt.t) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_dirichlet_limit_is_exact():
    rt = qg.vertex_reflection_transmission(3, qg.DIRICHLET, 2.7)
    assert rt.r == -1.0
    assert rt.t == 0.0


def test_two_valent_kirchhoff_is_transparent():
    rt = qg.vertex_reflection_transmission(2, qg.KIRCHHOFF, 5.0)
    assert abs(rt.r) < 1e-15
    assert rt.t == pytest.approx(1.0, abs=1e-15)


def test_zero_wavenumber_rejected():
    with pytest.raises(SingularWavenumberError):
        qg.vertex_reflection_transmission(3, qg.KIRCHHOFF, 0.0)


def test_cavity_at_zero_wavenumber_rejected():
    # the cavity's one k = 0 check serves two_vertex_green, trace_gamma and
    # casimir_integrand, which read k from the amplitudes
    with pytest.raises(SingularWavenumberError):
        qg.CavityAmplitudes(0j, 1 + 0j, 1.0, 0j)


@pytest.mark.parametrize("valency", [1, 3, 5])
def test_kirchhoff_equals_zero_strength_delta(valency):
    for k in (0.3, 2.0):
        a = qg.vertex_reflection_transmission(valency, qg.KIRCHHOFF, k)
        b = qg.vertex_reflection_transmission(valency, qg.delta(0.0), k)
        assert a.r == b.r and a.t == b.t


def test_single_edge_delta_has_unit_modulus():
    gamma, k = 0.8, 1.7
    s = qg.build_vertex_smatrix(1, qg.delta(gamma), k)
    expected = (gamma + 1j * k) / (1j * k - gamma)
    assert s.entries[0, 0] == pytest.approx(expected, abs=1e-15)
    assert abs(s.entries[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_sealed_dirichlet_vertex():
    s = qg.build_vertex_smatrix(2, qg.DIRICHLET, 3.3)
    assert np.allclose(s.entries, -np.eye(2), atol=0)


def test_smatrix_layout():
    s = qg.build_vertex_smatrix(3, qg.KIRCHHOFF, 1.0)
    assert np.allclose(np.diag(s.entries), -1.0 / 3.0, atol=1e-15)
    off = s.entries[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 2.0 / 3.0, atol=1e-15)


@pytest.mark.parametrize("k", [0.1, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("valency", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("coupling", COUPLINGS, ids=str)
def test_unitarity_and_k_reversal(k, valency, coupling):
    s = qg.build_vertex_smatrix(valency, coupling, k).entries
    identity = np.eye(valency)
    assert np.max(np.abs(s @ s.conj().T - identity)) <= 1e-12
    assert np.max(np.abs(s.conj().T @ s - identity)) <= 1e-12
    s_neg = qg.build_vertex_smatrix(valency, coupling, -k).entries
    assert np.max(np.abs(s_neg - s.conj().T)) <= 1e-12


@pytest.mark.parametrize("k", [0.5, 2.0, 11.0])
def test_dirichlet_is_large_gamma_limit(k):
    gamma = 1e6
    rt = qg.vertex_reflection_transmission(3, qg.delta(gamma), k)
    assert abs(rt.r - (-1.0)) <= 10 * abs(k) / gamma
    assert abs(rt.t) <= 10 * abs(k) / gamma
