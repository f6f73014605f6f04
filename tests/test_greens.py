import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

import qgraph as qg
from qgraph import InputError, ResonantBondError, SingularWavenumberError


def dirichlet_cavity(k, ell=1.0):
    return qg.cavity_amplitudes(qg.DIRICHLET, ell, k)


def free_amplitudes(k, ell=1.0):
    """No end reflection, g = 1: a bare line segment."""
    return qg.CavityAmplitudes(0j, 1.0 + 0j, ell, complex(k))


class TestFreeGreen:
    def test_coincident_points(self):
        assert qg.free_green(1.0, 0.3, 0.3) == pytest.approx(-0.5j, abs=1e-15)

    def test_half_period(self):
        assert qg.free_green(1.0, 0.0, math.pi) == pytest.approx(0.5j, abs=1e-15)

    def test_imaginary_axis_decays(self):
        # e^{-1}/(2 i^2) = -e^{-1}/2, confirming decay under rotation
        value = qg.free_green(1j, 0.0, 1.0)
        assert value == pytest.approx(-math.exp(-1.0) / 2.0, abs=1e-12)
        assert value.imag == pytest.approx(0.0, abs=1e-15)

    def test_zero_wavenumber(self):
        with pytest.raises(SingularWavenumberError):
            qg.free_green(0.0, 0.0, 1.0)

    def test_derivative_jump_is_unity(self):
        h = 1e-4
        for k in (1.0, 2.7, 0.4):
            x_src = 0.9
            g = lambda x: qg.free_green(k, x_src, x)
            right = (-3 * g(x_src) + 4 * g(x_src + h) - g(x_src + 2 * h)) / (2 * h)
            left = (3 * g(x_src) - 4 * g(x_src - h) + g(x_src - 2 * h)) / (2 * h)
            assert right - left == pytest.approx(1.0, abs=1e-6)


class TestStarGreen:
    def test_dirichlet_wall_zero(self):
        s = qg.build_vertex_smatrix(1, qg.DIRICHLET, 1.0)
        dec = qg.star_green(0, 0, 0.0, 0.0, s)
        assert dec.total == pytest.approx(0.0, abs=1e-15)

    def test_decoupled_leads(self):
        s = qg.build_vertex_smatrix(2, qg.DIRICHLET, 1.8)
        dec = qg.star_green(0, 1, 0.4, 0.9, s)
        assert dec.total == 0
        assert dec.free_part == 0

    def test_kirchhoff_three_star_at_vertex(self):
        s = qg.build_vertex_smatrix(3, qg.KIRCHHOFF, 1.0)
        dec = qg.star_green(0, 0, 0.0, 0.0, s)
        assert dec.total == pytest.approx(-1j / 3.0, abs=1e-14)

    def test_index_range(self):
        s = qg.build_vertex_smatrix(2, qg.KIRCHHOFF, 1.0)
        with pytest.raises(InputError):
            qg.star_green(0, 2, 0.0, 0.0, s)

    def test_reciprocity(self):
        rng = np.random.default_rng(3)
        s = qg.build_vertex_smatrix(3, qg.delta(0.6), 1.4)
        for _ in range(5):
            n, l = rng.integers(0, 3, size=2)
            xi, xf = rng.uniform(0.0, 2.0, size=2)
            forward = qg.star_green(int(n), int(l), xi, xf, s).total
            backward = qg.star_green(int(l), int(n), xf, xi, s).total
            assert forward == pytest.approx(backward, abs=1e-12)


class TestTwoVertexGreen:
    def test_no_scatterers_reduces_to_plane_wave(self):
        ca = free_amplitudes(1.0)
        dec = qg.two_vertex_green(0.2, 0.7, ca)
        assert dec.total == pytest.approx(cmath.exp(1j * 0.5) / 2j, abs=1e-14)

    def test_no_scatterers_is_symmetric(self):
        # a bare segment is the free line in either order of the points
        ca = free_amplitudes(1j)
        for xi, xf in ((0.7, 0.2), (0.2, 0.7)):
            dec = qg.two_vertex_green(xi, xf, ca)
            assert dec.total == pytest.approx(math.exp(-0.5) / (2j * 1j), abs=1e-15)
            assert dec.gamma_part == 0

    def test_golden_dirichlet_cavity_midpoint(self):
        # closed form -sin(k/2)^2 / (k sin k) of the unit dirichlet interval
        # at k = 1.3: -0.29238630735910626
        dec = qg.two_vertex_green(0.5, 0.5, dirichlet_cavity(1.3))
        assert dec.total.real == pytest.approx(
            -math.sin(0.65) ** 2 / (1.3 * math.sin(1.3)), abs=1e-15
        )
        assert dec.total.imag == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e13])
    @pytest.mark.parametrize("gamma", [None, 0.0, 0.7], ids=["dirichlet", "kirchhoff", "delta"])
    def test_scale_covariance(self, c, gamma):
        # (x, x', k, ell, gamma) -> (cx, cx', k/c, c ell, gamma/c) leaves every
        # phase and reflection fixed and multiplies G by c; k = pi/2 lies
        # halfway between two dirichlet poles of the unit bond
        def coupling(scale):
            return qg.DIRICHLET if gamma is None else qg.delta(gamma / scale)

        k = math.pi / 2
        base = qg.two_vertex_green(0.3, 0.6, qg.cavity_amplitudes(coupling(1.0), 1.0, k))
        ca = qg.cavity_amplitudes(coupling(c), c, k / c)
        scaled = qg.two_vertex_green(0.3 * c, 0.6 * c, ca)
        assert scaled.total == pytest.approx(c * base.total, rel=1e-12)
        assert scaled.free_part == pytest.approx(c * base.free_part, rel=1e-12)

    def test_coordinates_out_of_range(self):
        ca = dirichlet_cavity(1.3)
        with pytest.raises(InputError):
            qg.two_vertex_green(-0.1, 0.5, ca)
        with pytest.raises(InputError):
            qg.two_vertex_green(0.1, 1.5, ca)

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(11)
        ca = dirichlet_cavity(0.9)
        for _ in range(10):
            xi, xf = rng.uniform(0.0, 1.0, size=2)
            dec = qg.two_vertex_green(xi, xf, ca)
            assert dec.total - dec.free_part - dec.gamma_part == 0

    def test_cavity_matches_bounce_series(self):
        # independent oracle: sum reflected paths of a bond terminated by two
        # identical scatterers; converges for |r e^{ik ell}|^2 < 1 off the
        # real axis
        k = 0.9 + 0.4j
        ell = 1.0
        coupling = qg.delta(0.7)
        r = qg.vertex_reflection_transmission(1, coupling, k).r
        ca = qg.cavity_amplitudes(coupling, ell, k)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u, v = np.sort(rng.uniform(0.05, 0.95, size=2))
            series = 0j
            for n in range(300):
                loop = (r * r * cmath.exp(2j * k * ell)) ** n
                series += loop * (
                    cmath.exp(1j * k * (v - u))
                    + r * cmath.exp(1j * k * (u + v))
                    + r * cmath.exp(1j * k * (2 * ell - u - v))
                    + r * r * cmath.exp(1j * k * (2 * ell - (v - u)))
                )
            series /= 2j * k
            dec = qg.two_vertex_green(float(u), float(v), ca)
            assert dec.total == pytest.approx(series, rel=1e-12)


class TestBondWavefunction:
    def test_endpoint_continuity(self):
        assert qg.bond_wavefunction(2.0, 3.0, 1.1, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)
        assert qg.bond_wavefunction(2.0, 3.0, 1.1, 1.0, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_midpoint_double_angle(self):
        # [sin(kL/2) + sin(kL/2)] / sin(kL) = 1 / cos(kL/2)
        value = qg.bond_wavefunction(1.0, 1.0, 1.0, 1.0, 0.5)
        assert value == pytest.approx(1.0 / math.cos(0.5), abs=1e-12)
        assert value == pytest.approx(1.139493927324549, abs=1e-9)

    def test_resonant_bond(self):
        with pytest.raises(ResonantBondError):
            qg.bond_wavefunction(1.0, 1.0, math.pi, 1.0, 0.5)


class TestTraceGamma:
    def test_free_line_reduction(self):
        # constant diagonal 1/(2ik) integrates to ell/(2ik) = -i ell / (2k)
        for k, ell in [(1.0, 1.0), (2.0, 1.0), (0.7, 3.0)]:
            ca = free_amplitudes(k, ell)
            assert qg.trace_gamma(ca) == pytest.approx(ell / (2j * k), abs=1e-14)

    def test_free_term_linear_in_length(self):
        one = qg.trace_gamma(free_amplitudes(2.0, 1.0))
        two = qg.trace_gamma(free_amplitudes(2.0, 2.0))
        assert two == pytest.approx(2 * one, abs=1e-14)

    def test_golden_dirichlet_imaginary_axis(self):
        # closed form 1/2 - coth(1)/2 = -0.15651764274966565 of the unit
        # dirichlet interval at k = i
        ca = dirichlet_cavity(1j)
        assert qg.trace_gamma(ca) == pytest.approx(0.5 - 0.5 / math.tanh(1.0), abs=1e-15)

    @pytest.mark.parametrize("kappa,ell", [(1.0, 1.0), (0.7, 2.0), (3.0, 0.5), (1.4, 1.3)])
    def test_matches_diagonal_quadrature(self, kappa, ell):
        ca = dirichlet_cavity(1j * kappa, ell)
        closed = qg.trace_gamma(ca)

        def diag(x):
            return qg.two_vertex_green(x, x, ca).total.real

        numeric, _ = quad(diag, 0.0, ell, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert closed.real == pytest.approx(numeric, rel=1e-10)
        assert closed.imag == pytest.approx(0.0, abs=1e-12)


class TestOdeResidual:
    """Centered second differences of every Green function must satisfy the
    defining equation G'' + k^2 G = 0 away from the source."""

    H = 1e-4

    def residual(self, g, k, x):
        d2 = (g(x + self.H) - 2 * g(x) + g(x - self.H)) / self.H**2
        value = d2 + k**2 * g(x)
        return abs(value) / max(1.0, abs(k**2 * g(x)))

    def test_star_green_ode(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = rng.uniform(0.5, 3.0)
            s = qg.build_vertex_smatrix(3, qg.KIRCHHOFF, k)
            x_src = rng.uniform(0.2, 1.5)
            x = rng.uniform(0.2, 1.5)
            if abs(x - x_src) < 10 * self.H:
                x += 0.1
            g = lambda t: qg.star_green(0, 0, x_src, t, s).total
            assert self.residual(g, k, x) <= 1e-5

    def test_two_vertex_green_ode(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = rng.uniform(0.5, 3.0)
            ca = dirichlet_cavity(k)
            x_src = rng.uniform(0.2, 0.8)
            x = rng.uniform(0.2, 0.8)
            if abs(x - x_src) < 10 * self.H:
                x = x_src + 0.1 if x_src < 0.7 else x_src - 0.1
            g = lambda t: qg.two_vertex_green(x_src, t, ca).total
            assert self.residual(g, k, x) <= 1e-5
