import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import qgraph as qg
import qgraph.casimir as casimir
from qgraph import ExtrapolationError, Method, NumericalError, UnsupportedTopologyError
from qgraph.casimir import _ENERGY_PREFACTOR
from tests.conftest import dirichlet_interval


class TestTauFit:
    def test_design_has_full_column_rank(self):
        # 1/tau^2, 1, tau^2, ..., tau^8 on the 8 taus of the window
        assert casimir._DESIGN.shape == (8, 6)
        assert np.linalg.matrix_rank(casimir._DESIGN / casimir._SCALE) == 6

    def test_recovers_exact_divergent_model(self):
        values = np.array([1.0 / t**2 - 0.5 for t in casimir._TAU_WINDOW])
        coeffs = casimir._FIT @ values
        assert coeffs[1] == pytest.approx(-0.5, abs=1e-10)
        assert coeffs[0] == pytest.approx(1.0, rel=1e-9)
        assert np.max(np.abs(casimir._DESIGN @ coeffs - values)) < 1e-9

    def test_synthetic_three_term_model(self):
        values = np.array([1.0 / t**2 - 0.1 + t**2 for t in casimir._TAU_WINDOW])
        assert (casimir._FIT @ values)[1] == pytest.approx(-0.1, abs=1e-10)

    def test_recovers_every_term_of_the_basis(self):
        coeffs = np.array([0.3, -0.2, 0.5, -1.0, 2.0, -3.0])
        fitted = casimir._FIT @ (casimir._DESIGN @ coeffs)
        assert fitted[:2] == pytest.approx(coeffs[:2], rel=1e-12, abs=1e-12)

    def test_residual_failure_carries_samples(self):
        # a delta vertex adds a log(tau) term that the even basis cannot describe
        g = qg.Graph(((0, qg.delta(3.0)), (1, qg.delta(3.0))), (qg.Bond(0, 1, 1.0),))
        with pytest.raises(ExtrapolationError, match="fit residual") as err:
            qg.casimir_mode_sum(g)
        assert [t for t, _ in err.value.samples] == list(casimir._TAU_WINDOW)

    def test_nan_samples_fail_the_fit(self, monkeypatch):
        # a NaN residual is not within the bound
        spectrum = qg.find_eigenvalues(dirichlet_interval(1.0), 10.0)
        monkeypatch.setattr(casimir, "find_eigenvalues", lambda g, k_max: replace(spectrum, eigenvalues=(math.nan,)))
        with pytest.raises(ExtrapolationError, match="fit residual nan") as err:
            qg.casimir_mode_sum(dirichlet_interval(1.0))
        assert len(err.value.samples) == 8


def _subtracted_trace(coupling, ell, kappa):
    """Generic reference of the Green-route integrand: kappa^2 times the trace
    less the free-line term ell/(2ik) and the vertex term n_inf/(2k^2), at
    k = i kappa, with n_inf = -1 for dirichlet ends and +1 otherwise."""
    ca = qg.cavity_amplitudes(coupling, ell, 1j * kappa)
    n_inf = -1.0 if coupling.is_dirichlet else 1.0
    k = ca.k
    return kappa**2 * (qg.trace_gamma(ca) - ell / (2j * k) - n_inf / (2 * k * k))


class TestCasimirIntegrand:
    def test_exponential_decay_bound(self):
        # with the free-line and constant vertex terms removed the cavity
        # integrand obeys |I| <= C e^{-2 kappa ell} / kappa on the rotated axis
        from qgraph.casimir import _rotated_integrand

        ell = 1.0
        bound_constant = 1.1 * ell
        f = _rotated_integrand(0.0)
        for kappa in np.linspace(5.0, 50.0, 46):
            value = f(kappa * ell) / kappa**2
            assert abs(value) <= bound_constant * math.exp(-2 * kappa * ell) / kappa
        # the generic subtracted-trace route obeys the same bound where double
        # precision can still resolve it (the trace is O(1/kappa) before the
        # cancelling subtractions)
        for kappa in np.linspace(5.0, 15.0, 11):
            value = _subtracted_trace(qg.DIRICHLET, ell, kappa) / kappa**2
            assert abs(value) <= bound_constant * math.exp(-2 * kappa * ell) / kappa

    @pytest.mark.parametrize("coupling", [qg.DIRICHLET, qg.KIRCHHOFF, qg.delta(0.8)], ids=str)
    def test_engine_integrand_matches_trace_route(self, coupling):
        # dual route inside the green engine: the stable closed form must
        # agree with kappa^2 times the generic subtracted trace, evaluated at
        # x = kappa ell
        from qgraph.casimir import _rotated_integrand

        # (a delta end also drops its vertex self-energy gamma/(kappa + gamma))
        ell = 1.3
        gamma = coupling.gamma
        f = _rotated_integrand(gamma * ell)
        for kappa in (0.3, 1.0, 2.5, 7.0):
            generic = _subtracted_trace(coupling, ell, kappa)
            assert f(kappa * ell) == pytest.approx(generic.real - gamma / (kappa + gamma), rel=1e-10)
            assert generic.imag == pytest.approx(0.0, abs=1e-12)


def _equal_star(n_arms: int, ell: float, leaf=qg.DIRICHLET) -> qg.Graph:
    return _star((ell,) * n_arms, leaf)


def _star(arms, leaf=qg.DIRICHLET) -> qg.Graph:
    """Kirchhoff centre 0 with one bond of each length to a leaf vertex."""
    vertices = ((0, qg.KIRCHHOFF),) + tuple((i, leaf) for i in range(1, len(arms) + 1))
    return qg.Graph(vertices, tuple(qg.Bond(0, i, ell) for i, ell in enumerate(arms, 1)))


def _secular_log_det_energy(g: qg.Graph) -> float:
    """The vacuum energy (1/2 pi) int_0^inf log det(I - S D) at k = i kappa of
    a compact graph (Berkolaiko, Harrison & Wilson, J. Phys. A 42, 025204
    (2009)), by scipy's quad at 1e-12 on the secular function: it shares no
    code with either route.  The range is split at 0.01, 1 and 10 over the
    shortest bond."""

    def integrand(kappa):
        det = qg.secular_function(g, 1j * kappa)
        assert abs(det.imag) <= 1e-12 * det.real, (kappa, det)
        return math.log(det.real)

    ell = min(b.length for b in g.bonds)
    edges = [0.0, 0.01 / ell, 1.0 / ell, 10.0 / ell, math.inf]
    pieces = [quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)[0] for a, b in zip(edges, edges[1:])]
    return math.fsum(pieces) / (2 * math.pi)


def _random_compact_graph(seed: int) -> qg.Graph:
    """2-6 Dirichlet or Kirchhoff vertices, a random spanning tree plus up to
    three more bonds, lengths in [0.5, 1.5]."""
    rng = random.Random(seed)
    n_vertices = rng.randint(2, 6)
    edges = {(rng.randrange(v), v) for v in range(1, n_vertices)}
    for _ in range(rng.randint(0, 3)):
        edges.add(tuple(sorted(rng.sample(range(n_vertices), 2))))
    vertices = tuple((v, rng.choice([qg.KIRCHHOFF, qg.DIRICHLET])) for v in range(n_vertices))
    return qg.Graph(vertices, tuple(qg.Bond(a, b, rng.uniform(0.5, 1.5)) for a, b in sorted(edges)))


class TestModeSum:
    # down to 3e-309, where 1/u is still finite: the spectrum is found in units of u
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0, 1e-300, 1e-305, 1e-306, 1e-308, 3e-309])
    def test_interval_benchmark(self, ell):
        # oracle: (1/2) sum n pi e^{-n pi tau} = (pi/2) e^{-a} / (1 - e^{-a})^2
        # with a = pi tau, whose expansion is 1/(2 pi tau^2) - pi/24 + O(tau^2)
        res = qg.casimir_mode_sum(dirichlet_interval(ell))
        target = -math.pi / (24 * ell)
        assert res.method is Method.MODE_SUM
        assert abs(res.energy - target) <= 1e-8 * abs(target)
        assert abs(res.energy - target) <= res.estimated_error

    def test_closed_form_regulated_sum_identity(self):
        # the geometric-series identity behind the benchmark above, in units of
        # u = 2 ell: the roots are 2 pi n and the length is 1/2, so with
        # a = 2 pi tau the regulated sum is pi e^{-a} / (1 - e^{-a})^2
        for tau, value in qg.casimir_mode_sum(dirichlet_interval(1.0)).per_tau_samples:
            a = 2 * math.pi * tau
            closed = math.pi * math.exp(-a) / (1 - math.exp(-a)) ** 2
            assert value == pytest.approx(closed - 1.0 / (4 * math.pi * tau**2), abs=1e-10)

    def test_scaled_interval(self):
        res = qg.casimir_mode_sum(dirichlet_interval(2.0))
        assert abs(res.energy + math.pi / 48) <= 1e-8 * (math.pi / 48)

    def test_weyl_divergence_coefficient(self):
        # L/(2 pi u) with u = 2 ell
        res = qg.casimir_mode_sum(dirichlet_interval(1.0))
        assert res.fit_coefficients[0] == pytest.approx(1.0 / (4 * math.pi), rel=0.01)

    def test_more_eigenvalues_within_estimated_error(self, monkeypatch):
        base = qg.casimir_mode_sum(dirichlet_interval(1.0))
        monkeypatch.setattr(casimir, "_CUTOFF_MARGIN", 2 * casimir._CUTOFF_MARGIN)
        extended = qg.casimir_mode_sum(dirichlet_interval(1.0))
        assert abs(extended.energy - base.energy) <= base.estimated_error

    def test_regulator_doubling_within_error_budget(self, monkeypatch):
        base = qg.casimir_mode_sum(dirichlet_interval(1.0))
        monkeypatch.setattr(casimir, "_TAU_WINDOW", tuple(2 * t for t in casimir._TAU_WINDOW))
        other = qg.casimir_mode_sum(dirichlet_interval(1.0))
        assert abs(other.energy - base.energy) <= 5 * base.estimated_error

    @pytest.mark.parametrize("ell", [0.4, 0.6, 1.0, 1.7])
    @pytest.mark.parametrize("n_arms", [3, 4, 5])
    def test_equal_star_matches_closed_form(self, n_arms, ell):
        # roots (n + 1/2) pi / ell once and n pi / ell N - 1 times; their
        # zeta-regularized half-sums give -(2N - 3) pi / (48 ell)
        res = qg.casimir_mode_sum(_equal_star(n_arms, ell))
        target = -(2 * n_arms - 3) * math.pi / (48 * ell)
        assert abs(res.energy - target) <= 1e-8 * abs(target)
        assert abs(res.energy - target) <= res.estimated_error

    @pytest.mark.parametrize("arms, log_det, tol", [((1.0, 0.7, 1.3), -0.204798328796, 1e-9),
                                                    ((1.0, 1.0, 0.1), -0.531274373063, 1e-8)],
                             ids=["1-0.7-1.3", "1-1-0.1"])
    def test_unequal_star_matches_log_det(self, arms, log_det, tol):
        # log_det: (1/2 pi) int_0^inf log det of the vertex form at k = i kappa
        # (Dirichlet leaves), to 12 digits; a window fixed in absolute tau
        # reached past the shortest orbit 0.2 of (1, 1, 0.1) and its fit failed
        res = qg.casimir_mode_sum(_star(arms))
        assert abs(res.energy - log_det) <= tol
        assert abs(_secular_log_det_energy(_star(arms)) - log_det) <= 1e-11

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graph_matches_the_secular_log_det(self, seed):
        g = _random_compact_graph(seed)
        res, log_det = qg.casimir_mode_sum(g), _secular_log_det_energy(g)
        assert abs(res.energy - log_det) <= res.estimated_error
        assert abs(res.energy - log_det) <= 1e-8 * abs(log_det)

    SCALES = (1e-308, 1e-306, 1e-305, 1e-300, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e300)
    GRAPHS = {
        "interval": dirichlet_interval(1.0),
        "star3": _equal_star(3, 1.0),
        "star-dirichlet": _star((1.0, 0.7, 1.3)),
        "star-kirchhoff": _star((1.0, 0.7, 1.3), qg.KIRCHHOFF),
    }

    @pytest.mark.parametrize("g", GRAPHS.values(), ids=GRAPHS.keys())
    def test_energy_times_scale_and_work_are_scale_free(self, g, monkeypatch):
        # the window and the cutoff follow the shortest bond: every scale is
        # the same problem, with the same count points and bisection levels
        spectra = []

        def spy(*args, **kwargs):
            spectra.append(qg.find_eigenvalues(*args, **kwargs))
            return spectra[-1]

        monkeypatch.setattr(casimir, "find_eigenvalues", spy)
        energies = {s: qg.casimir_mode_sum(g.scaled(s)).energy * s for s in self.SCALES}
        base = spectra[self.SCALES.index(1.0)].diagnostics
        for s, spectrum in zip(self.SCALES, spectra):
            assert abs(energies[s] - energies[1.0]) <= 1e-10
            for key in ("count_points", "bisection_levels"):
                assert spectrum.diagnostics[key] == base[key]

    def test_short_bond_beyond_the_root_cap_is_refused_fast(self):
        # about 306 L / l_min = 3.06e6 roots, above the cap of 1e6: refused
        # before any root is looked for
        g = qg.Graph(((0, qg.DIRICHLET), (1, qg.KIRCHHOFF), (2, qg.DIRICHLET)),
                     (qg.Bond(0, 1, 1.0), qg.Bond(1, 2, 1e-4)))
        start = time.perf_counter()
        with pytest.raises(qg.InputError, match="cap"):
            qg.casimir_mode_sum(g)
        assert time.perf_counter() - start < 1.0

    def test_energy_that_overflows_raises(self):
        # E = -37 pi / (48 ell) for 20 equal arms, beyond the largest double at ell = 3e-309
        with pytest.raises(NumericalError, match="not finite"):
            qg.casimir_mode_sum(_equal_star(20, 3e-309))

    @pytest.mark.parametrize("g, match", [
        (qg.Graph((), ()), "mode sum"),
        (qg.Graph(((0, qg.DIRICHLET), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, 1.0),), (qg.Lead(1),)), "mode sum"),
        # 1/u overflows below a shortest bond of about 2.8e-309
        (dirichlet_interval(2e-309), "shortest bond, 2e-309"),
    ], ids=["empty", "lead", "too-short"])
    def test_graph_without_a_spectrum_to_sum_is_refused(self, g, match):
        with pytest.raises(UnsupportedTopologyError, match=match):
            qg.casimir_mode_sum(g)


def _log_det_energy(gamma_ell: float, ell: float = 1.0) -> float:
    """The energy (1/2 pi ell) int_0^inf log(1 - r^2 e^{-2x}) dx, r = (x - g)/(x + g),
    g = gamma ell, of a delta(gamma) pair joined by a bond of length ell, by
    scipy's quad at 1e-12: it shares no code with the Green route.  The range
    is split at g and at sqrt(g), where a weak delta puts the lifted zero
    mode's step; one quad over (0, inf) steps over it for small g (off by
    7.3e-9 at g = 1e-16, and a round-off warning at 1e-14)."""

    def integrand(x):
        r = (x - gamma_ell) / (x + gamma_ell)
        return math.log1p(-r * r * math.exp(-2.0 * x))

    edges = [0.0, *sorted({gamma_ell, math.sqrt(gamma_ell)}), math.inf]
    pieces = [quad(integrand, a, b, epsabs=1e-15, epsrel=1e-12, limit=200)[0] for a, b in zip(edges, edges[1:])]
    return math.fsum(pieces) / (2 * math.pi * ell)


class TestGreenMethod:
    def test_two_vertex_reduction_only(self, star3_graph):
        with pytest.raises(UnsupportedTopologyError, match="two-vertex"):
            qg.casimir_green_method(star3_graph)

    def test_asymmetric_couplings_rejected(self):
        g = qg.Graph(((0, qg.DIRICHLET), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, 1.0),))
        with pytest.raises(UnsupportedTopologyError, match="identical couplings"):
            qg.casimir_green_method(g)

    @pytest.mark.parametrize("ends", [(qg.KIRCHHOFF, qg.delta(0.0)), (qg.delta(0.0), qg.KIRCHHOFF),
                                      (qg.delta(-0.0), qg.delta(0.0))], ids=["K-delta0", "delta0-K", "signed-zeros"])
    def test_kirchhoff_is_delta_zero(self, ends):
        # the two-vertex form reads a vertex as Dirichlet or delta(gamma): a
        # Kirchhoff end and a delta(0) end are one vertex physics
        g = qg.Graph(((0, ends[0]), (1, ends[1])), (qg.Bond(0, 1, 0.8),))
        pair = qg.Graph(((0, qg.KIRCHHOFF), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, 0.8),))
        scales = [0.5, 1.0, 2.0, 7.0]

        def bits(results):
            return np.array([(r.energy, r.estimated_error) for r in results]).tobytes()

        assert bits([qg.casimir_green_method(g)]) == bits([qg.casimir_green_method(pair)])
        assert bits(qg.casimir_sweep(g, scales, Method.GREEN_TRACE)) == \
            bits(qg.casimir_sweep(pair, scales, Method.GREEN_TRACE))
        assert abs(qg.casimir_green_method(g).energy * 0.8 + math.pi / 24) <= 1e-9

    def test_dirichlet_and_delta_zero_ends_are_refused(self):
        g = qg.Graph(((0, qg.DIRICHLET), (1, qg.delta(0.0))), (qg.Bond(0, 1, 1.0),))
        with pytest.raises(UnsupportedTopologyError,
                           match="^two-vertex form requires identical couplings at both vertices$"):
            qg.casimir_green_method(g)

    def test_attractive_coupling_rejected(self):
        g = qg.Graph(((0, qg.delta(-1.0)), (1, qg.delta(-1.0))), (qg.Bond(0, 1, 1.0),))
        with pytest.raises(UnsupportedTopologyError, match="bound-state"):
            qg.casimir_green_method(g)

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    def test_dirichlet_interval_benchmark(self, ell):
        res = qg.casimir_green_method(dirichlet_interval(ell))
        target = -math.pi / (24 * ell)
        assert res.method is Method.GREEN_TRACE
        assert abs(res.energy - target) <= 1e-8 * abs(target)

    # lengths from 1e-3 to 4: the error is scale-free
    @pytest.mark.parametrize("ell", [1e-3, 0.05, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("coupling", [qg.DIRICHLET, qg.KIRCHHOFF], ids=["dirichlet", "kirchhoff"])
    def test_energy_within_estimated_error(self, coupling, ell):
        res = qg.casimir_green_method(qg.Graph(((0, coupling), (1, coupling)), (qg.Bond(0, 1, ell),)))
        error = abs(res.energy + math.pi / (24 * ell))
        assert error <= 1e-8 * math.pi / (24 * ell)
        assert error <= res.estimated_error
        assert res.fit_coefficients == () and res.per_tau_samples == ()

    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_delta_energy_matches_log_det_within_estimated_error(self, gamma, ell):
        g = qg.Graph(((0, qg.delta(gamma)), (1, qg.delta(gamma))), (qg.Bond(0, 1, ell),))
        res = qg.casimir_green_method(g)
        assert abs(res.energy - _log_det_energy(gamma * ell, ell)) <= max(res.estimated_error, 1e-9)

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_delta_energy_does_not_grow_with_truncation(self, gamma, monkeypatch):
        # x_max = -ln(tol)/2 runs from 9.2 to 13.8; with the vertex self-energy
        # left in, the energy grew by (gamma/pi) ln((x + gamma)/gamma) between
        # the truncations, 0.06 at gamma = 0.5
        g = qg.Graph(((0, qg.delta(gamma)), (1, qg.delta(gamma))), (qg.Bond(0, 1, 1.0),))
        results = []
        for tol in (1e-8, 1e-10, 1e-12):
            monkeypatch.setattr(casimir, "_QUADRATURE_TOL", tol)
            results.append(qg.casimir_green_method(g))
        energies = [r.energy for r in results]
        assert max(energies) - min(energies) <= results[0].estimated_error

    def test_one_quadrature_and_no_tau_fit(self, monkeypatch):
        calls = []
        integrals = casimir._green_integrals

        def counting_integrals(gs):
            calls.append(len(gs))
            return integrals(gs)

        class NoFit:
            def __matmul__(self, values):
                raise AssertionError("the Green route fits no regulator sequence")

        monkeypatch.setattr(casimir, "_green_integrals", counting_integrals)
        monkeypatch.setattr(casimir, "_FIT", NoFit())
        g = qg.Graph(((0, qg.delta(0.7)), (1, qg.delta(0.7))), (qg.Bond(0, 1, 1.0),))
        qg.casimir_green_method(g)
        assert calls == [1]
        # one call for a whole sweep
        qg.casimir_sweep(g, [0.5, 1.0, 2.0], Method.GREEN_TRACE)
        assert calls == [1, 3]
        # the mode sum does meet the patched fit
        with pytest.raises(AssertionError, match="no regulator sequence"):
            qg.casimir_mode_sum(dirichlet_interval(1.0))

    @pytest.mark.parametrize("coupling", [qg.DIRICHLET, qg.KIRCHHOFF], ids=["dirichlet", "kirchhoff"])
    def test_long_bond_within_estimated_error(self, coupling):
        ell = 400.0
        res = qg.casimir_green_method(qg.Graph(((0, coupling), (1, coupling)), (qg.Bond(0, 1, ell),)))
        assert abs(res.energy + math.pi / (24 * ell)) <= res.estimated_error

    def test_neumann_ends_match_dirichlet_energy(self):
        # both spectra are {n pi / ell}, so the energies must agree
        g = qg.Graph(((0, qg.KIRCHHOFF), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, 1.0),))
        res = qg.casimir_green_method(g)
        assert res.energy == pytest.approx(-math.pi / 24, rel=1e-6)

    @pytest.mark.parametrize("coupling", [qg.DIRICHLET, qg.delta(0.5)], ids=["dirichlet", "delta"])
    def test_looser_truncation_within_estimated_error(self, coupling, monkeypatch):
        # tol 1e-8 truncates at x_max = 9.2 and tol 1e-12 at 13.8
        g = qg.Graph(((0, coupling), (1, coupling)), (qg.Bond(0, 1, 1.0),))
        monkeypatch.setattr(casimir, "_QUADRATURE_TOL", 1e-8)
        loose = qg.casimir_green_method(g)
        monkeypatch.setattr(casimir, "_QUADRATURE_TOL", 1e-12)
        tight = qg.casimir_green_method(g)
        assert loose.estimated_error > tight.estimated_error
        assert abs(loose.energy - tight.energy) <= loose.estimated_error

    LENGTHS = (1e-300, 1e-5, 1.0, 1e4, 1e6, 1e300)

    @pytest.mark.parametrize("coupling", [qg.DIRICHLET, qg.KIRCHHOFF], ids=["dirichlet", "kirchhoff"])
    def test_energy_times_length_is_scale_free(self, coupling):
        # E ell is the same number at every length, and within its error of -pi/24
        base = qg.casimir_green_method(qg.Graph(((0, coupling), (1, coupling)), (qg.Bond(0, 1, 1.0),)))
        for ell in self.LENGTHS:
            res = qg.casimir_green_method(qg.Graph(((0, coupling), (1, coupling)), (qg.Bond(0, 1, ell),)))
            assert res.energy * ell == pytest.approx(base.energy, rel=1e-15, abs=0)
            assert abs(res.energy + math.pi / (24 * ell)) <= res.estimated_error
            # (compared after division: at ell = 1e300 the error is subnormal)
            assert res.estimated_error == pytest.approx(base.estimated_error / ell, rel=1e-15, abs=0)

    @pytest.mark.parametrize("gamma_ell", [0.5, 3.0])
    def test_delta_energy_times_length_is_scale_free(self, gamma_ell):
        energies = []
        for ell in self.LENGTHS:
            c = qg.delta(gamma_ell / ell)
            energies.append(qg.casimir_green_method(qg.Graph(((0, c), (1, c)), (qg.Bond(0, 1, ell),))).energy * ell)
        assert energies == pytest.approx([energies[2]] * len(energies), rel=1e-15, abs=0)

    @pytest.mark.parametrize("ell", [1e-310, 5e-324])
    def test_energy_that_overflows_raises(self, ell):
        # E = -pi/(24 ell) is beyond the largest double
        with pytest.raises(NumericalError, match="not finite"):
            qg.casimir_green_method(dirichlet_interval(ell))

    def test_frozen_prefactor(self):
        assert _ENERGY_PREFACTOR == 1.0 / math.pi


def _delta_pair(gamma: float, ell: float = 1.0) -> qg.Graph:
    return qg.Graph(((0, qg.delta(gamma)), (1, qg.delta(gamma))), (qg.Bond(0, 1, ell),))


class TestGreenQuadrature:
    @pytest.mark.parametrize("gamma_ell", [1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-4, 0.01, 0.25, 1.0, 6.0, 1e3, 1e6])
    def test_delta_energy_within_estimated_error_of_log_det(self, gamma_ell):
        res = qg.casimir_green_method(_delta_pair(gamma_ell))
        assert abs(res.energy - _log_det_energy(gamma_ell)) <= res.estimated_error

    @pytest.mark.parametrize("gamma_ell", [1e-16, 1e-14, 1e-12])
    def test_tiny_delta_lifts_the_zero_mode(self, gamma_ell):
        # a weak delta lifts the Kirchhoff zero mode to k0 = sqrt(2 gamma / ell),
        # so E ell = -pi/24 + sqrt(2 gamma ell)/2 + O(gamma ell ln gamma ell); the
        # step this puts in the integrand is sqrt(gamma ell) wide, and a quadrature
        # blind to it returns the Kirchhoff energy (scipy's quad did, from 1e-9 down)
        res = qg.casimir_green_method(_delta_pair(gamma_ell))
        assert abs(res.energy - (-math.pi / 24 + math.sqrt(2 * gamma_ell) / 2)) <= res.estimated_error

    def test_huge_delta_is_the_dirichlet_energy_and_an_overflow_is_refused(self):
        res = qg.casimir_green_method(_delta_pair(1e300))
        assert abs(res.energy + math.pi / 24) <= res.estimated_error
        with pytest.raises(NumericalError, match="beyond the largest double"):
            qg.casimir_green_method(_delta_pair(1e300, 1e10))

    # the scales of `sweep --from 1e-6 --to 10 --steps 41` (gamma ell from 3.5e-7,
    # deeply refined, to 3.5, shallow, on the first graph), after scales that fail:
    # factors outside (0, inf), a length that underflows to 0 (5e-324 x 0.5; 1e-315
    # for the shortest arm of the star only), an energy that overflows (1e-323),
    # a length that overflows (1e308 x 4) and a gamma ell that does (1e10); last,
    # an int beyond the doubles
    SWEEP_SCALES = [5e-324, 1e-323, 0.0, -1.0, math.nan, math.inf, 1e-315, 1e308, 1e10] + \
        [1e-6 + (10 - 1e-6) * i / 40 for i in range(41)] + [10**400]
    SWEEP_GRAPHS = {
        "delta": (_delta_pair(0.7, 0.5), ["GraphFormatError", "NumericalError", *["InputError"] * 4,
                                          "NumericalError", "CasimirResult", "CasimirResult"]),
        "huge-delta": (_delta_pair(1e300, 4.0), [*["NumericalError"] * 2, *["InputError"] * 4, "NumericalError",
                                                 "GraphFormatError", "NumericalError"]),
        "attractive": (_delta_pair(-1.0, 4.0), [*["UnsupportedTopologyError"] * 2, *["InputError"] * 4,
                                                "UnsupportedTopologyError", "GraphFormatError",
                                                "UnsupportedTopologyError"]),
        "star3": (_star((1e-10, 1.0, 4.0)), [*["GraphFormatError"] * 2, *["InputError"] * 4,
                                             *["GraphFormatError"] * 2, "UnsupportedTopologyError"]),
        "no-bonds": (qg.Graph(((0, qg.KIRCHHOFF),), (), (qg.Lead(0),)),
                     [*["UnsupportedTopologyError"] * 2, *["InputError"] * 4, *["UnsupportedTopologyError"] * 3]),
    }

    @pytest.mark.parametrize("g, kinds", SWEEP_GRAPHS.values(), ids=SWEEP_GRAPHS.keys())
    def test_sweep_rows_are_the_single_scale_results(self, g, kinds):
        results = qg.casimir_sweep(g, self.SWEEP_SCALES, Method.GREEN_TRACE)
        assert len(results) == len(self.SWEEP_SCALES)
        assert [type(r).__name__ for r in results[:len(kinds)]] == kinds
        for scale, res in zip(self.SWEEP_SCALES, results):
            try:
                alone = qg.casimir_green_method(g.scaled(scale))
            except qg.QGraphError as exc:
                assert (type(res), str(res)) == (type(exc), str(exc))
            else:
                assert isinstance(res, qg.CasimirResult)
                assert np.array([res.energy, res.estimated_error]).tobytes() == \
                    np.array([alone.energy, alone.estimated_error]).tobytes()

    def test_sweep_builds_no_graph_per_scale(self, monkeypatch):
        built = []
        post_init = qg.Graph.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(qg.Graph, "__post_init__", counting)
        g = _delta_pair(0.7, 0.5)
        counts = []
        for n in (1, 10_000):
            built.clear()
            results = qg.casimir_sweep(g, np.linspace(0.5, 2.0, n), Method.GREEN_TRACE)
            assert all(isinstance(r, qg.CasimirResult) for r in results)
            counts.append(len(built))
        assert counts[1] == counts[0] <= 1

    def test_tolerance_beyond_double_precision_raises(self, monkeypatch):
        # no panel can meet 1e-18 of its width: the panel cap ends the refinement
        monkeypatch.setattr(casimir, "_QUADRATURE_TOL", 1e-18)
        for g in (dirichlet_interval(1.0), _delta_pair(0.7)):
            with pytest.raises(NumericalError, match="did not reach its tolerance"):
                qg.casimir_green_method(g)

    def test_equal_values_are_integrated_once(self, monkeypatch):
        points = []
        integrand = casimir._rotated_integrand

        def counting(g):
            f = integrand(g)

            def counted(x):
                points.append(x.size)
                return f(x)

            return counted

        monkeypatch.setattr(casimir, "_rotated_integrand", counting)
        one = casimir._green_integrals(np.array([0.0]))
        n_points = sum(points)
        many = casimir._green_integrals(np.zeros(500))
        assert sum(points) == 2 * n_points
        assert many[0].tobytes() == np.repeat(one[0], 500).tobytes()

    @pytest.mark.parametrize("degree", range(0, 26, 2))
    def test_panel_rule_is_the_gauss_kronrod_pair(self, degree):
        # in t = 2x - 1 on [0, 1], where the symmetric rules integrate odd
        # powers to 0: K15 is exact to degree 23 and G7, on every other K15
        # node, to 13, the highest degrees a 15- and a 7-point rule nested so
        # can reach
        t = 2.0 * casimir._NODES - 1.0
        k15 = (casimir._WEIGHTS_K15 * t**degree).sum()
        g7 = (casimir._WEIGHTS_G7 * t[1::2] ** degree).sum()
        assert (abs(k15 - 1.0 / (degree + 1)) <= 1e-15) == (degree <= 22)
        assert (abs(g7 - 1.0 / (degree + 1)) <= 1e-15) == (degree <= 12)

    def test_gauss_nodes_and_weights_are_the_legendre_ones(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(7)
        assert casimir._NODES[1::2] == pytest.approx((nodes + 1.0) / 2.0, rel=0, abs=1e-15)
        assert casimir._WEIGHTS_G7 == pytest.approx(weights / 2.0, rel=0, abs=1e-15)
        assert np.all(np.diff(casimir._NODES) > 0) and 0.0 < casimir._NODES[0] and casimir._NODES[-1] < 1.0
        assert casimir._NODES + casimir._NODES[::-1] == pytest.approx(np.ones(15), rel=0, abs=1e-15)
        assert casimir._WEIGHTS_K15.tolist() == casimir._WEIGHTS_K15[::-1].tolist()

    # the panels per g value of the 8/16-point Gauss-Legendre pair this rule
    # replaced, on the g values of the benchmark's delta sweeps
    @pytest.mark.parametrize("gamma, gauss_legendre_panels", [(0.5, 4450), (3.0, 3128)])
    def test_fifteen_points_per_panel_and_about_as_many_panels(self, gamma, gauss_legendre_panels, monkeypatch):
        shapes = []
        integrand = casimir._rotated_integrand

        def counting(g):
            f = integrand(g)

            def counted(x):
                shapes.append(x.shape)
                return f(x)

            return counted

        monkeypatch.setattr(casimir, "_rotated_integrand", counting)
        casimir._green_integrals(gamma * np.linspace(0.5, 2.0, 500))
        assert {shape[1] for shape in shapes} == {15}
        panels = sum(shape[0] for shape in shapes)
        assert abs(panels / gauss_legendre_panels - 1.0) <= 0.15

    def test_memory_is_capped_by_the_chunk_budget(self):
        # about seven arrays of the budget at once, plus a few hundred bytes
        # per g value for the panel list
        import tracemalloc

        n = 20_000
        gs = 10.0 ** np.linspace(-8.0, 6.0, n)
        tracemalloc.start()
        try:
            casimir._green_integrals(gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * casimir._QUADRATURE_BYTES + 500 * n


class TestCrossMethod:
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0, 4.0])
    def test_green_vs_mode_sum_dirichlet_family(self, ell):
        mode = qg.casimir_mode_sum(dirichlet_interval(ell))
        green = qg.casimir_green_method(dirichlet_interval(ell))
        assert abs(green.energy - mode.energy) <= 1e-3 * abs(mode.energy)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_scale_covariance_both_methods(self, c):
        base_mode = qg.casimir_mode_sum(dirichlet_interval(1.0))
        scaled_mode = qg.casimir_mode_sum(dirichlet_interval(c))
        assert scaled_mode.energy * c == pytest.approx(base_mode.energy, rel=1e-6)

        base_green = qg.casimir_green_method(dirichlet_interval(1.0))
        scaled_green = qg.casimir_green_method(dirichlet_interval(c))
        assert scaled_green.energy * c == pytest.approx(base_green.energy, rel=1e-6)


def test_three_star_mode_sum_divergence_coefficient(star3_graph):
    # total length 3 in units of u = 2: the 1/tau^2 amplitude of the raw
    # regulated sum is 3/(4 pi)
    res = qg.casimir_mode_sum(star3_graph)
    assert res.fit_coefficients[0] == pytest.approx(3.0 / (4 * math.pi), rel=0.01)
    assert math.isfinite(res.energy)


def test_three_star_mode_sum_energy_matches_zeta_oracle(star3_graph):
    # spectrum {(n + 1/2) pi} u {n pi (x2)}; zeta-regularized half-sums give
    # (pi/2) zeta(-1, 1/2) = pi/48 and 2 (pi/2) zeta(-1) = -pi/12, total -pi/16
    res = qg.casimir_mode_sum(star3_graph)
    assert res.energy == pytest.approx(-math.pi / 16, rel=1e-7)


@pytest.mark.parametrize("g", [dirichlet_interval(3.0), _star((1.0, 0.7, 1.3))], ids=["interval", "star"])
def test_window_is_the_half_octave_sequence_in_units_of_the_shortest_orbit(g):
    # tau/u = 0.2 (2^-0.5)^j, j = 0..7, whatever the lengths
    taus = [t for t, _ in qg.casimir_mode_sum(g).per_tau_samples]
    assert taus == [0.2 * (2.0**-0.5) ** j for j in range(8)]


@pytest.mark.parametrize("gamma", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 3.0, 30.0, 300.0])
def test_delta_mode_sum_refuses_or_agrees_with_green(gamma):
    # a delta vertex adds a log(tau) term to the regulated sum (its self-energy,
    # which the Green route subtracts), so the even-power fit must either
    # refuse or, where that term is tiny, agree within the summed errors
    g = qg.Graph(((0, qg.delta(gamma)), (1, qg.delta(gamma))), (qg.Bond(0, 1, 1.0),))
    green = qg.casimir_green_method(g)
    try:
        mode = qg.casimir_mode_sum(g)
    except ExtrapolationError:
        return
    assert abs(mode.energy - green.energy) <= mode.estimated_error + green.estimated_error


def test_mode_sum_sweep_rows_carry_each_scale_error():
    g = _delta_pair(3.0)
    scales = [0, 1, 10**400]
    rows = qg.casimir_sweep(g, scales, Method.MODE_SUM)
    assert [type(r) for r in rows] == [qg.InputError, ExtrapolationError, qg.InputError]
    for scale, row in zip(scales, rows):
        with pytest.raises(type(row)) as alone:
            qg.casimir_mode_sum(g.scaled(scale))
        assert str(row) == str(alone.value)
        assert getattr(row, "samples", None) == getattr(alone.value, "samples", None)
    assert len(rows[1].samples) == 8


@pytest.mark.parametrize("method", ["modesum", "ModeSum", None, 0])
def test_sweep_refuses_a_method_that_is_not_a_method(method):
    # each of these once ran the Green route: a two-vertex refusal in every row
    # of the path, Green energies on the interval
    for g in (_star((1.0, 0.7)), dirichlet_interval(1.0)):
        with pytest.raises(qg.InputError, match="method must be a Method"):
            qg.casimir_sweep(g, [0.5, 1.0], method)


_REAL_LENGTHS = [3, np.int64(3), np.float16(0.1), np.float32(0.1), np.float64(0.1), Fraction(1, 3)]


@pytest.mark.parametrize("length", _REAL_LENGTHS, ids=lambda v: type(v).__name__)
def test_a_length_of_any_real_type_computes_as_its_float(length):
    # numpy 2 multiplies a float32 by a Python float in float32 (NEP 50), and a
    # Fraction makes object arrays: the graph holds float(length) instead
    g, plain = dirichlet_interval(length), dirichlet_interval(float(length))
    assert g == plain and type(g.bonds[0].length) is float
    spectra = [qg.find_eigenvalues(h, 100.0) for h in (g, plain)]
    assert len({repr((s.eigenvalues, s.residuals)) for s in spectra}) == 1
    for route in (qg.casimir_green_method, qg.casimir_mode_sum):
        assert repr(route(g)) == repr(route(plain))
    for method in Method:
        assert repr(qg.casimir_sweep(g, [0.5, 3], method)) == repr(qg.casimir_sweep(plain, [0.5, 3], method))
    (row,) = qg.casimir_sweep(g, [3], Method.GREEN_TRACE)
    assert repr(row) == repr(qg.casimir_green_method(g.scaled(3)))
    assert isinstance(qg.casimir_mode_sum(g.scaled(3)), qg.CasimirResult)
