import math

import numpy as np
import pytest

import qgraph as qg
from qgraph import (
    ExtrapolationError,
    InsufficientSpectrumError,
    Method,
    RegularizationConfig,
    UnsupportedTopologyError,
)
from qgraph.casimir import ENERGY_PREFACTOR, geometric_taus, reflection_at_infinity
from tests.conftest import analytic_interval_spectrum, dirichlet_interval, interval_mode_sum_config


class TestExtrapolateTau:
    def test_recovers_exact_divergent_model(self):
        taus = geometric_taus(0.2)
        samples = [(t, 1.0 / t**2 - 0.5) for t in taus]
        limit, coeffs, residual = qg.extrapolate_tau(samples, fit_order=2)
        assert limit == pytest.approx(-0.5, abs=1e-10)
        assert coeffs[0] == pytest.approx(1.0, rel=1e-9)
        assert residual < 1e-9

    def test_synthetic_three_term_model(self):
        taus = [0.1, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02]
        samples = [(t, 1.0 / t**2 - 0.1 + t**2) for t in taus]
        limit, _, _ = qg.extrapolate_tau(samples, fit_order=2)
        assert limit == pytest.approx(-0.1, abs=1e-8)

    def test_too_few_samples(self):
        with pytest.raises(ExtrapolationError):
            qg.extrapolate_tau([(0.1, 1.0), (0.05, 2.0)], fit_order=3)

    def test_clustered_taus_rank_deficient(self):
        t = 0.1
        samples = [(t, 1.0), (t + 1e-16, 1.0), (t, 2.0), (0.05, 3.0)]
        with pytest.raises(ExtrapolationError):
            qg.extrapolate_tau(samples, fit_order=2)

    def test_residual_failure_carries_samples(self):
        # samples with an odd 1/tau term cannot be described by the even basis
        taus = geometric_taus(0.2)
        samples = [(t, 1.0 / t - 0.3) for t in taus]
        with pytest.raises(ExtrapolationError) as err:
            qg.extrapolate_tau(samples, fit_order=2)
        assert len(err.value.samples) == len(taus)

    def test_polynomial_power_override(self):
        taus = geometric_taus(0.1)
        samples = [(t, 2.0 - 0.7 * t + 0.3 * t**3) for t in taus]
        limit, _, _ = qg.extrapolate_tau(samples, fit_order=3, powers=[0, 1, 2, 3])
        assert limit == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("field", ["quadrature_tol", "kappa_max", "tau_values"])
def test_config_rejects_nonpositive_and_nonfinite(field, value):
    kwargs = {field: (0.2, 0.1, value) if field == "tau_values" else value}
    with pytest.raises(ValueError, match=field):
        RegularizationConfig(**kwargs)


class TestCasimirIntegrand:
    def test_vanishes_without_scatterers(self):
        ca = qg.CavityAmplitudes(0j, 1.0 + 0j, 1.0, 1.0 + 0j)
        assert qg.casimir_integrand(0.1, ca) == pytest.approx(0.0, abs=1e-15)

    def test_golden_value_on_imaginary_axis(self):
        # closed form (1 - coth(1)/2) e^{-0.01} = 0.34006465069146587 of the
        # subtracted trace of the unit dirichlet interval at k = i, tau = 0.01
        ca = qg.cavity_amplitudes(qg.DIRICHLET, 1.0, 1j)
        value = qg.casimir_integrand(0.01, ca)
        assert value.real == pytest.approx((1.0 - 0.5 / math.tanh(1.0)) * math.exp(-0.01), abs=1e-15)
        assert value.imag == pytest.approx(0.0, abs=1e-14)

    def test_exponential_decay_bound(self):
        # with the free-line and constant vertex terms removed the cavity
        # integrand obeys |I| <= C e^{-2 kappa ell} / kappa on the rotated axis
        from qgraph.casimir import _rotated_integrand

        ell, tau = 1.0, 0.01
        bound_constant = 1.1 * ell
        f = _rotated_integrand(qg.DIRICHLET, ell)
        for kappa in np.linspace(5.0, 50.0, 46):
            value = f(kappa, tau) / kappa**2
            assert abs(value) <= bound_constant * math.exp(-2 * kappa * ell) / kappa
        # the generic subtracted-trace route obeys the same bound where double
        # precision can still resolve it (the trace is O(1/kappa) before the
        # cancelling subtractions)
        for kappa in np.linspace(5.0, 15.0, 11):
            ca = qg.cavity_amplitudes(qg.DIRICHLET, ell, 1j * kappa)
            value = qg.casimir_integrand(tau, ca, reflection_at_infinity(qg.DIRICHLET))
            assert abs(value) <= bound_constant * math.exp(-2 * kappa * ell) / kappa

    def test_negative_tau_rejected(self):
        ca = qg.cavity_amplitudes(qg.DIRICHLET, 1.0, 1j)
        with pytest.raises(ValueError):
            qg.casimir_integrand(-0.1, ca)

    @pytest.mark.parametrize("coupling", [qg.DIRICHLET, qg.KIRCHHOFF, qg.delta(0.8)], ids=str)
    def test_engine_integrand_matches_trace_route(self, coupling):
        # dual route inside the green engine: the stable closed form must
        # agree with kappa^2 times the generic subtracted-trace integrand
        from qgraph.casimir import _rotated_integrand

        ell, tau = 1.3, 0.05
        f = _rotated_integrand(coupling, ell)
        n_inf = reflection_at_infinity(coupling)
        for kappa in (0.3, 1.0, 2.5, 7.0):
            ca = qg.cavity_amplitudes(coupling, ell, 1j * kappa)
            generic = kappa**2 * qg.casimir_integrand(tau, ca, reflection_at_infinity=n_inf)
            assert f(kappa, tau) == pytest.approx(generic.real, rel=1e-10)
            assert generic.imag == pytest.approx(0.0, abs=1e-12)


class TestModeSum:
    def test_interval_benchmark(self):
        # oracle: (1/2) sum n pi e^{-n pi tau} = (pi/2) e^{-a} / (1 - e^{-a})^2
        # with a = pi tau, whose expansion is 1/(2 pi tau^2) - pi/24 + O(tau^2)
        cfg = interval_mode_sum_config()
        for ell in (0.5, 1.0, 2.0):
            eigs = analytic_interval_spectrum(ell, cfg)
            res = qg.casimir_mode_sum(eigs, ell, cfg)
            target = -math.pi / (24 * ell)
            assert res.method is Method.MODE_SUM
            assert abs(res.energy - target) <= 1e-8 * abs(target)

    def test_closed_form_regulated_sum_identity(self):
        # the geometric-series identity behind the benchmark above
        cfg = interval_mode_sum_config()
        eigs = analytic_interval_spectrum(1.0, cfg)
        for tau, value in qg.casimir_mode_sum(eigs, 1.0, cfg).per_tau_samples:
            a = math.pi * tau
            closed = (math.pi / 2) * math.exp(-a) / (1 - math.exp(-a)) ** 2
            assert value == pytest.approx(closed - 1.0 / (2 * math.pi * tau**2), abs=1e-10)

    def test_scaled_interval(self):
        cfg = interval_mode_sum_config()
        eigs = analytic_interval_spectrum(2.0, cfg)
        res = qg.casimir_mode_sum(eigs, 2.0, cfg)
        assert abs(res.energy + math.pi / 48) <= 1e-8 * (math.pi / 48)

    def test_empty_spectrum(self):
        with pytest.raises(InsufficientSpectrumError):
            qg.casimir_mode_sum([], 1.0)

    def test_short_spectrum_tail_guard(self):
        with pytest.raises(InsufficientSpectrumError, match="tau_min"):
            qg.casimir_mode_sum(qg.dirichlet_eigenvalues(1.0, 10), 1.0)

    def test_weyl_divergence_coefficient(self):
        cfg = interval_mode_sum_config()
        eigs = analytic_interval_spectrum(1.0, cfg)
        res = qg.casimir_mode_sum(eigs, 1.0, cfg)
        assert res.fit_coefficients[0] == pytest.approx(1.0 / (2 * math.pi), rel=0.01)

    def test_more_eigenvalues_within_estimated_error(self):
        cfg = interval_mode_sum_config()
        eigs = analytic_interval_spectrum(1.0, cfg)
        base = qg.casimir_mode_sum(eigs, 1.0, cfg)
        extended = qg.casimir_mode_sum(
            qg.dirichlet_eigenvalues(1.0, 2 * len(eigs)), 1.0, cfg
        )
        assert abs(extended.energy - base.energy) <= base.estimated_error

    def test_regulator_doubling_within_error_budget(self):
        cfg = interval_mode_sum_config()
        doubled = RegularizationConfig(
            tau_values=tuple(2 * t for t in cfg.tau_values), fit_order=cfg.fit_order
        )
        eigs = analytic_interval_spectrum(1.0, cfg)
        base = qg.casimir_mode_sum(eigs, 1.0, cfg)
        other = qg.casimir_mode_sum(eigs, 1.0, doubled)
        assert abs(other.energy - base.energy) <= 5 * base.estimated_error


class TestGreenMethod:
    def test_two_vertex_reduction_only(self, star3_graph):
        with pytest.raises(UnsupportedTopologyError, match="two-vertex"):
            qg.casimir_green_method(star3_graph)

    def test_asymmetric_couplings_rejected(self):
        g = qg.Graph(((0, qg.DIRICHLET), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, 1.0),))
        with pytest.raises(UnsupportedTopologyError, match="identical couplings"):
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
        assert abs(res.energy - target) <= 1e-4 * abs(target)

    def test_neumann_ends_match_dirichlet_energy(self):
        # both spectra are {n pi / ell}, so the energies must agree
        g = qg.Graph(((0, qg.KIRCHHOFF), (1, qg.KIRCHHOFF)), (qg.Bond(0, 1, 1.0),))
        res = qg.casimir_green_method(g)
        assert res.energy == pytest.approx(-math.pi / 24, rel=1e-6)

    def test_truncation_halving_within_estimated_error(self):
        base = qg.casimir_green_method(dirichlet_interval(1.0))
        halved = qg.casimir_green_method(
            dirichlet_interval(1.0),
            RegularizationConfig(kappa_max=base.kappa_max / 2),
        )
        assert abs(halved.energy - base.energy) <= halved.estimated_error

    def test_truncation_increase_within_estimated_error(self):
        base = qg.casimir_green_method(dirichlet_interval(1.0))
        bigger = qg.casimir_green_method(
            dirichlet_interval(1.0),
            RegularizationConfig(kappa_max=2 * base.kappa_max),
        )
        assert abs(bigger.energy - base.energy) <= base.estimated_error

    def test_regulator_doubling_within_error_budget(self):
        base = qg.casimir_green_method(dirichlet_interval(1.0))
        taus = tuple(2 * t for t in geometric_taus(0.1))
        other = qg.casimir_green_method(
            dirichlet_interval(1.0), RegularizationConfig(tau_values=taus)
        )
        assert abs(other.energy - base.energy) <= 5 * base.estimated_error

    def test_frozen_prefactor(self):
        assert ENERGY_PREFACTOR == 1.0 / math.pi


class TestCrossMethod:
    @pytest.mark.parametrize("ell", [0.5, 1.0, 2.0, 4.0])
    def test_green_vs_mode_sum_dirichlet_family(self, ell):
        cfg = interval_mode_sum_config()
        mode = qg.casimir_mode_sum(analytic_interval_spectrum(ell, cfg), ell, cfg)
        green = qg.casimir_green_method(dirichlet_interval(ell))
        assert abs(green.energy - mode.energy) <= 1e-3 * abs(mode.energy)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_scale_covariance_both_methods(self, c):
        cfg = interval_mode_sum_config()
        base_mode = qg.casimir_mode_sum(analytic_interval_spectrum(1.0, cfg), 1.0, cfg)
        scaled_mode = qg.casimir_mode_sum(analytic_interval_spectrum(c, cfg), c, cfg)
        assert scaled_mode.energy * c == pytest.approx(base_mode.energy, rel=1e-6)

        base_green = qg.casimir_green_method(dirichlet_interval(1.0))
        scaled_green = qg.casimir_green_method(dirichlet_interval(c))
        assert scaled_green.energy * c == pytest.approx(base_green.energy, rel=1e-6)


def test_three_star_mode_sum_divergence_coefficient(star3_graph):
    # total length 3: the 1/tau^2 amplitude of the raw regulated sum is 3/(2 pi)
    cfg = RegularizationConfig(tau_values=geometric_taus(0.5), fit_order=5)
    k_need = 34.0 / min(cfg.tau_values)
    spectrum = qg.find_eigenvalues(star3_graph, k_need)
    res = qg.casimir_mode_sum(spectrum.eigenvalues, qg.total_length(star3_graph), cfg)
    assert res.fit_coefficients[0] == pytest.approx(3.0 / (2 * math.pi), rel=0.01)
    assert math.isfinite(res.energy)


def test_three_star_mode_sum_energy_matches_zeta_oracle(star3_graph):
    # spectrum {(n + 1/2) pi} u {n pi (x2)}; zeta-regularized half-sums give
    # (pi/2) zeta(-1, 1/2) = pi/48 and 2 (pi/2) zeta(-1) = -pi/12, total -pi/16
    cfg = interval_mode_sum_config()
    k_need = 34.0 / min(cfg.tau_values)
    spectrum = qg.find_eigenvalues(star3_graph, k_need)
    res = qg.casimir_mode_sum(spectrum.eigenvalues, 3.0, cfg)
    assert res.energy == pytest.approx(-math.pi / 16, rel=1e-7)
